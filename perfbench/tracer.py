"""Span recorder and outside-in tracing of one bcclust CLI call.

The package is not edited: `install` replaces public names with timing
wrappers in the module each caller looks them up in (for example
`extract_clusters` as seen from `bcclust.cli`, `bcclust.shapes` and
`bcclust.imageseg`), and `uninstall` puts the originals back.  Spans are kept
in memory and written out once the call has returned.

Traced call, run from the repository root with `src` on PYTHONPATH:

    python3 perfbench/tracer.py --spans spans.json --run-id r0 -- <bcclust args>
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Per-layer metric names and units, in report order.  The traced run fills
# every entry except those marked "harness", which the harness adds from the
# untraced runs and from the output directory.
PER_LAYER_UNITS = {
    "cli.user_s": "s",  # harness
    "cli.sys_s": "s",  # harness
    "io.write_trajectory_csv_s": "s",
    "io.trajectory_bytes": "bytes",  # harness
    "io.write_density_csv_s": "s",
    "io.read_particles_csv_s": "s",
    "io.write_labels_csv_s": "s",
    "io.write_total_s": "s",
    "io.bytes_written": "bytes",  # harness
    "rng.subsets_s": "s",
    "rng.subsets_calls": "count",
    "rng.subsets_rows": "count",
    "rng.subsets_ms_p50": "ms",
    "mfi.step_self_s": "s",
    "mfi.steps": "count",
    "mfi.step_ms_p50": "ms",
    "mfi.particle_steps_per_s": "1/s",
    "mfi.active_fraction": "fraction",
    "dynamics.euler_step_s": "s",
    "dynamics.euler_steps": "count",
    "dynamics.euler_step_ms_p50": "ms",
    "dynamics.euler_step_peak_alloc_mb": "MB",
    "dynamics.run_self_s": "s",
    "dynamics.extract_clusters_s": "s",
    "dynamics.n_clusters": "count",
    "dynamics.verify_steady_state_s": "s",
    "dynamics.violations": "count",
    "moments.append_s": "s",
    "moments.append_calls": "count",
    "shapes.perturb_s": "s",
    "shapes.error_measure_s": "s",
    "shapes.sweep_self_s": "s",
    "imageseg.load_grayscale_s": "s",
    "imageseg.write_image_s": "s",
    "imageseg.segment_self_s": "s",
    "trace.wall_s": "s",  # harness
    "trace.overhead_s": "s",  # harness
}


class Recorder:
    """In-memory spans of one traced run: name, start, end, parent, run id."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as a child of the innermost open span.

        Yields the span's attribute dict; callers may fill it after the body
        so that the bookkeeping is not counted in the span.
        """
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": self.clock(), "end": None,
               "attrs": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = self.clock()
            self._open.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            a, b = max(c["start"], s["start"]), min(c["end"], s["end"])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# -- wrappers -----------------------------------------------------------------

def _moved(attrs, args, result):
    ps = args[0]
    attrs["particles"] = int(ps.n)
    attrs["moved"] = int((result.positions != ps.positions).any(axis=1).sum())


# (span name, [(module, attribute path), ...], bookkeeping after the call)
# Every site where a caller looks the name up gets the same wrapper.  The
# readers and writers of bcclust.io are added by `_io_hooks`.
_HOOKS = [
    ("rng.subsets", [("bcclust.rng", "RngStream.subsets")],
     lambda attrs, args, result: attrs.update(rows=int(result.shape[0]))),
    ("mfi.mfi_step", [("bcclust.mfi", "mfi_step"), ("bcclust.cli", "mfi_step")],
     _moved),
    ("mfi.mfi_simulate", [("bcclust.cli", "mfi_simulate"),
                          ("bcclust.shapes", "mfi_simulate"),
                          ("bcclust.imageseg", "mfi_simulate")], None),
    ("dynamics.simulate", [("bcclust.cli", "simulate"),
                           ("bcclust.imageseg", "simulate")], None),
    ("dynamics.extract_clusters", [("bcclust.cli", "extract_clusters"),
                                   ("bcclust.shapes", "extract_clusters"),
                                   ("bcclust.imageseg", "extract_clusters")],
     lambda attrs, args, result: attrs.update(n_clusters=result.n_clusters)),
    ("dynamics.verify_steady_state", [("bcclust.cli", "verify_steady_state")],
     lambda attrs, args, result: attrs.update(violations=len(result.violations))),
    ("moments.append", [("bcclust.moments", "MomentRecord.append")], None),
    ("shapes.sweep", [("bcclust.cli", "sweep")], None),
    ("shapes.perturb", [("bcclust.shapes", "perturb")], None),
    ("shapes.error_measure", [("bcclust.shapes", "error_measure")], None),
    ("imageseg.load_grayscale", [("bcclust.cli", "load_grayscale")], None),
    ("imageseg.segment", [("bcclust.cli", "segment")], None),
    ("imageseg.write_image", [("bcclust.cli", "write_image")], None),
]

_EULER_SITES = [("bcclust.dynamics", "euler_step"), ("bcclust.cli", "euler_step")]


def _io_hooks() -> list:
    import bcclust.io
    return [(f"io.{n}", [("bcclust.io", n)], None) for n in sorted(vars(bcclust.io))
            if n.startswith(("read_", "write_")) or n == "atomic_write_text"]


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as attrs:
            result = fn(*args, **kwargs)
        if after is not None:
            after(attrs, args, result)
        return result
    return wrapper


def _timed_euler(rec: Recorder, fn):
    # tracemalloc runs only inside the step, so the Python-heavy writers are
    # not slowed; numpy reports its array buffers to it.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span("dynamics.euler_step") as attrs:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return result
    return wrapper


def install(rec: Recorder):
    """Wrap every hooked name.  Returns (restore list, names not found)."""
    restore, missing = [], []
    hooks = [(sites, functools.partial(_timed, rec, name, after=after))
             for name, sites, after in _io_hooks() + _HOOKS]
    hooks.append((_EULER_SITES, functools.partial(_timed_euler, rec)))
    for sites, make in hooks:
        wrapped = {}  # original function id -> wrapper, shared across sites
        for module, path in sites:
            try:
                owner, attr = _owner(module, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = make(fn)
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])
    return restore, missing


def uninstall(restore) -> None:
    for owner, attr, fn in reversed(restore):
        setattr(owner, attr, fn)


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(spans) -> dict:
    """The traced part of PER_LAYER_UNITS, from one run's spans."""
    selft = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_total(*names):
        return sum(selft[s["id"]] for n in names for s in by_name[n])

    def p50_ms(name):
        d = [dur(s) for s in by_name[name]]
        return statistics.median(d) * 1e3 if d else 0.0

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def outermost_io_write(s):
        if not s["name"].startswith(("io.write_", "io.atomic_write_text")):
            return False
        p = s["parent"]
        while p is not None:
            if spans[p]["name"].startswith("io."):
                return False
            p = spans[p]["parent"]
        return True

    steps = by_name["mfi.mfi_step"]
    mfi_time = total("mfi.mfi_step")
    particle_steps = attr_sum("mfi.mfi_step", "particles")
    return {
        "io.write_trajectory_csv_s": total("io.write_trajectory_csv"),
        "io.write_density_csv_s": total("io.write_density_csv"),
        "io.read_particles_csv_s": total("io.read_particles_csv"),
        "io.write_labels_csv_s": total("io.write_labels_csv"),
        "io.write_total_s": sum(dur(s) for s in spans if outermost_io_write(s)),
        "rng.subsets_s": total("rng.subsets"),
        "rng.subsets_calls": len(by_name["rng.subsets"]),
        "rng.subsets_rows": attr_sum("rng.subsets", "rows"),
        "rng.subsets_ms_p50": p50_ms("rng.subsets"),
        "mfi.step_self_s": self_total("mfi.mfi_step"),
        "mfi.steps": len(steps),
        "mfi.step_ms_p50": p50_ms("mfi.mfi_step"),
        "mfi.particle_steps_per_s": particle_steps / mfi_time if mfi_time else 0.0,
        "mfi.active_fraction": (attr_sum("mfi.mfi_step", "moved") / particle_steps
                                if particle_steps else 0.0),
        "dynamics.euler_step_s": total("dynamics.euler_step"),
        "dynamics.euler_steps": len(by_name["dynamics.euler_step"]),
        "dynamics.euler_step_ms_p50": p50_ms("dynamics.euler_step"),
        "dynamics.euler_step_peak_alloc_mb": max(
            (s["attrs"].get("peak_alloc_bytes", 0)
             for s in by_name["dynamics.euler_step"]), default=0) / 2**20,
        "dynamics.run_self_s": self_total("dynamics.simulate", "mfi.mfi_simulate"),
        "dynamics.extract_clusters_s": total("dynamics.extract_clusters"),
        "dynamics.n_clusters": attr_sum("dynamics.extract_clusters", "n_clusters"),
        "dynamics.verify_steady_state_s": total("dynamics.verify_steady_state"),
        "dynamics.violations": attr_sum("dynamics.verify_steady_state", "violations"),
        "moments.append_s": total("moments.append"),
        "moments.append_calls": len(by_name["moments.append"]),
        "shapes.perturb_s": total("shapes.perturb"),
        "shapes.error_measure_s": total("shapes.error_measure"),
        "shapes.sweep_self_s": self_total("shapes.sweep"),
        "imageseg.load_grayscale_s": total("imageseg.load_grayscale"),
        "imageseg.write_image_s": total("imageseg.write_image"),
        "imageseg.segment_self_s": self_total("imageseg.segment"),
    }


# -- traced CLI call ----------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one bcclust CLI call with "
                                 "spans recorded around its layers.")
    ap.add_argument("--spans", required=True, help="JSON file for the spans")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER,
                    help="arguments for bcclust, after '--'")
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import bcclust.cli

    rec = Recorder(args.run_id)
    restore, missing = install(rec)
    try:
        with rec.span("cli.main"):
            code = bcclust.cli.main(cli_args)
    finally:
        uninstall(restore)
    with open(args.spans, "w") as fh:
        json.dump({"run": args.run_id, "missing_hooks": missing,
                   "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
