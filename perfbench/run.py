#!/usr/bin/env python3
"""Benchmark of the three bcclust CLI pipelines, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and writes only under `.perfbench_work/`.  One closed-loop client
runs one pipeline process at a time and starts the next only when the
previous one has exited and the next is expected to end within --seconds.
Every run's outputs are checked.  With --trace 1 the untraced runs leave
room in the window for one traced run (see tracer.py), and the per-layer
metrics are reported instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOADS = ("simulate-1d", "shape-letterA", "segment-quadrant")
SETUP_PER_PROCESS = 2
PROCESS_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BC_THREADS")

# The README example's settings (20 time units at dt 0.5) at 20,000 rather
# than 50,000 positions, so that a run holds several processes to take the
# median of.
N_1D = 20_000
SNAPSHOTS_1D = 41
SHAPE_RUNS = 6  # one alpha x three eps1 x two runs
QUADRANT_SIDE = 64


@dataclass
class Prepared:
    """A workload's inputs, written under its work directory."""

    cli_args: list  # bcclust arguments, without --out-dir
    setup_argv: list  # fresh interpreter: import bcclust.cli, load the input
    check: object  # out_dir -> list of problems
    note: str = ""


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    user_s: float
    sys_s: float
    exit_code: int
    problems: list = field(default_factory=list)
    out_bytes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def derived_seed(workload: str, seed: int) -> int:
    """The CLI's --seed, a fixed function of the workload and benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def write_particles(path: Path, x0: np.ndarray) -> None:
    """1D positions as the particles CSV that `--init file` reads."""
    path.write_text("x_1\n" + "".join("%.17g\n" % v for v in x0[:, 0]))


def write_quadrant_pgm(path: Path, side: int) -> np.ndarray:
    """Criterion 7's four-quadrant image; returns its intensities.

    maxval 4 stores the intensities 1, 0, 0.75 and 0.25 exactly, so the
    cluster means can be checked to 1e-9.
    """
    half = side // 2
    samples = np.zeros((side, side), dtype=np.uint8)
    samples[:half, :half] = 4
    samples[half:, :half] = 3
    samples[half:, half:] = 1
    path.write_bytes(f"P5\n{side} {side}\n4\n".encode() + samples.tobytes())
    return samples / 4.0


def prepare(workload: str, wdir: Path, seed: int) -> Prepared:
    py = sys.executable
    cli_seed = str(derived_seed(workload, seed))
    if workload == "simulate-1d":
        x0 = np.random.default_rng(seed).uniform(0.0, 1.0, size=(N_1D, 1))
        particles = wdir / "particles.csv"
        write_particles(particles, x0)
        return Prepared(
            ["simulate", "--init", "file", "--init-file", str(particles),
             "--eps1", "0.15", "--mode", "stochastic", "--method", "mfi",
             "--M", "10", "--dt", "0.5", "--t-final", "20", "--seed", cli_seed],
            [py, "-c", "import sys, bcclust.cli, bcclust.io; "
             "bcclust.io.read_particles_csv(sys.argv[1])", str(particles)],
            lambda out: checks.check_simulate(out, x0, SNAPSHOTS_1D))
    if workload == "shape-letterA":
        return Prepared(
            ["shape", "--n", "5000", "--alpha-list", "0.1",
             "--eps1-list", "0.06 0.08 0.1", "--runs", "2", "--t-final", "50",
             "--seed", cli_seed],
            [py, "-c", "import bcclust.cli, bcclust.shapes; "
             "bcclust.shapes.generate_letter_A(5000)"],
            lambda out: checks.check_shape(out, SHAPE_RUNS))
    if workload == "segment-quadrant":
        pgm = wdir / "quadrant.pgm"
        image = write_quadrant_pgm(pgm, QUADRANT_SIDE)
        return Prepared(
            ["segment", "--input", str(pgm), "--eps1", "0.5", "--eps2", "0.3",
             "--threshold", "0.5", "--seed", cli_seed],
            [py, "-c", "import sys, bcclust.cli, bcclust.imageseg; "
             "bcclust.imageseg.load_grayscale(sys.argv[1])", str(pgm)],
            lambda out: checks.check_segment(out, image),
            note="the input image is fixed, so the seed changes nothing here")
    raise ValueError(f"unknown workload {workload!r}")


# -- child processes ----------------------------------------------------------

def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def launch(argv: list, log: Path) -> tuple:
    """Run argv to completion.  Returns (wall seconds, exit code, rusage)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_pipeline(argv: list, out_dir: Path, log: Path) -> Sample:
    shutil.rmtree(out_dir, ignore_errors=True)
    wall, code, usage = launch(argv + ["--out-dir", str(out_dir)], log)
    sizes = ({p.name: p.stat().st_size for p in out_dir.iterdir()}
             if out_dir.is_dir() else {})
    return Sample(wall, usage.ru_maxrss / 1024.0, usage.ru_utime,
                  usage.ru_stime, code, out_bytes=sizes)


def outputs_match(out_dir: Path, reference: dict) -> list:
    got = checks.digests(out_dir) if out_dir.is_dir() else {}
    if got == reference:
        return []
    differ = sorted(k for k in reference.keys() | got.keys()
                    if got.get(k) != reference.get(k))
    return [f"outputs differ from the first run: {differ}"]


# -- provenance ---------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _l3_bytes():
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (idx / "level").read_text().strip() != "3":
                continue
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


# -- one benchmark run --------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def setup_time(prep: Prepared, wdir: Path) -> float:
    """Wall time of a fresh interpreter that imports bcclust.cli and loads
    the input."""
    wall, code, _ = launch(prep.setup_argv, wdir / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}; see {wdir / 'setup.log'}")
    return wall


def traced_run(prep: Prepared, wdir: Path, run_id: str) -> tuple:
    out_dir = wdir / "traced"
    spans_path = wdir / "spans.json"
    spans_path.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).with_name("tracer.py")),
            "--spans", str(spans_path), "--run-id", run_id, "--"]
    sample = run_pipeline(argv + prep.cli_args, out_dir, wdir / "traced.log")
    trace = json.loads(spans_path.read_text()) if spans_path.is_file() else None
    return sample, trace, out_dir


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    prep = prepare(workload, wdir, seed)
    inputs = hashlib.sha256(" ".join(prep.cli_args).encode())
    for p in sorted(wdir.iterdir()):
        inputs.update(p.read_bytes())
    if not trace:
        setup_time(prep, wdir)  # warm-up: fills the bytecode and file caches

    cli = [sys.executable, "-m", "bcclust.cli"] + prep.cli_args
    samples, setup, reference = [], [], None
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        if not trace:
            # Spread over the window, so that a short slow spell of the
            # machine moves few of them.
            setup += [setup_time(prep, wdir) for _ in range(SETUP_PER_PROCESS)]
        k = len(samples)
        out_dir = wdir / f"out-{k}"
        s = run_pipeline(cli, out_dir, wdir / f"run-{k}.log")
        if k == 0:
            reference = checks.digests(out_dir) if out_dir.is_dir() else {}
        else:
            s.problems = outputs_match(out_dir, reference)
            shutil.rmtree(out_dir, ignore_errors=True)
        samples.append(s)
        # The next iteration is expected to take as long as this one; a
        # traced run, about as long as one process, must also fit.
        now = time.perf_counter()
        if now - start + (now - t_iter) + trace * s.wall_s > seconds:
            break
    first = samples[0]
    if first.exit_code == 0:
        first.problems = prep.check(wdir / "out-0") + _check_history(
            workload, seed, reference, inputs.hexdigest())

    ok = [s for s in samples if s.ok] or samples
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "cli_args": prep.cli_args, "note": prep.note,
        "provenance": provenance(),
        "samples": [vars(s) for s in samples], "samples_ok": len(ok),
        "setup_samples_s": setup,
    }
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    if trace:
        t, spans, t_out = traced_run(prep, wdir, f"{workload}-seed{seed}")
        attempted += 1
        if t.exit_code == 0:
            t.problems = outputs_match(t_out, reference)
        if spans is None:
            t.problems.append("traced run wrote no spans")
        failed += not t.ok
        wall_med = _median([s.wall_s for s in ok])
        metrics = tracer.layer_metrics(spans["spans"]) if spans else {}
        metrics.update({
            "cli.user_s": _median([s.user_s for s in ok]),
            "cli.sys_s": _median([s.sys_s for s in ok]),
            "io.trajectory_bytes": first.out_bytes.get("trajectory.csv", 0),
            "io.bytes_written": sum(first.out_bytes.values()),
            "trace.wall_s": t.wall_s,
            "trace.overhead_s": t.wall_s - wall_med,
        })
        units = tracer.PER_LAYER_UNITS
        result["traced_sample"] = vars(t)
        result["missing_hooks"] = spans["missing_hooks"] if spans else None
    else:
        metrics = {
            "wall_s": _median([s.wall_s for s in ok]),
            "peak_rss_mb": _median([s.peak_rss_mb for s in ok]),
            "setup_s": _median(setup),
        }
        units = END_TO_END_UNITS
    result["failed_frac"] = failed / attempted
    result["metrics"] = {k: {"value": metrics.get(k, float("nan")), "unit": u}
                         for k, u in units.items()}
    result["summary"] = {"correct": failed == 0, "attempted": attempted,
                         "failed": failed, "metrics": result["metrics"]}
    return result


def _check_history(workload: str, seed: int, files: dict, inputs: str) -> list:
    """Outputs must equal those of any earlier run with the same source tree
    and the same inputs."""
    path = WORK / "digests" / f"{workload}-seed{seed}.json"
    source = source_digest() + inputs
    if path.is_file():
        old = json.loads(path.read_text())
        if old["source"] == source and old["files"] != files:
            return ["outputs differ from an earlier run of the same source"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "files": files}))
    return []


def report(result: dict) -> None:
    n = len(result["samples"])
    print(f"{result['workload']} seed {result['seed']}: {n} pipeline run(s), "
          f"one at a time; {len(result['setup_samples_s'])} set-up run(s)"
          + (f"; {result['note']}" if result["note"] else ""))
    for name, m in result["metrics"].items():
        basis = ""
        if name in ("wall_s", "peak_rss_mb", "cli.user_s", "cli.sys_s"):
            basis = f"  (median of {result['samples_ok']})"
        elif name == "setup_s":
            basis = f"  (median of {len(result['setup_samples_s'])})"
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{basis}")
    s = result["summary"]
    print(f"  {'failed_frac':36s} {result['failed_frac']:.6g}  "
          f"({s['failed']} of {s['attempted']} runs failed)")
    for k, sample in enumerate(result["samples"]):
        for p in sample["problems"]:
            print(f"  run {k}: {p}")
    if result.get("traced_sample"):
        for p in result["traced_sample"]["problems"]:
            print(f"  traced run: {p}")
    if result.get("missing_hooks"):
        print(f"  not traced (name not found): {', '.join(result['missing_hooks'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bcclust" / "cli.py").is_file():
        print(f"error: no bcclust sources under {SRC}", file=sys.stderr)
        return 2
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = WORK / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        report(result)
        results.append(result)
    if len(results) == 1:
        summary = results[0]["summary"]
    else:  # metric names gain a "<workload>/" prefix
        summary = {"correct": all(r["summary"]["correct"] for r in results),
                   "attempted": sum(r["summary"]["attempted"] for r in results),
                   "failed": sum(r["summary"]["failed"] for r in results),
                   "metrics": {f"{r['workload']}/{k}": v for r in results
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
