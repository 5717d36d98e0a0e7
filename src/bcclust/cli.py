"""Command-line front end.

Subcommands: simulate (steady states / moment evolution), shape (letter
detection sweeps), segment (grayscale images), bench (step-time scaling).
Every run writes a manifest echoing all resolved parameters (unset ones are
left out); rerunning with --config set to a manifest reproduces the outputs
bit-for-bit.  Parameter precedence: flags override --config file entries,
which override built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io as bio
from .dynamics import (IntegratorConfig, _check_merge_tol, default_merge_tol,
                       extract_clusters, euler_step, simulate, verify_steady_state)
from .imageseg import load_grayscale, segment, threshold, write_image
from .mfi import MfiConfig, mfi_simulate, mfi_step
from .model import (NORMS, SIGMA_MODES, ClusteringError, ConfigError,
                    InteractionSpec, ParticleSet)
from .rng import derive_seed
from .shapes import generate_letter_A, load_segments, sample_segments, sweep

_EXIT_OK, _EXIT_RUNTIME, _EXIT_USAGE = 0, 1, 2

# Each subcommand's parameters, one (flag, type or choices, default[, help])
# entry each.  The entry makes the flag and parses its config-file value; a
# parameter with the default _REQUIRED must be set by one or the other, and
# one with the default None may stay unset (and out of the manifest).
_REQUIRED = object()


def _list(cast):
    """Flag type: a nonempty list of cast values separated by spaces or
    commas."""
    def parse(s: str) -> list:
        vals = [cast(v) for v in s.replace(",", " ").split()]
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals
    parse.__name__ = f"{cast.__name__} list"
    return parse


def _resolve(args) -> dict:
    """flags > config file (a manifest, say; '-' in keys read as '_') >
    defaults.  A config value is parsed by its parameter's entry; a bad one,
    a required parameter left unset, or a text value the manifest could not
    read back unchanged is a ConfigError."""
    cfg = {}
    if args.config:
        cfg = {k.replace("-", "_"): v for k, v in bio.read_manifest(args.config).items()}
    p, missing = {}, []
    for flag, kind, default, *_ in args.params:
        key = flag[2:].replace("-", "_")
        val = getattr(args, key)
        if val is None and key in cfg:
            try:
                if callable(kind):
                    val = kind(cfg[key])
                elif cfg[key] in kind:
                    val = cfg[key]
                else:
                    raise ValueError(f"choose from {', '.join(kind)}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{args.config}: {key} = {cfg[key]!r}: {exc}") from None
        p[key] = default if val is None else val
        if p[key] is _REQUIRED:
            missing.append(flag)
        elif kind is str and p[key] is not None and not bio.manifest_keeps(p[key]):
            raise ConfigError(f"{flag} {p[key]!r}: a manifest cannot record a value "
                              "with a line break, edge whitespace or ' #'")
    if missing:
        raise ConfigError(f"{', '.join(missing)}: required, set by flag or --config")
    return p


def _spec_from(p: dict) -> InteractionSpec:
    return InteractionSpec(eps1=p["eps1"], eps2=p["eps2"], norm1=p["norm1"],
                           norm2=p["norm2"], sigma_mode=p["mode"])


def _out(p: dict, name: str) -> str:
    os.makedirs(p["out_dir"], exist_ok=True)
    return os.path.join(p["out_dir"], name)


_STOP_TOL_HELP = ("exact integrator (--method euler) only: stop once the max "
                  "per-step displacement drops below this; the subset "
                  "integrator (--method mfi) always runs to --t-final")


# -- simulate -----------------------------------------------------------------

_SIMULATE = (
    ("--n", int, 50000), ("--d1", int, 1),
    ("--init", ("uniform", "gaussian-feature", "file"), "uniform"),
    ("--init-file", str, None), ("--eps1", float, _REQUIRED),
    ("--eps2", float, float("inf")), ("--norm1", NORMS, "euclidean"),
    ("--norm2", NORMS, "euclidean"), ("--mode", SIGMA_MODES, _REQUIRED),
    ("--method", ("euler", "mfi"), "mfi"), ("--M", int, 10),
    ("--dt", float, 0.5), ("--t-final", float, 20.0),
    ("--stop-tol", float, 1e-8, _STOP_TOL_HELP), ("--record-every", int, 1),
    ("--seed", int, 0),
    ("--bins", int, 100, "density histogram bins per axis"),
    ("--merge-tol", float, None), ("--out-dir", str, "out"))


def _initial_particles(p: dict) -> ParticleSet:
    if p["init"] == "file":
        if not p["init_file"]:
            raise ConfigError("--init file requires --init-file")
        return bio.read_particles_csv(p["init_file"])
    rng = np.random.default_rng(derive_seed(p["seed"], 0xA11CE))
    x = rng.uniform(0.0, 1.0, size=(p["n"], p["d1"]))
    if p["init"] == "uniform":
        return ParticleSet(x)
    return ParticleSet(x, 0.5 + np.sqrt(0.3) * rng.standard_normal((p["n"], 1)))


def cmd_simulate(p: dict) -> None:
    if p["bins"] < 1:
        raise ConfigError("--bins must be at least 1")
    spec = _spec_from(p)
    ps0 = _initial_particles(p)
    p.update(n=ps0.n, d1=ps0.d1)  # so the manifest gives an --init-file's set
    merge_tol = (default_merge_tol(ps0, spec) if p["merge_tol"] is None
                 else _check_merge_tol(p["merge_tol"]))
    if p["method"] == "euler":
        run = simulate
        cfg = IntegratorConfig(p["dt"], p["t_final"], p["stop_tol"], p["record_every"])
    else:
        run = mfi_simulate
        cfg = MfiConfig(p["M"], p["dt"], p["t_final"], p["seed"], p["record_every"])
    # The snapshots go to a writer process forked here, before the first
    # step, which writes them while the run steps and the small tables are
    # written (see io.SnapshotSink).
    density = _out(p, "density.csv") if ps0.d1 <= 2 else None
    with bio.SnapshotSink(ps0.positions.shape, ps0.features, _out(p, "trajectory.csv"),
                          density, p["bins"]) as sink:
        tr = run(ps0, spec, cfg, sink)
        cs = extract_clusters(tr.final, merge_tol, spec)
        report = verify_steady_state(cs, spec)
        bio.write_moments_csv(_out(p, "moments.csv"), tr.moments)
        bio.write_clusters_csv(_out(p, "clusters.csv"), cs)
        bio.write_steady_state_csv(_out(p, "steady_state.csv"), report)
    print(f"{cs.n_clusters} clusters; steady state "
          f"{'PASS' if report.passed else 'FAIL'}; outputs in {p['out_dir']}")


# -- shape --------------------------------------------------------------------

_SHAPE = (
    ("--pattern", ("letterA", "file"), "letterA"),
    ("--pattern-file", str, None, "one 'x0 y0 x1 y1' segment per line"),
    ("--n", int, 5000), ("--alpha-list", _list(float), _REQUIRED),
    ("--eps1-list", _list(float), _REQUIRED),
    ("--noise", ("uniform", "gaussian"), "uniform"), ("--runs", int, 1),
    ("--seed", int, 0), ("--M", int, 10), ("--dt", float, 0.5),
    ("--t-final", float, 50.0), ("--mode", SIGMA_MODES, "stochastic"),
    ("--merge-tol", float, None), ("--out-dir", str, "out"))


def cmd_shape(p: dict) -> None:
    if p["pattern"] == "letterA":
        pat = generate_letter_A(p["n"])
    elif not p["pattern_file"]:
        raise ConfigError("--pattern file requires --pattern-file")
    else:
        pat = sample_segments(load_segments(p["pattern_file"]), p["n"])
    result = sweep(pat, p["alpha_list"], p["eps1_list"], p["runs"],
                   noise_dist=p["noise"], master_seed=p["seed"], M=p["M"],
                   dt=p["dt"], t_final=p["t_final"], sigma_mode=p["mode"],
                   merge_tol=p["merge_tol"])
    bio.write_sweep_csv(_out(p, "sweep.csv"), result)
    bio.write_sweep_summary_csv(_out(p, "summary.csv"), result)
    for r in result.rows:
        name = f"centers_a{r.alpha}_e{r.eps1}_r{r.run}.csv"
        bio._write_rows(_out(p, name), ["center_1", "center_2"],
                        [[bio._float_fields(r.centers)]])
    for s in result.summary:
        if s.best:
            print(f"alpha={s.alpha:g}: best eps1={s.eps1:g} "
                  f"mean E={s.mean_error:.3e} mean clusters={s.mean_clusters:g}")


# -- segment ------------------------------------------------------------------

_SEGMENT = (
    ("--input", str, _REQUIRED, "P2/P5 PGM file"),
    ("--eps1", float, _REQUIRED), ("--eps2", float, _REQUIRED),
    ("--norm1", NORMS, "euclidean"), ("--norm2", NORMS, "euclidean"),
    ("--mode", SIGMA_MODES, "stochastic"),
    ("--threshold", float, None, "also write a binary PGM; cluster means "
     "strictly below the threshold go black"),
    ("--method", ("auto", "euler", "mfi"), "auto"), ("--M", int, 10),
    ("--dt", float, 0.5), ("--t-final", float, 50.0),
    ("--stop-tol", float, 1e-8, _STOP_TOL_HELP), ("--seed", int, 0),
    ("--merge-tol", float, None), ("--format", ("P2", "P5"), "P5"),
    ("--out-dir", str, "out"))


def cmd_segment(p: dict) -> None:
    if p["threshold"] is not None and not 0 <= p["threshold"] <= 1:
        raise ConfigError("--threshold must lie in [0, 1]")
    if not os.path.exists(p["input"]):
        raise ClusteringError(f"input file not found: {p['input']}")
    img = load_grayscale(p["input"])
    spec = _spec_from(p)
    sr = segment(img, spec, method=p["method"], dt=p["dt"],
                 t_final=p["t_final"], M=p["M"], seed=p["seed"],
                 stop_tol=p["stop_tol"], merge_tol=p["merge_tol"])
    write_image(sr.output, _out(p, "segmented.pgm"), p["format"])
    if p["threshold"] is not None:
        write_image(threshold(sr, p["threshold"]), _out(p, "binary.pgm"),
                    p["format"])
    bio.write_labels_csv(_out(p, "labels.csv"), sr)
    bio.write_clusters_csv(_out(p, "clusters.csv"), sr.clusters)
    levels = ", ".join(f"{v:.4g}" for v in sorted(sr.cluster_intensity))
    print(f"{sr.clusters.n_clusters} clusters; intensity levels [{levels}]; "
          f"outputs in {p['out_dir']}")


# -- bench --------------------------------------------------------------------

_BENCH = (
    ("--n-list", _list(int), _REQUIRED), ("--M-list", _list(int), _REQUIRED),
    ("--steps", int, 5), ("--eps1", float, 0.15), ("--seed", int, 0),
    ("--out-dir", str, "out"))

_BENCH_BURST = 3


def _time_grid(grid: list, steps: int, eps1: float, seed: int) -> list:
    """Best wall-clock seconds per step for each (n, M) of grid; M >= n
    benches the full Euler step.

    The minimum over steps is the standard interference-robust estimator:
    scheduling noise only ever inflates a sample.  The cells take turns of up
    to _BENCH_BURST timed steps each, so a slow spell of the host falls on
    every cell alike instead of on the one that happens to be running.  A
    turn's first step brings the cell's arrays back into cache and is not
    timed.
    """
    spec = InteractionSpec(eps1=eps1, sigma_mode="stochastic")
    runs = []
    for n, M in grid:
        rng = np.random.default_rng(derive_seed(seed, n, M))
        ps = ParticleSet(rng.uniform(0.0, 1.0, size=(n, 1)))
        cfg = None if M >= n else MfiConfig(M=M, dt=0.5, t_final=1.0, seed=seed)
        runs.append([ps, cfg])
    best = [np.inf] * len(runs)
    k = 0
    for left in range(steps, 0, -_BENCH_BURST):
        burst = min(_BENCH_BURST, left)
        for c, run in enumerate(runs):
            ps, cfg = run
            for j in range(burst + 1):
                t0 = time.perf_counter()
                ps = (euler_step(ps, spec, 0.5) if cfg is None
                      else mfi_step(ps, spec, cfg, k + j))
                if j > 0:
                    best[c] = min(best[c], time.perf_counter() - t0)
            run[0] = ps
        k += burst + 1
    return best


def cmd_bench(p: dict) -> None:
    if p["steps"] < 1:
        raise ConfigError("--steps must be at least 1")
    grid = [(n, M) for n in p["n_list"] for M in p["M_list"]]
    rows = []
    for (n, M), sec in zip(grid, _time_grid(grid, p["steps"], p["eps1"], p["seed"])):
        rows.append([n, M, sec])
        print(f"n={n} M={M}: {sec * 1e3:.3f} ms/step")
    bio._write_rows(_out(p, "bench.csv"), ["n", "M", "seconds_per_step"],
                    [bio._columns(rows, "iif")])


# -- parser -------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, _SIMULATE, "integrate the particle system and "
                 "report clusters, moments and densities"),
    "shape": (cmd_shape, _SHAPE, "noise/confidence sweep for pattern "
              "detection (letter A or a segment file)"),
    "segment": (cmd_segment, _SEGMENT, "grayscale PGM segmentation"),
    "bench": (cmd_bench, _BENCH, "step-time scaling over an (n, M) grid; "
              "M >= n benches the full deterministic step"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcclust",
        description="Bounded-confidence clustering with static features: "
                    "steady states, shape detection, image segmentation.",
        epilog="Config files are 'key = value' lines with '#' comments; flags "
               "override the config file, which overrides defaults.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (func, params, text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config")
        for flag, kind, _, *text in params:
            sp.add_argument(flag, help=text[0] if text else None,
                            **({"type": kind} if callable(kind) else {"choices": kind}))
        sp.set_defaults(func=func, params=params)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = _resolve(args)
        args.func(p)
        bio.write_manifest(_out(p, "manifest.txt"), dict(p, command=args.cmd))
        return _EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ClusteringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
