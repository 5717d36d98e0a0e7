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
from .dynamics import (IntegratorConfig, default_merge_tol, extract_clusters,
                       euler_step, simulate, verify_steady_state)
from .imageseg import GrayImage, load_grayscale, segment, threshold, write_image
from .mfi import MfiConfig, mfi_simulate, mfi_step
from .model import ClusteringError, ConfigError, InteractionSpec, ParticleSet
from .rng import derive_seed
from .shapes import generate_letter_A, load_segments, sample_segments, sweep

_EXIT_OK, _EXIT_RUNTIME, _EXIT_USAGE = 0, 1, 2


def _resolve(args, defaults: dict) -> dict:
    """flags > config file (a manifest, say; '-' in keys read as '_') >
    defaults.  Returns the fully resolved dict.  A config value takes its
    flag's own type and choices; a bad one is a ConfigError."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = {k.replace("-", "_"): v for k, v in bio.read_manifest(args.config).items()}
    actions = {a.dest: a for a in args.parser._actions}
    out = {}
    for key, dflt in defaults.items():
        val = getattr(args, key, None)
        if val is None and key in cfg:
            action = actions[key]
            try:
                val = (action.type or str)(cfg[key])
                if action.choices is not None and val not in action.choices:
                    raise ValueError(f"choose from {', '.join(action.choices)}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{args.config}: {key} = {cfg[key]!r}: {exc}") from None
        if val is None:
            val = dflt
        out[key] = val
    return out


def _float_list(s: str):
    vals = [float(v) for v in s.replace(",", " ").split()]
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _int_list(s: str):
    vals = [int(v) for v in s.replace(",", " ").split()]
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _spec_from(p: dict) -> InteractionSpec:
    return InteractionSpec(eps1=p["eps1"], eps2=p["eps2"], norm1=p["norm1"],
                           norm2=p["norm2"], sigma_mode=p["mode"])


def _out(p: dict, name: str) -> str:
    os.makedirs(p["out_dir"], exist_ok=True)
    return os.path.join(p["out_dir"], name)


# -- simulate -----------------------------------------------------------------

_SIM_DEFAULTS = dict(n=50000, d1=1, init="uniform", init_file=None, eps1=None,
                     eps2=float("inf"), norm1="euclidean", norm2="euclidean",
                     mode=None, method="mfi", M=10, dt=0.5, t_final=20.0,
                     stop_tol=1e-8, record_every=1, seed=0, bins=100,
                     merge_tol=None, out_dir="out")


def _initial_particles(p: dict) -> ParticleSet:
    rng = np.random.default_rng(derive_seed(p["seed"], 0xA11CE))
    if p["init"] == "uniform":
        return ParticleSet(rng.uniform(0.0, 1.0, size=(p["n"], p["d1"])))
    if p["init"] == "gaussian-feature":
        x = rng.uniform(0.0, 1.0, size=(p["n"], 1))
        c = 0.5 + np.sqrt(0.3) * rng.standard_normal((p["n"], 1))
        return ParticleSet(x, c)
    if p["init"] == "file":
        if not p["init_file"]:
            raise ConfigError("--init file requires --init-file")
        return bio.read_particles_csv(p["init_file"])
    raise ConfigError(f"unknown init {p['init']!r}")


def cmd_simulate(args) -> int:
    p = _resolve(args, _SIM_DEFAULTS)
    if p["eps1"] is None:
        raise ConfigError("--eps1 is required")
    if p["mode"] is None:
        raise ConfigError("--mode is required (symmetric or stochastic)")
    spec = _spec_from(p)
    ps0 = _initial_particles(p)
    if p["method"] == "euler":
        tr = simulate(ps0, spec, IntegratorConfig(p["dt"], p["t_final"],
                                                  p["stop_tol"], p["record_every"]))
    elif p["method"] == "mfi":
        tr = mfi_simulate(ps0, spec, MfiConfig(p["M"], p["dt"], p["t_final"],
                                               p["seed"], p["record_every"]))
    else:
        raise ConfigError(f"unknown method {p['method']!r}")
    final = ps0.with_positions(tr.final_positions, tr.snapshots[-1][0])
    merge_tol = p["merge_tol"]
    if merge_tol is None:
        merge_tol = default_merge_tol(ps0, spec)
    cs = extract_clusters(final, merge_tol, spec)
    report = verify_steady_state(cs, spec)
    bio.write_trajectory_csv(_out(p, "trajectory.csv"), tr, ps0.features)
    bio.write_moments_csv(_out(p, "moments.csv"), tr.moments)
    bio.write_clusters_csv(_out(p, "clusters.csv"), cs)
    bio.write_steady_state_csv(_out(p, "steady_state.csv"), report)
    bio.write_density_csv(_out(p, "density.csv"), tr, p["bins"])
    p["command"] = "simulate"
    bio.write_manifest(_out(p, "manifest.txt"), p)
    print(f"{cs.n_clusters} clusters; steady state "
          f"{'PASS' if report.passed else 'FAIL'}; outputs in {p['out_dir']}")
    return _EXIT_OK


# -- shape --------------------------------------------------------------------

_SHAPE_DEFAULTS = dict(pattern="letterA", pattern_file=None, n=5000,
                       alpha_list=None, eps1_list=None, noise="uniform",
                       runs=1, seed=0, M=10, dt=0.5, t_final=50.0,
                       mode="stochastic", merge_tol=None, out_dir="out")


def cmd_shape(args) -> int:
    p = _resolve(args, _SHAPE_DEFAULTS)
    if not p["alpha_list"] or not p["eps1_list"]:
        raise ConfigError("--alpha-list and --eps1-list must be nonempty")
    if p["pattern"] == "letterA":
        pat = generate_letter_A(p["n"])
    elif p["pattern"] == "file":
        if not p["pattern_file"]:
            raise ConfigError("--pattern file requires --pattern-file")
        pat = sample_segments(load_segments(p["pattern_file"]), p["n"])
    else:
        raise ConfigError(f"unknown pattern {p['pattern']!r}")
    result = sweep(pat, p["alpha_list"], p["eps1_list"], p["runs"],
                   noise_dist=p["noise"], master_seed=p["seed"], M=p["M"],
                   dt=p["dt"], t_final=p["t_final"], sigma_mode=p["mode"],
                   merge_tol=p["merge_tol"])
    bio.write_sweep_csv(_out(p, "sweep.csv"), result)
    bio.write_sweep_summary_csv(_out(p, "summary.csv"), result)
    for r in result.rows:
        name = f"centers_a{r.alpha}_e{r.eps1}_r{r.run}.csv"
        bio._write_csv(_out(p, name), ["center_1", "center_2"],
                       ([*c] for c in r.centers))
    p["command"] = "shape"
    p["alpha_list"] = " ".join(map(str, p["alpha_list"]))
    p["eps1_list"] = " ".join(map(str, p["eps1_list"]))
    bio.write_manifest(_out(p, "manifest.txt"), p)
    best = [s for s in result.summary if s.best]
    for s in best:
        print(f"alpha={s.alpha:g}: best eps1={s.eps1:g} "
              f"mean E={s.mean_error:.3e} mean clusters={s.mean_clusters:g}")
    return _EXIT_OK


# -- segment ------------------------------------------------------------------

_SEG_DEFAULTS = dict(input=None, eps1=None, eps2=None, norm1="euclidean",
                     norm2="euclidean", mode="stochastic", threshold=None,
                     method="auto", M=10, dt=0.5, t_final=50.0, stop_tol=1e-8,
                     seed=0, merge_tol=None, format="P5", out_dir="out")


def cmd_segment(args) -> int:
    p = _resolve(args, _SEG_DEFAULTS)
    if not p["input"]:
        raise ConfigError("--input is required")
    if p["eps1"] is None or p["eps2"] is None:
        raise ConfigError("--eps1 and --eps2 are required")
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
    p["command"] = "segment"
    bio.write_manifest(_out(p, "manifest.txt"), p)
    levels = ", ".join(f"{v:.4g}" for v in sorted(sr.cluster_intensity))
    print(f"{sr.clusters.n_clusters} clusters; intensity levels [{levels}]; "
          f"outputs in {p['out_dir']}")
    return _EXIT_OK


# -- bench --------------------------------------------------------------------

_BENCH_DEFAULTS = dict(n_list=None, M_list=None, steps=5, eps1=0.15,
                       seed=0, out_dir="out")


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


def cmd_bench(args) -> int:
    p = _resolve(args, _BENCH_DEFAULTS)
    if not p["n_list"] or not p["M_list"]:
        raise ConfigError("--n-list and --M-list must be nonempty")
    if p["steps"] < 1:
        raise ConfigError("--steps must be at least 1")
    grid = [(n, M) for n in p["n_list"] for M in p["M_list"]]
    rows = []
    for (n, M), sec in zip(grid, _time_grid(grid, p["steps"], p["eps1"], p["seed"])):
        rows.append([n, M, sec])
        print(f"n={n} M={M}: {sec * 1e3:.3f} ms/step")
    bio._write_csv(_out(p, "bench.csv"), ["n", "M", "seconds_per_step"], rows)
    p["command"] = "bench"
    p["n_list"] = " ".join(str(v) for v in p["n_list"])
    p["M_list"] = " ".join(str(v) for v in p["M_list"])
    bio.write_manifest(_out(p, "manifest.txt"), p)
    return _EXIT_OK


# -- parser -------------------------------------------------------------------

_STOP_TOL_HELP = ("exact integrator (--method euler) only: stop once the max "
                  "per-step displacement drops below this; the subset "
                  "integrator (--method mfi) always runs to --t-final")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcclust",
        description="Bounded-confidence clustering with static features: "
                    "steady states, shape detection, image segmentation.",
        epilog="Config files are 'key = value' lines with '#' comments; flags "
               "override the config file, which overrides defaults.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="integrate the particle system and "
                         "report clusters, moments and densities")
    sim.add_argument("--config")
    sim.add_argument("--n", type=int)
    sim.add_argument("--d1", type=int)
    sim.add_argument("--init", choices=["uniform", "gaussian-feature", "file"])
    sim.add_argument("--init-file")
    sim.add_argument("--eps1", type=float)
    sim.add_argument("--eps2", type=float)
    sim.add_argument("--norm1", choices=["euclidean", "max", "manhattan"])
    sim.add_argument("--norm2", choices=["euclidean", "max", "manhattan"])
    sim.add_argument("--mode", choices=["symmetric", "stochastic"])
    sim.add_argument("--method", choices=["euler", "mfi"])
    sim.add_argument("--M", type=int)
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-final", type=float)
    sim.add_argument("--stop-tol", type=float, help=_STOP_TOL_HELP)
    sim.add_argument("--record-every", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--bins", type=int, help="density histogram bins per axis")
    sim.add_argument("--merge-tol", type=float)
    sim.add_argument("--out-dir")
    sim.set_defaults(func=cmd_simulate, parser=sim)

    sh = sub.add_parser("shape", help="noise/confidence sweep for pattern "
                        "detection (letter A or a segment file)")
    sh.add_argument("--config")
    sh.add_argument("--pattern", choices=["letterA", "file"])
    sh.add_argument("--pattern-file", help="one 'x0 y0 x1 y1' segment per line")
    sh.add_argument("--n", type=int)
    sh.add_argument("--alpha-list", type=_float_list)
    sh.add_argument("--eps1-list", type=_float_list)
    sh.add_argument("--noise", choices=["uniform", "gaussian"])
    sh.add_argument("--runs", type=int)
    sh.add_argument("--seed", type=int)
    sh.add_argument("--M", type=int)
    sh.add_argument("--dt", type=float)
    sh.add_argument("--t-final", type=float)
    sh.add_argument("--mode", choices=["symmetric", "stochastic"])
    sh.add_argument("--merge-tol", type=float)
    sh.add_argument("--out-dir")
    sh.set_defaults(func=cmd_shape, parser=sh)

    seg = sub.add_parser("segment", help="grayscale PGM segmentation")
    seg.add_argument("--config")
    seg.add_argument("--input", help="P2/P5 PGM file")
    seg.add_argument("--eps1", type=float)
    seg.add_argument("--eps2", type=float)
    seg.add_argument("--norm1", choices=["euclidean", "max", "manhattan"])
    seg.add_argument("--norm2", choices=["euclidean", "max", "manhattan"])
    seg.add_argument("--mode", choices=["symmetric", "stochastic"])
    seg.add_argument("--threshold", type=float,
                     help="also write a binary PGM; cluster means strictly "
                          "below the threshold go black")
    seg.add_argument("--method", choices=["auto", "euler", "mfi"])
    seg.add_argument("--M", type=int)
    seg.add_argument("--dt", type=float)
    seg.add_argument("--t-final", type=float)
    seg.add_argument("--stop-tol", type=float, help=_STOP_TOL_HELP)
    seg.add_argument("--seed", type=int)
    seg.add_argument("--merge-tol", type=float)
    seg.add_argument("--format", choices=["P2", "P5"])
    seg.add_argument("--out-dir")
    seg.set_defaults(func=cmd_segment, parser=seg)

    be = sub.add_parser("bench", help="step-time scaling over an (n, M) grid; "
                        "M >= n benches the full deterministic step")
    be.add_argument("--config")
    be.add_argument("--n-list", type=_int_list)
    be.add_argument("--M-list", type=_int_list)
    be.add_argument("--steps", type=int)
    be.add_argument("--eps1", type=float)
    be.add_argument("--seed", type=int)
    be.add_argument("--out-dir")
    be.set_defaults(func=cmd_bench, parser=be)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (ClusteringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
