"""Shape detection: polyline patterns, noise injection, detection error, sweeps."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .model import (ConfigError, InteractionSpec, ParticleSet, _may_fork, _nearest_distances,
                    _norm)
from .dynamics import _check_merge_tol, _end_state_only, default_merge_tol, extract_clusters
from .mfi import MfiConfig, mfi_simulate
from .rng import derive_seed

# Default letter-A geometry: feet at (0.1, 0.1) and (0.9, 0.1), apex at
# (0.5, 0.9), crossbar joining the stroke midpoints at height 0.5.
LETTER_A_SEGMENTS = (
    ((0.1, 0.1), (0.5, 0.9)),
    ((0.9, 0.1), (0.5, 0.9)),
    ((0.3, 0.5), (0.7, 0.5)),
)


@dataclass(frozen=True)
class Pattern:
    """Discrete point set sampled from a list of segments in [0,1]^2."""

    segments: tuple
    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    alpha: float
    dist: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ConfigError(f"noise fraction alpha must be finite and positive, "
                              f"got {self.alpha}")
        if self.dist not in ("uniform", "gaussian"):
            raise ConfigError("noise dist must be 'uniform' or 'gaussian'")


def sample_segments(segments, n: int) -> Pattern:
    """n points over the segments, allocated by length, equally spaced.

    Every segment receives at least one point; ties in the largest-remainder
    allocation go to earlier segments.  A single point sits at the midpoint,
    otherwise endpoints are included.  An endpoint that is not finite or lies
    outside [0,1]^2 is a ConfigError.
    """
    segments = tuple((tuple(map(float, a)), tuple(map(float, b))) for a, b in segments)
    if n < len(segments):
        raise ConfigError(f"need at least {len(segments)} points, got {n}")
    ends = np.array(segments).reshape(-1, 4)  # one x0 y0 x1 y1 row per segment
    if not ((ends >= 0) & (ends <= 1)).all():  # nan fails too
        raise ConfigError("pattern segment endpoints must be finite and lie in [0,1]^2")
    lengths = _norm((ends[:, 2:] - ends[:, :2]).T, "euclidean")
    total = lengths.sum()
    if total <= 0:
        raise ConfigError("pattern has zero total length")
    quota = lengths / total * n
    counts = np.maximum(1, np.floor(quota).astype(int))
    while counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    remainder = quota - counts
    while counts.sum() < n:
        k = int(np.argmax(remainder))
        counts[k] += 1
        remainder[k] = -np.inf
    pts = []
    for (a, b), m in zip(segments, counts):
        a, b = np.asarray(a), np.asarray(b)
        ts = np.array([0.5]) if m == 1 else np.linspace(0.0, 1.0, m)
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return Pattern(segments, np.vstack(pts))


def generate_letter_A(n: int) -> Pattern:
    """The three-stroke letter 'A' sampled to n points."""
    return sample_segments(LETTER_A_SEGMENTS, n)


def load_segments(path) -> tuple:
    """Read a pattern file: one 'x0 y0 x1 y1' segment per line, '#' comments."""
    segs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 reals, got {len(parts)}")
            x0, y0, x1, y1 = map(float, parts)
            segs.append(((x0, y0), (x1, y1)))
    if not segs:
        raise ConfigError(f"{path}: no segments found")
    return tuple(segs)


def perturb(pat: Pattern, ns: NoiseSpec) -> np.ndarray:
    """Additive noise x + alpha * theta, conditioned on lying in [0,1]^2.

    Each point takes its pair theta from one block of n pairs, uniform on
    [-1,1]^2 or standard normal.  A point whose candidate leaves [0,1]^2 is
    redrawn once from the law that retrying until a candidate lies inside
    gives (Devroye 1986, ch. II): uniform on [x-alpha, x+alpha]^2 within
    [0,1]^2, or per coordinate N(x, alpha^2) truncated to [0,1].
    """
    rng = np.random.default_rng(ns.seed)
    x, alpha = pat.points, ns.alpha
    uniform = ns.dist == "uniform"
    theta = rng.uniform(-1.0, 1.0, size=x.shape) if uniform else rng.standard_normal(x.shape)
    # With alpha near the largest double a candidate can overflow to +-inf.
    # It then leaves [0,1]^2 and is redrawn below, so the overflow is no fault.
    with np.errstate(over="ignore"):
        out = x + alpha * theta
    redraw = ~((out >= 0.0) & (out <= 1.0)).all(axis=1)
    xr = x[redraw]  # every pattern point lies in [0,1]^2, so both laws exist
    if uniform:
        lo, hi = np.maximum(xr - alpha, 0.0), np.minimum(xr + alpha, 1.0)
        out[redraw] = np.clip(rng.uniform(lo, hi), lo, hi)  # lo + (hi-lo)*u may round past hi
    else:
        out[redraw] = _truncated_normal(rng, xr, alpha)
    return out


def _truncated_normal(rng, mean: np.ndarray, sd: float) -> np.ndarray:
    """N(mean, sd^2) truncated to [0,1] for each entry of mean, all in
    [0,1], by vectorised rejection an entry at a time (Robert, Stat. Comput.
    5, 1995): from the normal while [0,1] spans sqrt(2 pi) sd or more, else
    from U[0,1] kept with probability exp(-((y - mean) / sd)^2 / 2).  Either
    keeps a draw with probability above 0.49, whatever sd."""
    out = np.empty_like(mean)
    todo = np.arange(mean.size)
    normal = 1.0 / sd >= np.sqrt(2 * np.pi)
    while todo.size:
        m = mean.flat[todo]
        if normal:
            y = m + sd * rng.standard_normal(m.size)
            keep = (y >= 0.0) & (y <= 1.0)
        else:
            y = rng.uniform(0.0, 1.0, m.size)
            keep = rng.uniform(0.0, 1.0, m.size) < np.exp(-0.5 * ((y - m) / sd) ** 2)
        out.flat[todo[keep]] = y[keep]
        todo = todo[~keep]
    return out


def error_measure(cs, pat: Pattern) -> float:
    """Mean over clusters of the minimum 2-norm distance to the pattern points.

    The distances are taken in row tiles of model._TILE_PAIRS coordinate
    differences, so memory does not grow with clusters times pattern points.
    """
    if cs.n_clusters < 1:
        raise ConfigError("empty cluster set")
    return float(_nearest_distances(cs.centers, pat.points, "euclidean").mean())


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    eps1: float
    run: int
    seed: int
    error: float
    n_clusters: int
    centers: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SweepSummary:
    alpha: float
    eps1: float
    mean_error: float
    mean_clusters: float
    best: bool  # eps1 minimizing the mean error for this alpha


@dataclass
class SweepResult:
    rows: list
    summary: list


def _worker_count(n_tasks: int) -> int:
    """One worker per CPU this process may run on, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _run_cell(task) -> SweepRow:
    """One sweep run: perturb, integrate, extract, score.

    Module-level with picklable arguments, so worker processes can run it
    under any start method.
    """
    pat, run, seed, noise, spec, cfg, merge_tol = task
    ps0 = ParticleSet(perturb(pat, noise))
    tol = default_merge_tol(ps0, spec) if merge_tol is None else merge_tol
    cs = extract_clusters(mfi_simulate(ps0, spec, cfg).final, tol, spec)
    return SweepRow(noise.alpha, spec.eps1, run, seed, error_measure(cs, pat),
                    cs.n_clusters, cs.centers)


def sweep(pat: Pattern, alphas, eps1_list, runs_per_cell: int,
          noise_dist: str = "uniform", master_seed: int = 0,
          M: int = 10, dt: float = 0.5, t_final: float = 50.0,
          sigma_mode: str = "stochastic", merge_tol: float | None = None) -> SweepResult:
    """Noise/confidence sweep: perturb, integrate, extract, score.

    Per-cell seeds derive from (master_seed, alpha index, eps index, run), so
    identical seeds reproduce identical tables.  Each run's settings are
    built, and so checked, before any run starts; a run records only its end
    state.  The runs are spread over worker processes, one per CPU available
    to this process (at most one per run); each worker holds one run at a
    time, so peak memory is that of one run per worker.  Results are taken in
    run order, so the output does not depend on how many workers there are.
    Workers are forked where model._may_fork allows it (fork is the default
    start method, as on Linux before Python 3.14, and this process runs one
    Python thread), the rule simulate's snapshot writer follows too, and
    spawned otherwise.  Forked workers inherit this process with numpy and
    bcclust already imported.  Forking was checked only with the OpenBLAS
    that numpy's wheels bundle, which stops its threads around a fork; a BLAS
    built on GNU OpenMP can hang in a forked child, and a caller using one
    should start its workers by spawn (multiprocessing.set_start_method).
    A spawned worker starts a fresh interpreter that imports the caller's
    main module, so a script that calls sweep does so under
    `if __name__ == "__main__":`.
    """
    alphas = list(alphas)
    eps1_list = list(eps1_list)
    if not alphas or not eps1_list or runs_per_cell < 1:
        raise ConfigError("alphas, eps1_list and runs_per_cell must be nonempty")
    if len(set(alphas)) < len(alphas) or len(set(eps1_list)) < len(eps1_list):
        raise ConfigError("alphas and eps1_list must not repeat a value")
    if merge_tol is not None:
        _check_merge_tol(merge_tol)
    specs = [InteractionSpec(eps1=eps1, sigma_mode=sigma_mode) for eps1 in eps1_list]
    runs = [(alpha, spec, run, derive_seed(master_seed, ai, ei, run))
            for ai, alpha in enumerate(alphas) for ei, spec in enumerate(specs)
            for run in range(runs_per_cell)]
    tasks = [(pat, run, seed, NoiseSpec(alpha, noise_dist, derive_seed(seed, 1)), spec,
              _end_state_only(MfiConfig(M, dt, t_final, derive_seed(seed, 2))), merge_tol)
             for alpha, spec, run, seed in runs]
    workers = _worker_count(len(tasks))
    if workers == 1:
        rows = list(map(_run_cell, tasks))
    else:
        # Imported here: bcclust.cli imports this module, and a fresh import
        # of the process pool would add to every command's start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = None if _may_fork() else multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            rows = list(ex.map(_run_cell, tasks))
    cells = (rows[i:i + runs_per_cell] for i in range(0, len(rows), runs_per_cell))
    summary = []
    for alpha in alphas:
        cell_means = [(eps1, float(np.mean([r.error for r in cell])),
                       float(np.mean([r.n_clusters for r in cell])))
                      for eps1, cell in zip(eps1_list, cells)]
        best_eps = min(cell_means, key=lambda c: c[1])[0]
        for eps1, mean_err, mean_cnt in cell_means:
            summary.append(SweepSummary(alpha, eps1, mean_err, mean_cnt,
                                        best=eps1 == best_eps))
    return SweepResult(rows, summary)
