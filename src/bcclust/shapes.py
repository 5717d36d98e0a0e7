"""Shape detection: polyline patterns, noise injection, detection error, sweeps."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, InteractionSpec, ParticleSet, _nearest_distances, _norm
from .dynamics import default_merge_tol, extract_clusters
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
    otherwise endpoints are included.
    """
    segments = tuple((tuple(map(float, a)), tuple(map(float, b))) for a, b in segments)
    if n < len(segments):
        raise ConfigError(f"need at least {len(segments)} points, got {n}")
    starts = np.array([s[0] for s in segments])
    ends = np.array([s[1] for s in segments])
    lengths = _norm((ends - starts).T, "euclidean")
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
    """Additive noise x + alpha * theta, resampled until inside [0,1]^2.

    The pairs theta come from one stream: each point takes the next pair,
    and a rejected point takes the next one again.  Pairs are drawn in
    blocks, since one Generator call for 2k values returns the same doubles
    as k calls for 2.  Each pass accepts, all at once, the run of points
    whose candidates from the following pairs lie inside; only a rejected
    point is retried pair by pair.
    """
    rng = np.random.default_rng(ns.seed)
    if ns.dist == "uniform":
        def draw(k): return rng.uniform(-1.0, 1.0, size=(k, 2))
    else:
        def draw(k): return rng.standard_normal((k, 2))
    x, alpha = pat.points, ns.alpha
    n = len(x)
    out = np.empty_like(x)
    theta = draw(n)
    i = p = 0
    width = n  # points tried per pass: twice the last accepted run, plus slack
    while i < n:
        if p == len(theta):
            theta, p = draw(n - i), 0
        m = min(width, n - i, len(theta) - p)
        cand = x[i:i + m] + alpha * theta[p:p + m]
        inside = ((cand >= 0.0) & (cand <= 1.0)).all(axis=1)
        run = m if inside.all() else int(inside.argmin())
        out[i:i + run] = cand[:run]
        i, p = i + run, p + run
        width = 2 * run + 32
        if run < m:  # point i rejected theta[p]: retry it on the next pairs
            xi, yi = x[i].tolist()
            while True:
                p += 1
                if p == len(theta):
                    theta, p = draw(n - i), 0
                tx, ty = theta[p].tolist()
                cx, cy = xi + alpha * tx, yi + alpha * ty
                if 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0:
                    break
            out[i] = cx, cy
            i, p = i + 1, p + 1
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
    pat, alpha, eps1, run, seed, noise_dist, M, dt, t_final, sigma_mode, merge_tol = task
    noisy = perturb(pat, NoiseSpec(alpha, noise_dist, derive_seed(seed, 1)))
    ps0 = ParticleSet(noisy)
    spec = InteractionSpec(eps1=eps1, sigma_mode=sigma_mode)
    cfg = MfiConfig(M=M, dt=dt, t_final=t_final, seed=derive_seed(seed, 2))
    tr = mfi_simulate(ps0, spec, cfg)
    tol = default_merge_tol(ps0, spec) if merge_tol is None else merge_tol
    cs = extract_clusters(tr.final, tol, spec)
    return SweepRow(alpha, eps1, run, seed, error_measure(cs, pat), cs.n_clusters,
                    cs.centers)


def sweep(pat: Pattern, alphas, eps1_list, runs_per_cell: int,
          noise_dist: str = "uniform", master_seed: int = 0,
          M: int = 10, dt: float = 0.5, t_final: float = 50.0,
          sigma_mode: str = "stochastic", merge_tol: float | None = None) -> SweepResult:
    """Noise/confidence sweep: perturb, integrate, extract, score.

    Per-cell seeds derive from (master_seed, alpha index, eps index, run), so
    identical seeds reproduce identical tables.  The runs are independent and
    are spread over worker processes, one per CPU available to this process
    (at most one per run); each worker holds one run at a time, so peak memory
    is that of one run per worker.  Results are taken in run order, so the
    output does not depend on how many workers there are.  Workers start
    from a fresh interpreter that imports the caller's main module, so a
    script that calls sweep does so under `if __name__ == "__main__":`.
    """
    alphas = list(alphas)
    eps1_list = list(eps1_list)
    if not alphas or not eps1_list or runs_per_cell < 1:
        raise ConfigError("alphas, eps1_list and runs_per_cell must be nonempty")
    if len(set(alphas)) < len(alphas) or len(set(eps1_list)) < len(eps1_list):
        raise ConfigError("alphas and eps1_list must not repeat a value")
    for alpha in alphas:  # each cell's settings are checked before any run
        NoiseSpec(alpha, noise_dist)
    for eps1 in eps1_list:
        InteractionSpec(eps1=eps1, sigma_mode=sigma_mode)
    MfiConfig(M=M, dt=dt, t_final=t_final, seed=master_seed)
    tasks = [(pat, alpha, eps1, run, derive_seed(master_seed, ai, ei, run),
              noise_dist, M, dt, t_final, sigma_mode, merge_tol)
             for ai, alpha in enumerate(alphas)
             for ei, eps1 in enumerate(eps1_list)
             for run in range(runs_per_cell)]
    workers = _worker_count(len(tasks))
    if workers == 1:
        rows = list(map(_run_cell, tasks))
    else:
        # Imported here: bcclust.cli imports this module, and a fresh import
        # of the process pool would add to every command's start-up.  Workers
        # are spawned, not forked: this process may already run BLAS threads.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as ex:
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
