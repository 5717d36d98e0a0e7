"""Deterministic full-interaction integrator, cluster extraction and steady-state checks.

A ClusterSet is one labelling of the particles plus per-cluster columns
(weights, centers, feature mean, min and max); a SteadyStateReport holds its
violating cluster pairs as one record array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .cells import (_box_sums, _boxes, _grid, _label_runs, _range_pairs, candidate_pool,
                    components)
from .model import (
    ConfigError,
    InteractionSpec,
    ParticleSet,
    _bound,
    _gate,
    _gates,
    _nearest_distances,
    _norm,
    _root,
    _row_batches,
    bbox_diameter,
)
from .moments import MomentRecord


@dataclass(frozen=True)
class IntegratorConfig:
    """Explicit Euler configuration.

    dt <= 1 keeps every update a convex combination of the previous positions.
    The run stops early once the max per-step displacement (norm1 over each
    particle) drops below stop_tol.
    """

    dt: float
    t_final: float
    stop_tol: float = 1e-8
    record_every: int = 1

    def __post_init__(self):
        _check_schedule(self)
        if not self.stop_tol >= 0:
            raise ConfigError("stop_tol must be nonnegative")


def _check_schedule(cfg) -> None:
    """The checks both integrators' configs share: dt, t_final, record_every.
    Each is written so that a nan fails it."""
    if not 0 < cfg.dt <= 1:
        raise ConfigError(f"dt must be in (0, 1], got {cfg.dt}")
    if not cfg.t_final >= cfg.dt:
        raise ConfigError("t_final must be at least dt")
    if cfg.t_final == np.inf:
        raise ConfigError("t_final must be finite")
    if not cfg.record_every >= 1:
        raise ConfigError("record_every must be a positive integer")


def _n_steps(cfg) -> int:
    """The steps of a run under either integrator's config: t_final / dt,
    rounded, and at least one."""
    return max(1, int(round(cfg.t_final / cfg.dt)))


def _end_state_only(cfg):
    """A checked config of either integrator, set to record no state between
    the start and the end of its run."""
    return replace(cfg, record_every=_n_steps(cfg))


@dataclass
class Trajectory:
    """A run's record.  snapshots holds its recorded states as (t, read-only
    positions), in strictly increasing times, when the run kept them; a run
    given a sink hands each state to the sink instead and keeps none, so
    snapshots is then empty.  moments and final are kept either way."""

    snapshots: list
    moments: MomentRecord
    final: ParticleSet  # the end state, with its features and t
    terminated_early: bool = False
    reason: str | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class ClusterSet:
    """The clusters of a particle set, as one labelling and per-cluster columns.

    Particle j belongs to cluster labels[j]; clusters are numbered 0..m-1 by
    their lowest member.  Row c of each (m, ...) column describes cluster c.
    """

    labels: np.ndarray  # (n,) cluster of each particle
    weights: np.ndarray  # (m,) fraction of the particles in each cluster
    centers: np.ndarray  # (m, d1) mean position
    feature_mean: np.ndarray  # (m, d2)
    feature_min: np.ndarray  # (m, d2)
    feature_max: np.ndarray  # (m, d2)
    features: np.ndarray  # (n, d2) static features of the source particles

    @property
    def n_clusters(self) -> int:
        return self.weights.shape[0]


@dataclass
class SteadyStateReport:
    """violations: a record array with fields i, k, center_distance and
    min_feature_gap, one row per violating cluster pair."""

    passed: bool
    violations: np.recarray


_CELL_MEMBERS = 8  # fewest members a cell, on average, for which the grid pays


def _drift(ps: ParticleSet, spec: InteractionSpec) -> np.ndarray:
    """Velocity of every particle under the bounded-confidence interaction:
    mean - x in both modes when no group gates (model._gates), else sums
    over the cells of cells._grid (_cell_sums), or over one cell where the
    grid cannot pay (n(n+1)/2 pairs fit a tile, or < _CELL_MEMBERS a cell)."""
    x, n = ps.positions, ps.n
    groups = _gates(x, ps.features, spec)
    if not groups:
        return x.mean(axis=0) - x
    fits = n * (n + 1) // 2 <= model._TILE_PAIRS
    grid = None if fits else _grid(groups, n, False, n // _CELL_MEMBERS)
    xe = np.column_stack([x, np.ones(n)])  # a count column beside the positions
    if grid is None:
        order, acc = np.arange(n), np.zeros_like(xe)
        _gated_sums(groups, xe, order, slice(0, n), slice(0, n), True, acc)
    else:
        order, xe = grid[0], xe[grid[0]]
        acc = _cell_sums(groups, xe, *grid)
    deg = acc[:, -1:]
    v = np.empty_like(x)
    v[order] = (acc[:, :-1] - deg * xe[:, :-1]) / (n if spec.sigma_mode == "symmetric" else deg)
    return v


def _cell_sums(groups, xe, order, start, a, b):
    """Gated sums of the rows of xe (positions and a count column, in the
    cell order of cells._grid: order, start, cell pairs a < b within
    reach).  A cell pair, a cell with itself too, is decided on its boxes
    by cells._box_sums.  It passes whole when its far corners lie within
    eps in every group: each cell adds the other's sum to its members.  It
    fails whole when its boxes are more than eps apart in some group, as
    pairs beyond reach do.  _gated_sums gates the rest."""
    m, size = start.size, np.diff(start, append=xe.shape[0])
    a, b = np.concatenate([np.arange(m), a]), np.concatenate([np.arange(m), b])
    spread, apart = [], np.zeros(a.size, dtype=bool)
    for points, eps, norm in groups:
        lo, hi = _boxes(points, order, start)
        spread.append(_box_sums(lo, hi, a, b, norm, far=True) > _bound(eps, norm))
        apart |= _box_sums(lo, hi, a, b, norm) > _bound(eps, norm)
    whole = ~np.logical_or.reduce(spread)
    twin = whole & (a != b)  # adds a's sum to b's members too
    to, src = np.concatenate([a[whole], b[twin]]), np.concatenate([b[whole], a[twin]])
    sums = np.add.reduceat(xe, start)[src]
    acc = np.repeat(np.stack([np.bincount(to, c, minlength=m) for c in sums.T], 1), size, 0)
    left = np.flatnonzero(~(whole | apart))
    left = left[np.argsort(a[left], kind="stable")]  # a cell's pair with itself first
    a, b, spread, ends = a[left], b[left], [s[left] for s in spread], start + size
    firsts = np.flatnonzero(np.diff(a, prepend=-1)).tolist()
    for k0, k1 in zip(firsts, firsts[1:] + [a.size]):
        c, parts = a[k0], b[k0:k1]
        cols = _range_pairs(start[None, parts], ends[None, parts])[1]
        _gated_sums([g for g, s in zip(groups, spread) if s[k0:k1].any()], xe, order,
                    slice(start[c], ends[c]), cols, parts[0] == c, acc)
    return acc


def _gated_sums(groups, xe, order, rows, cols, own, acc):
    """Add to acc the gated sums between rows (a slice) and cols (a slice or
    indices) of xe, both ways; order[r] is row r's particle.  With own, cols
    begins with the rows, whose pairs are gated on their upper triangle
    only.  Row tiles of at most model._TILE_PAIRS pairs (or one row) give
    the rows' sums (g @ xe, leading block made symmetric) and, transposed
    past that block, the columns', scattered once.  Both go through BLAS."""
    xc, jc = xe[cols], order[cols]
    ca = np.zeros_like(xc)
    r = rows.start
    while r < rows.stop:
        c0 = r - rows.start if own else 0
        nb = min(rows.stop - r, max(1, model._TILE_PAIRS // (jc.size - c0)))
        i, e = order[r:r + nb], nb if own else 0  # e: the tile's columns that are its rows
        t = np.zeros((nb, jc.size - c0), dtype=bool)
        if own:
            iu, ju = _range_pairs(np.arange(nb)[:, None], np.full((nb, 1), nb))
            t[iu, ju] = _gate(groups, i[iu], i[ju])
            np.logical_or(t[:, :nb], t[:, :nb].T, out=t[:, :nb])
        if jc.size > c0 + e:
            t[:, e:] = _gate(groups, i[:, None], jc[None, c0 + e:])
        g = t.astype(float)
        acc[r:r + nb] += g @ xc[c0:]
        ca[c0 + e:] += g[:, e:].T @ xe[r:r + nb]
        r += nb
    acc[cols] += ca


def euler_step(ps: ParticleSet, spec: InteractionSpec, dt: float) -> ParticleSet:
    """One synchronous explicit Euler step.  Features and t advance accordingly.
    Sums over decided cell pairs take a fixed order, gated tiles BLAS's."""
    if not 0 < dt <= 1:
        raise ConfigError(f"dt must be in (0, 1], got {dt}")
    x_new = ps.positions + dt * _drift(ps, spec)
    return ps.with_positions(x_new, ps.t + dt)


def _run(ps0, spec, cfg, step_fn, metadata, stop_tol=None, sink=None):
    """Shared driver for the deterministic and Monte Carlo integrators.

    With stop_tol set, the run ends once the max per-step displacement drops
    below it; with None it always runs to cfg.t_final.  The initial state,
    every cfg.record_every-th step and the end state are recorded: their
    moments are kept, and each (t, positions) goes to sink(t, positions) as
    it is taken, or, with no sink, to Trajectory.snapshots.  With a sink the
    run holds one state at a time, O(n) memory rather than O(n * steps).
    """
    snapshots = []
    record = MomentRecord.from_snapshot(ps0)
    put = sink if sink is not None else (lambda t, x: snapshots.append((t, x)))
    put(ps0.t, ps0.positions)
    last_t = ps0.t
    ps = ps0
    terminated = False
    reason = None
    for k in range(_n_steps(cfg)):
        nxt = step_fn(ps, k)
        if stop_tol is not None:
            disp = _norm((nxt.positions - ps.positions).T, spec.norm1)
            max_disp = float(disp.max())
        ps = nxt
        if (k + 1) % cfg.record_every == 0:
            put(ps.t, ps.positions)
            last_t = ps.t
            record.append(ps)
        if stop_tol is not None and max_disp < stop_tol:
            terminated = True
            reason = f"max displacement {max_disp:.3e} below stop_tol at t={ps.t:g}"
            break
    if last_t != ps.t:
        put(ps.t, ps.positions)
        record.append(ps)
    return Trajectory(snapshots, record, ps, terminated, reason, metadata)


def simulate(ps0: ParticleSet, spec: InteractionSpec, cfg: IntegratorConfig,
             sink=None) -> Trajectory:
    """Iterate euler_step to t_final (or early stop), recording snapshots and moments.

    Nothing is kept between steps; each bins the particles afresh and gates
    only what its cells leave undecided (see _drift).  sink, if given, takes
    each recorded (t, positions) as the run goes, and Trajectory.snapshots
    stays empty (see _run); the simulate command passes io.SnapshotSink,
    which writes them from a forked process.
    """
    meta = {"method": "euler", "dt": cfg.dt, "t_final": cfg.t_final,
            "sigma_mode": spec.sigma_mode}
    return _run(ps0, spec, cfg, lambda ps, k: euler_step(ps, spec, cfg.dt), meta,
                cfg.stop_tol, sink)


def default_merge_tol(ps: ParticleSet, spec: InteractionSpec) -> float:
    """1e-3 times the position-domain diameter.

    Pass the INITIAL particle set: the initial data spans the domain, while a
    converged state has collapsed onto isolated points and its bounding box no
    longer reflects the domain scale.
    """
    diam = bbox_diameter(ps.positions, spec.norm1)
    return 1e-3 * diam if diam > 0 else 1e-9


def _check_merge_tol(merge_tol: float) -> float:
    """merge_tol, if it is positive (a nan is not).  Callers check a given
    tolerance before their run, and extract_clusters checks it again."""
    if not merge_tol > 0:
        raise ConfigError(f"merge_tol must be positive, got {merge_tol}")
    return merge_tol


def extract_clusters(ps: ParticleSet, merge_tol: float,
                     spec: InteractionSpec) -> ClusterSet:
    """Connected components of the merge graph, numbered by their lowest
    member, with their weights, centers and feature statistics as columns.

    Edge (i, j) iff position distance <= merge_tol and feature distance <= eps2,
    under the direct gate model._gate, ties included.  cells.components
    finds them on cells._grid, the grid of the exact Euler step.
    Callers take merge_tol from default_merge_tol of the initial set, not
    of the collapsed state passed here.
    """
    _check_merge_tol(merge_tol)
    labels = components(_gates(ps.positions, ps.features, replace(spec, eps1=merge_tol)),
                        ps.n)
    size = np.bincount(labels)
    # bincount adds each cluster's members in index order, as mean(axis=0)
    # over the member rows does when they have two or more columns.  A sum
    # near the largest double can overflow where its mean does not; such a
    # mean is summed again from each member's share x / size.
    def mean(a):
        sums = np.array([np.bincount(labels, col) for col in a.T])
        out = sums.reshape(-1, size.size).T / size[:, None]
        for c in np.flatnonzero(~np.isfinite(out).all(axis=0)):
            shares = np.bincount(labels, a[:, c] / size[labels])
            out[:, c] = np.where(np.isfinite(out[:, c]), out[:, c], shares)
        return out
    return ClusterSet(labels, size / ps.n, mean(ps.positions), mean(ps.features),
                      *_boxes(ps.features, *_label_runs(labels)), ps.features)


def _sorted_gap(a: np.ndarray, b: np.ndarray, norm: str) -> float:
    """Minimum cross distance between two sorted 1D arrays."""
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    idx = np.searchsorted(b, a)
    return float(min(_norm([a - b[np.clip(at, 0, b.size - 1)]], norm).min()
                     for at in (idx - 1, idx)))


def verify_steady_state(cs: ClusterSet, spec: InteractionSpec) -> SteadyStateReport:
    """Pairwise stationarity test for an extracted cluster configuration.

    A pair of clusters passes when their centers are farther than eps1 apart or
    the minimum gap between their member features exceeds eps2.  An empty
    violation array characterizes a stationary sum of Dirac concentrations.
    Violations come in row-major order of the pairs (i, k), i < k.

    Center pairs come from their candidate pool at eps1, so memory grows with
    the candidate violations, not with m^2 or with the pairs within eps1.
    """
    m, d2 = cs.n_clusters, cs.features.shape[1]
    centers, fmin, fmax = cs.centers, cs.feature_min, cs.feature_max
    def box_gap(i, k):
        # the box gap equals the member gap when both clusters' features
        # are single points
        return _box_sums(fmin, fmax, i, k, spec.norm2)
    pool = candidate_pool(ParticleSet(centers), InteractionSpec(spec.eps1, norm1=spec.norm1))
    keys = []
    for rows in _row_batches((pool.hi - pool.lo).sum(axis=1)):
        r, at = _range_pairs(pool.lo[rows], pool.hi[rows])
        i, k = r + rows.start, pool.order[at]
        near = k > i
        if not pool.exact:
            near[near] = pool.gate(i[near], k[near])
        if d2:
            near[near] = box_gap(i[near], k[near]) <= _bound(spec.eps2, spec.norm2)
        # batches come in row order, and each row's pairs in pool order
        keys.append(np.sort(i[near] * m + k[near]))
    ii, kk = np.divmod(np.concatenate(keys), m)
    gap = _root(box_gap(ii, kk), spec.norm2) if d2 else np.zeros(ii.size)
    if d2 and ii.size:
        point = (fmin == fmax).all(axis=1)
        spread = np.flatnonzero(~(point[ii] & point[kk]))
        # each cluster's members are a run of f, sorted by their first feature
        f = cs.features[np.lexsort((cs.features[:, 0], cs.labels))]
        run = np.append(_label_runs(cs.labels)[1], f.shape[0]).tolist()
        def pair_gap(a, b):
            if d2 == 1:
                return _sorted_gap(a[:, 0], b[:, 0], spec.norm2)
            return float(_nearest_distances(a, b, spec.norm2).min())
        gap[spread] = [pair_gap(f[run[i]:run[i + 1]], f[run[k]:run[k + 1]])
                       for i, k in zip(ii[spread].tolist(), kk[spread].tolist())]
    cdist = _norm((centers[ii] - centers[kk]).T, spec.norm1)
    keep = gap <= spec.eps2
    violations = np.rec.fromarrays([ii[keep], kk[keep], cdist[keep], gap[keep]],
                                   names="i,k,center_distance,min_feature_gap")
    return SteadyStateReport(passed=not len(violations), violations=violations)
