"""Deterministic full-interaction integrator, cluster extraction and steady-state checks.

A ClusterSet is one labelling of the particles plus per-cluster columns
(weights, centers, feature mean, min and max); a SteadyStateReport holds its
violating cluster pairs as one record array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cells import _boxes, _label_runs, _range_pairs, candidate_pool, components
from .model import (
    ConfigError,
    InteractionSpec,
    ParticleSet,
    _bound,
    _gates,
    _nearest_distances,
    _norm,
    _power_sum,
    _root,
    _row_batches,
    _upper_tiles,
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
    snapshots: list  # (t, read-only positions), strictly increasing times
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


def _feature_blocks(ps: ParticleSet, spec: InteractionSpec) -> list:
    """The static-feature components of ps, the independent blocks of the drift.

    Two particles in different components never interact, and features never
    move, so the components hold for a whole run.  They are found by
    cells.components for any number of features.  Returns the sorted indices
    of each component of two or more particles, in the order of their lowest
    members.  A particle alone in its component has zero drift and is left
    out.
    """
    groups = _gates(ps.positions, ps.features, replace(spec, eps1=np.inf))
    order, starts = _label_runs(components(groups, ps.n))
    return [idx for idx in np.split(order, starts[1:]) if idx.size > 1]


def _dense_drift(xc: np.ndarray, gates: list, spec: InteractionSpec, n: int) -> np.ndarray:
    """Drift of one block of an n-particle set, its positions xc and its
    groups from model._gates.

    The gate is symmetric, so model._upper_tiles gates each of the block's
    m(m+1)/2 unordered pairs once.  A tile's float gate g over rows r0:r1
    and columns r0:m, its leading block made symmetric, gives its own rows'
    gated sums (g @ xc[r0:]) and adds its rows to the sums of the columns
    beyond (g[:, b:].T @ xc[r0:r1]); the degrees are its row and column
    sums, exact in floats."""
    m = xc.shape[0]
    acc = np.zeros_like(xc)
    deg = np.zeros(m)
    for r0, t in _upper_tiles(gates, m):
        b = t.shape[0]
        r1 = r0 + b
        lead = t[:, :b]
        np.logical_or(lead, lead.T, out=lead)
        g = t.astype(float)
        acc[r0:r1] += g @ xc[r0:]
        deg[r0:r1] += g.sum(axis=1)
        if r1 < m:
            beyond = g[:, b:]
            acc[r1:] += beyond.T @ xc[r0:r1]
            deg[r1:] += beyond.sum(axis=0)
    sigma = float(n) if spec.sigma_mode == "symmetric" else deg[:, None]
    return (acc - deg[:, None] * xc) / sigma


def _drift(ps: ParticleSet, spec: InteractionSpec,
           blocks: list | None = None) -> np.ndarray:
    """Velocity of every particle under the bounded-confidence interaction.

    The drift splits into independent blocks, one per static-feature
    component (see _feature_blocks); blocks may carry them precomputed, since
    callers stepping in a loop find them once.  A block in which model._gates
    finds no group interacts pair by pair, and its velocity collapses to
    (mean_C - x), times |C|/n in symmetric mode: O(|C|).  Any other block is
    gated densely by those groups, each of its |C|(|C|+1)/2 unordered pairs
    once, in tiles of the upper triangle (see _dense_drift): O(|C|^2) time.
    """
    x = ps.positions
    if blocks is None:
        blocks = _feature_blocks(ps, spec)
    v = np.zeros_like(x)
    for idx in blocks:
        xc = x[idx]
        gates = _gates(xc, ps.features[idx], spec)
        if not gates:
            vc = xc.mean(axis=0)[None, :] - xc
            if spec.sigma_mode == "symmetric":
                vc *= idx.size / ps.n
        else:
            vc = _dense_drift(xc, gates, spec, ps.n)
        v[idx] = vc
    return v


def euler_step(ps: ParticleSet, spec: InteractionSpec, dt: float,
               _blocks: list | None = None) -> ParticleSet:
    """One synchronous explicit Euler step.  Features and t advance accordingly.

    _blocks may carry the static-feature blocks of ps (see _feature_blocks),
    which simulate finds once per run; without them the step finds its own.
    """
    if not 0 < dt <= 1:
        raise ConfigError(f"dt must be in (0, 1], got {dt}")
    x_new = ps.positions + dt * _drift(ps, spec, _blocks)
    return ps.with_positions(x_new, ps.t + dt)


def _run(ps0, spec, cfg, step_fn, metadata, stop_tol=None):
    """Shared driver for the deterministic and Monte Carlo integrators.

    With stop_tol set, the run ends once the max per-step displacement drops
    below it; with None it always runs to cfg.t_final.
    """
    record = MomentRecord.from_snapshot(ps0)
    snapshots = [(ps0.t, ps0.positions)]
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
            snapshots.append((ps.t, ps.positions))
            record.append(ps)
        if stop_tol is not None and max_disp < stop_tol:
            terminated = True
            reason = f"max displacement {max_disp:.3e} below stop_tol at t={ps.t:g}"
            break
    if snapshots[-1][0] != ps.t:
        snapshots.append((ps.t, ps.positions))
        record.append(ps)
    return Trajectory(snapshots, record, ps, terminated, reason, metadata)


def simulate(ps0: ParticleSet, spec: InteractionSpec, cfg: IntegratorConfig) -> Trajectory:
    """Iterate euler_step to t_final (or early stop), recording snapshots and moments.

    The static-feature blocks (see _feature_blocks) are found once, before
    the first step, and nothing else is kept for the run.  A step then gates
    the |C|(|C|+1)/2 unordered pairs of each block C that has not collapsed
    within eps1, in tiles of the upper triangle, and costs O(|C|) for each
    one that has.
    """
    meta = {"method": "euler", "dt": cfg.dt, "t_final": cfg.t_final,
            "sigma_mode": spec.sigma_mode}
    blocks = _feature_blocks(ps0, spec)
    return _run(ps0, spec, cfg, lambda ps, k: euler_step(ps, spec, cfg.dt, blocks), meta,
                cfg.stop_tol)


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
    finds them on a grid, the same finder that splits the Euler blocks.
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
        # componentwise interval gaps lower-bound the member gap, and equal
        # it when both clusters' features are single points
        return _power_sum(np.maximum(0.0, np.maximum(
            fmin[i] - fmax[k], fmin[k] - fmax[i])).T, spec.norm2)
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
