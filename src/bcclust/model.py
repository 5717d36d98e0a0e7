"""Core interaction primitives: configuration, particle sets, metrics and the direct gate.

All operations here are pure reads over immutable particle snapshots and are
safe to call concurrently.  Importing the module sets the process's heap
policy once (_keep_freed_heap), and _may_fork is the one rule for when the
package forks a worker process.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

NORMS = ("euclidean", "max", "manhattan")
SIGMA_MODES = ("symmetric", "stochastic")

# Pairs of every dense pairwise evaluation done at once: gates, cross checks
# and nearest distances.  At 2**17 pairs a float temporary is 1 MiB, so the
# two that _within keeps alive and the tile's bool gate fit a 2 MiB per-core
# L2 cache (cache blocking, as for GEMM in Goto & van de Geijn, ACM TOMS
# 34(3), 2008).  Being under _keep_freed_heap's 32 MiB mmap threshold, each
# tile reuses heap pages freed by the last instead of faulting in new ones.
_TILE_PAIRS = 2**17

# glibc's mallopt parameters, and the ceiling glibc's own dynamic mmap
# threshold may reach on 64-bit systems (DEFAULT_MMAP_THRESHOLD_MAX).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 * 2**20


def _keep_freed_heap() -> None:
    """Keep up to 64 MiB of freed heap in the process, on glibc only.

    By default glibc maps each block over 128 KiB and gives the top of the
    heap back to the kernel once more than 128 KiB of it is free; freeing a
    mapped block raises the mmap threshold to its size (up to 32 MiB) and the
    trim threshold to twice that.  Until then, the MiB-sized temporaries one
    step frees (gate tiles, (M, n) draws) are faulted in again by the next.
    This sets both where that rule ends: the mmap threshold at its 32 MiB
    ceiling and the trim threshold at twice it.  Blocks over 32 MiB are still
    mapped and returned when freed.  The mmap threshold goes first, because
    setting the trim threshold alone switches the dynamic thresholds off, and
    the trim threshold follows only if that call succeeded.  Without a C
    library handle that has mallopt, nothing changes.  Runs once, when
    bcclust is imported; no result depends on it.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: Windows has no CDLL(None)
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1:
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


_keep_freed_heap()


def _may_fork() -> bool:
    """Whether this process may fork a worker: fork is the start method of
    multiprocessing's default context (the platform's, or the one set by
    set_start_method), and only one Python thread runs.  A forked child
    runs only the forking thread, so a lock another thread held at the fork
    stays held in the child for good.  The sweep's worker pool and the
    simulate command's snapshot writer both follow this rule.
    """
    # Imported here: multiprocessing loads socket and pickle, which would
    # add to the start-up of every command.
    import multiprocessing
    import threading

    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return method == "fork" and threading.active_count() == 1


class ClusteringError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ClusteringError):
    """Invalid parameter or configuration value."""


class DimensionMismatch(ClusteringError):
    """Operands have incompatible dimensions."""


@dataclass(frozen=True)
class InteractionSpec:
    """Confidence levels and metric choices gating pairwise interactions.

    eps1 bounds the distance between evolving positions, eps2 the distance
    between immutable static features.  sigma_mode selects the weight divisor:
    'symmetric' uses n (A symmetric, not row-stochastic), 'stochastic' uses the
    neighborhood size (row-stochastic, not symmetric).
    """

    eps1: float
    eps2: float = np.inf
    norm1: str = "euclidean"
    norm2: str = "euclidean"
    sigma_mode: str = "symmetric"

    def __post_init__(self):
        if not (self.eps1 >= 0 and self.eps2 >= 0):  # nan fails too
            raise ConfigError("confidence levels must be nonnegative")
        if self.norm1 not in NORMS or self.norm2 not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}")
        if self.sigma_mode not in SIGMA_MODES:
            raise ConfigError(f"sigma_mode must be one of {SIGMA_MODES}")


class ParticleSet:
    """n particles with evolving positions and immutable static features.

    positions: (n, d1) array, features: (n, d2) array with d2 = 0 encoding
    "no static feature" (every feature distance is then zero and the eps2
    gate is vacuous), all finite.  Arrays are copied on construction and marked
    read-only; integrators return new instances sharing the feature array.
    """

    __slots__ = ("positions", "features", "t")

    def __init__(self, positions, features=None, t: float = 0.0):
        pos = np.array(positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ConfigError("positions must be a nonempty (n, d1) array")
        n = pos.shape[0]
        if features is None:
            feat = np.empty((n, 0))
        else:
            feat = np.array(features, dtype=float)
            if feat.ndim == 1:
                feat = feat[:, None]
            if feat.shape[0] != n:
                raise DimensionMismatch(
                    f"features rows {feat.shape[0]} != positions rows {n}"
                )
        if not (np.isfinite(pos).all() and np.isfinite(feat).all()):
            raise ConfigError("positions and features must be finite")
        pos.setflags(write=False)
        feat.setflags(write=False)
        self.positions = pos
        self.features = feat
        self.t = float(t)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d1(self) -> int:
        return self.positions.shape[1]

    @property
    def d2(self) -> int:
        return self.features.shape[1]

    def with_positions(self, positions: np.ndarray, t: float) -> "ParticleSet":
        """New snapshot with updated positions, sharing the feature array; unchecked."""
        ps = ParticleSet.__new__(ParticleSet)
        pos = np.array(positions, dtype=float)
        pos.setflags(write=False)
        ps.positions = pos
        ps.features = self.features
        ps.t = float(t)
        return ps


def _power_sum(diffs, norm: str):
    """The norm of difference vectors before its root, given one coordinate
    at a time as arrays of one shape that it overwrites: squares or absolute
    values added in coordinate order (a running max for the max norm).
    Every distance, gate and bound is this one sum, so they agree to the last
    bit, where np.sum adds 8 or more terms pairwise (Higham, SIAM J. Sci.
    Comput. 14(4), 1993).  No coordinates give 0.0."""
    if norm not in NORMS:
        raise ConfigError(f"unknown norm {norm!r}")
    term = np.square if norm == "euclidean" else np.abs
    combine = np.maximum if norm == "max" else np.add
    acc = None
    for d in diffs:
        term(d, out=d)
        acc = d if acc is None else combine(acc, d, out=d)
    return 0.0 if acc is None else acc


def _root(acc, norm: str):
    """The norm from its _power_sum acc, an array that it overwrites or a
    float: the square root for the euclidean norm."""
    if norm != "euclidean":
        return acc
    return np.sqrt(acc, out=acc) if isinstance(acc, np.ndarray) else math.sqrt(acc)


def _norm(diffs, norm: str):
    """The norm of difference vectors given one coordinate at a time, as
    arrays of one shape that it overwrites: _power_sum, then _root."""
    return _root(_power_sum(diffs, norm), norm)


def _sq_bound(eps: float) -> float:
    """The largest double t with sqrt(t) <= eps, so that a sum of squares s
    passes the euclidean gate, sqrt(s) <= eps, exactly when s <= t.

    A correctly rounded sqrt is monotone, so the doubles whose root is at
    most eps are all those up to t, which lies within an ulp or two of
    eps*eps (found by stepping with math.nextafter).  This holds for 0,
    subnormals, a square that overflows (t is then the largest double, which
    an overflowed sum of inf exceeds) and nan sums, which pass neither.  An
    eps of inf or nan is its own bound, and a negative eps admits nothing."""
    if eps < 0:
        return -math.inf
    if eps == math.inf or eps != eps:
        return eps
    t = eps * eps
    while math.sqrt(t) > eps:
        t = math.nextafter(t, 0.0)
    while math.sqrt(up := math.nextafter(t, math.inf)) <= eps:
        t = up
    return t


def _bound(eps: float, norm: str) -> float:
    """The bound on a _power_sum that decides the gate at eps: a pair is
    within eps exactly when its sum is at most this, and farther exactly
    when its sum exceeds it.  No square root is taken."""
    return _sq_bound(eps) if norm == "euclidean" else eps


def distance(a, b, norm: str = "euclidean") -> float:
    """p-norm distance between two points for the selected metric tag."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise DimensionMismatch(f"points have shapes {a.shape} and {b.shape}")
    return float(distances_to(a[None], b, norm)[0])


def distances_to(points: np.ndarray, x: np.ndarray, norm: str) -> np.ndarray:
    """Distances from each row of points to x.  Zero-width points give all zeros."""
    if points.shape[1] == 0:
        return np.zeros(points.shape[0])
    return _norm((points - x[None, :]).T, norm)


def _box_sum(points: np.ndarray, norm: str) -> float:
    """_power_sum of the bounding box's diagonal.  Each column is reduced on
    its own: on a (5000, 2) array that takes a tenth of the time of
    points.max(axis=0) and points.min(axis=0), with the same values."""
    if points.shape[0] == 0 or points.shape[1] == 0:
        return 0.0
    with np.errstate(over="ignore"):  # a sum past the largest double is wider than any eps
        return float(_power_sum([np.array([col.max() - col.min()]) for col in points.T],
                                norm)[0])


def bbox_diameter(points: np.ndarray, norm: str) -> float:
    """Upper bound on the pairwise diameter via the bounding box."""
    return _root(_box_sum(points, norm), norm)


def _within(points: np.ndarray, i, j, eps: float, norm: str) -> np.ndarray:
    """distance(points[i], points[j], norm) <= eps, elementwise over broadcast
    index arrays or for scalar indices, one coordinate at a time, so at most
    two float arrays of the broadcast shape are alive at once.  The
    euclidean test compares the sum of squares with _bound(eps) and takes no
    square root; its decisions are the distance's.  points has at least one
    column.  A gap or sum that overflows to inf fails every finite eps, as
    the exact one would, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return (_power_sum((np.asarray(col[j] - col[i]) for col in points.T), norm)
                <= _bound(eps, norm))


def _gates(positions: np.ndarray, features: np.ndarray, spec: InteractionSpec) -> list:
    """The (points, eps, norm) groups that some pair fails, features first:
    those whose bounding box is wider than their eps.  A narrower group, one
    without columns or one of infinite eps passes every pair, as the norm
    grows with each coordinate difference."""
    groups = ((features, spec.eps2, spec.norm2), (positions, spec.eps1, spec.norm1))
    return [g for g in groups if _box_sum(g[0], g[2]) > _bound(g[1], g[2])]


def _gate(groups: list, i, j) -> np.ndarray:
    """The interaction gate: _within ANDed over a nonempty list of groups
    from _gates, elementwise over broadcast index arrays."""
    (points, eps, norm), *rest = groups
    ok = _within(points, i, j, eps, norm)
    for points, eps, norm in rest:
        ok &= _within(points, i, j, eps, norm)
    return ok


def _row_batches(counts):
    """Consecutive slices of rows that hold counts[r] pairs each, each slice
    of at most _TILE_PAIRS pairs unless a single row is longer."""
    tot, a = np.cumsum(counts), 0
    while a < tot.size:
        b = max(a + 1, int(np.searchsorted(tot, tot[a] - counts[a] + _TILE_PAIRS, "right")))
        yield slice(a, b)
        a = b


def _upper_tiles(groups: list, m: int):
    """_gate of groups over the upper triangle of an m x m evaluation, the
    pairs (i, j) with j >= i, in row tiles of at most _TILE_PAIRS pairs
    unless a single row is longer.

    Yields (r0, t): t is the (b, m - r0) bool gate of rows r0:r0+b against
    columns r0:m.  Its leading (b, b) block is gated on its upper triangle
    only, through index lists, and is False below it; the columns beyond
    are gated by broadcasting.  So the tiles gate each of the m(m+1)/2
    pairs of the triangle once."""
    idx = np.arange(m)
    r0 = 0
    while r0 < m:
        b = min(m - r0, max(1, _TILE_PAIRS // (m - r0)))
        r1 = r0 + b
        t = np.zeros((b, m - r0), dtype=bool)
        iu, ju = np.triu_indices(b)
        t[iu, ju] = _gate(groups, iu + r0, ju + r0)
        if r1 < m:
            t[:, b:] = _gate(groups, idx[r0:r1, None], idx[None, r1:])
        yield r0, t
        r0 = r1


def _nearest_distances(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """Distance from each row of a to its nearest row of b, in _row_batches:
    each row's least _power_sum, then one root per row, which is the least
    distance as the root is monotone."""
    return _root(np.concatenate([
        _power_sum((a[rows, k, None] - b[None, :, k] for k in range(a.shape[1])),
                   norm).min(axis=1)
        for rows in _row_batches(np.full(a.shape[0], b.shape[0]))]), norm)
