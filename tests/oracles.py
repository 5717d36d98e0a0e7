"""Brute-force reference implementations of the interaction gate and of the
shape noise injection.

Each answers one question a particle at a time or over the whole (n, n)
matrix, the way the model is written down, so tests can compare the
package's blocked, cell-list and block-drawn code against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bcclust.model import (
    ConfigError,
    InteractionSpec,
    ParticleSet,
    _reduce_abs_diff,
    _within_mask,
    distances_to,
)


@dataclass(frozen=True)
class NeighborhoodResult:
    """Sorted self-inclusive indices of the particles within both gates."""

    indices: np.ndarray
    count: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "count", len(self.indices))


def chi(eps: float, dist: float):
    """Indicator of dist <= eps.  Boundary inclusive.  Works elementwise on arrays."""
    return np.where(np.asarray(dist) <= eps, 1, 0)


def interaction_mask(ps: ParticleSet, spec: InteractionSpec) -> np.ndarray:
    """(n, n) boolean matrix of pairs passing both confidence gates."""
    mask = _within_mask(ps.positions, spec.eps1, spec.norm1)
    if ps.d2 > 0:
        mask &= _within_mask(ps.features, spec.eps2, spec.norm2)
    return mask


def neighborhood(ps: ParticleSet, i: int, spec: InteractionSpec) -> NeighborhoodResult:
    """Indices j with position gap <= eps1 and feature gap <= eps2.  Includes i."""
    if not 0 <= i < ps.n:
        raise ConfigError(f"particle index {i} out of range [0, {ps.n})")
    ok = distances_to(ps.positions, ps.positions[i], spec.norm1) <= spec.eps1
    if ps.d2 > 0:
        ok &= distances_to(ps.features, ps.features[i], spec.norm2) <= spec.eps2
    return NeighborhoodResult(np.nonzero(ok)[0])


def adjacency_weight(ps: ParticleSet, i: int, j: int, spec: InteractionSpec) -> float:
    """1/sigma_i if j is in the neighborhood of i, else 0."""
    if not 0 <= j < ps.n:
        raise ConfigError(f"particle index {j} out of range [0, {ps.n})")
    nb = neighborhood(ps, i, spec)
    if j not in nb.indices:
        return 0.0
    sigma = ps.n if spec.sigma_mode == "symmetric" else nb.count
    return 1.0 / sigma


def pairwise_distances(points: np.ndarray, norm: str) -> np.ndarray:
    """Full (n, n) distance matrix.  Intended for moderate n only."""
    n = points.shape[0]
    if points.shape[1] == 0:
        return np.zeros((n, n))
    d = np.abs(points[:, None, :] - points[None, :, :])
    return _reduce_abs_diff(d, norm, axis=2)


def steady_state_violations(cs, spec: InteractionSpec) -> list:
    """(i, k, center distance, member feature gap) of every cluster pair
    i < k, in row-major order, whose centers lie within eps1 and whose
    member features come within eps2, from the full distance matrices."""
    cdist = pairwise_distances(cs.centers(), spec.norm1)
    out = []
    for i, k in zip(*np.triu_indices(cs.n_clusters, k=1)):
        if not cdist[i, k] <= spec.eps1:
            continue
        a = cs.features[cs.clusters[i].members]
        b = cs.features[cs.clusters[k].members]
        gap = float(pairwise_distances(np.vstack([a, b]), spec.norm2)[:len(a), len(a):].min())
        if gap <= spec.eps2:
            out.append((int(i), int(k), float(cdist[i, k]), gap))
    return out


def dense_drift(ps: ParticleSet, spec: InteractionSpec) -> np.ndarray:
    """Velocity of every particle from the full (n, n) interaction mask."""
    mask = interaction_mask(ps, spec)
    deg = mask.sum(axis=1)
    sigma = np.full(ps.n, float(ps.n)) if spec.sigma_mode == "symmetric" else deg
    x = ps.positions
    return (mask.astype(float) @ x - deg[:, None] * x) / sigma[:, None]


def perturb_loop(pat, ns) -> np.ndarray:
    """The noise injection of `bcclust.shapes.perturb` a point and a draw at
    a time: x + alpha * theta with theta drawn afresh until the candidate
    lies inside [0,1]^2."""
    rng = np.random.default_rng(ns.seed)
    out = np.empty_like(pat.points)
    for i, x in enumerate(pat.points):
        while True:
            if ns.dist == "uniform":
                theta = rng.uniform(-1.0, 1.0, size=2)
            else:
                theta = rng.standard_normal(2)
            cand = x + ns.alpha * theta
            if np.all((cand >= 0.0) & (cand <= 1.0)):
                out[i] = cand
                break
    return out
