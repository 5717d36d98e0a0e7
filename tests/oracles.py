"""Brute-force reference implementations of the interaction gate, of the
frozen-gate check, of the cluster columns and steady-state check, of the
shape noise injection and of the CSV tables.

Each answers one question a particle at a time or over the whole (n, n)
matrix, the way the model is written down, so tests can compare the
package's blocked, cell-list and block-drawn code against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from bcclust.model import (
    ConfigError,
    InteractionSpec,
    ParticleSet,
    _norm,
    bbox_diameter,
    distance,
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
    """(n, n) boolean matrix of pairs passing both confidence gates, from
    the distances themselves (their square roots taken), not from the
    package's sqrt-free gate."""
    mask = pairwise_distances(ps.positions, spec.norm1) <= spec.eps1
    if ps.d2 > 0:
        mask &= pairwise_distances(ps.features, spec.norm2) <= spec.eps2
    return mask


def neighborhood(ps: ParticleSet, i: int, spec: InteractionSpec) -> NeighborhoodResult:
    """Indices j with position gap <= eps1 and feature gap <= eps2.  Includes i."""
    if not 0 <= i < ps.n:
        raise ConfigError(f"particle index {i} out of range [0, {ps.n})")
    ok = distances_to(ps.positions, ps.positions[i], spec.norm1) <= spec.eps1
    if ps.d2 > 0:
        ok &= distances_to(ps.features, ps.features[i], spec.norm2) <= spec.eps2
    return NeighborhoodResult(np.nonzero(ok)[0])


def frozen_by_boxes(groups, labels: np.ndarray) -> bool:
    """The frozen-gate check on the parts of a labelling, a part and a pair
    at a time: in every (points, eps, norm) group each part's bounding box
    lies within eps, and every two parts have a bounding-box gap over eps in
    some group."""
    parts = [np.flatnonzero(labels == v) for v in np.unique(labels)]
    for points, eps, norm in groups:
        for idx in parts:
            if not bbox_diameter(points[idx], norm) <= eps:
                return False
    for a, b in combinations(parts, 2):
        gaps = [np.maximum(0.0, np.maximum(p[b].min(axis=0) - p[a].max(axis=0),
                                           p[a].min(axis=0) - p[b].max(axis=0)))
                for p, _, _ in groups]
        if not any(distance(g, np.zeros_like(g), norm) > eps
                   for g, (_, eps, norm) in zip(gaps, groups)):
            return False
    return True


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
    return _norm((col[None, :] - col[:, None] for col in points.T), norm)


def cluster_columns(ps: ParticleSet, labels: np.ndarray) -> tuple:
    """(weights, centers, feature_mean, feature_min, feature_max) of the
    clusters of a labelling numbered 0..m-1, a cluster at a time from its
    member rows in index order."""
    order = np.argsort(labels, kind="stable")
    rows = []
    for idx in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        f = ps.features[idx]
        rows.append((len(idx) / ps.n, ps.positions[idx].mean(axis=0),
                     f.mean(axis=0), f.min(axis=0), f.max(axis=0)))
    return tuple(np.array(col) for col in zip(*rows))


def steady_state_violations(cs, spec: InteractionSpec) -> list:
    """(i, k, center distance, member feature gap) of every cluster pair
    i < k, in row-major order, whose centers lie within eps1 and whose
    member features come within eps2, from the full distance matrices."""
    cdist = pairwise_distances(cs.centers, spec.norm1)
    out = []
    for i, k in zip(*np.triu_indices(cs.n_clusters, k=1)):
        if not cdist[i, k] <= spec.eps1:
            continue
        a = cs.features[cs.labels == i]
        b = cs.features[cs.labels == k]
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
    """The noise law of `bcclust.shapes.perturb` by plain rejection, a point
    and a draw at a time: x + alpha * theta with theta drawn afresh until the
    candidate lies inside [0,1]^2.  Where no point is rejected, perturb draws
    the same pairs and gives the same bytes."""
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


def csv_table(header, rows) -> bytes:
    """A CSV table written a value at a time: the header line, then each
    row's values joined by ',', a float (Python or numpy) as '%.17g' % v
    and anything else as str(v), each line ending in a newline."""
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v if isinstance(v, (float, np.floating)) else str(v)
                       for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def snapshot_blocks(tr, rows, values):
    """The %-template writer of the snapshot files: one block per snapshot
    (t, pos) of tr, in which every row of the template list rows is prefixed
    by the time column and all rows are filled in one % operation from the
    flattened array values(pos)."""
    for t, pos in tr.snapshots:
        tcol = "%.17g" % t + ","
        block = tcol + tcol.join(rows)
        yield block % tuple(values(pos).ravel().tolist())


def trajectory_csv(tr, features) -> bytes:
    """trajectory.csv of tr: rows (t, i, x_1..x_d1, c_1..c_d2)."""
    n, d1 = tr.snapshots[0][1].shape
    d2 = features.shape[1]
    header = (["t", "i"] + [f"x_{k + 1}" for k in range(d1)]
              + [f"c_{k + 1}" for k in range(d2)])
    slots = ",".join(["%.17g"] * (d1 + d2))
    rows = [f"{i},{slots}\n" for i in range(n)]
    blocks = snapshot_blocks(tr, rows, lambda pos: np.hstack([pos, features]))
    return (",".join(header) + "\n" + "".join(blocks)).encode()


def density_csv(tr, bins: int) -> bytes:
    """density.csv of tr on [0, 1]^d1: rows (t, bin, x_center, count) in 1D
    and (t, bin_x, bin_y, x_center, y_center, count) in 2D."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = ["%.17g" % c for c in (edges[:-1] + edges[1:]) / 2]
    if tr.snapshots[0][1].shape[1] == 1:
        header = ["t", "bin", "x_center", "count"]
        rows = [f"{b},{centers[b]},%d\n" for b in range(bins)]
        def counts(pos):
            return np.histogram(pos[:, 0], bins=edges)[0]
    else:
        header = ["t", "bin_x", "bin_y", "x_center", "y_center", "count"]
        rows = [f"{bx},{by},{centers[bx]},{centers[by]},%d\n"
                for bx in range(bins) for by in range(bins)]
        def counts(pos):
            return np.histogram2d(pos[:, 0], pos[:, 1],
                                  bins=(edges, edges))[0].astype(np.int64)
    return (",".join(header) + "\n"
            + "".join(snapshot_blocks(tr, rows, counts))).encode()
