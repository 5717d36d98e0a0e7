"""Cell lists: candidate pools that hold every gated neighborhood in a few index
ranges, which serve the partner draws and the steady-state check's center
pairs (expanded by _range_pairs), the exact component finder of a gate, and
the check that a gate is frozen, with the one-range pool of its components.

The gated coordinates are those of the groups that model._gates keeps: the
features (cell side eps2) and the positions (cell side eps1), each only when
its bounding box is wider than its eps.  Particles are ordered by the cell of
every gated coordinate but the last, then by the last coordinate.  A particle
within eps of particle i in every gated coordinate lies in a cell row adjacent
to i's own, inside the window last_i +/- eps of that row, and each such window
is one contiguous range of the order.  The union of those ranges is i's
candidate pool, which holds the whole neighborhood N_i.  With one gated
coordinate there are no rows, and the pool is exactly N_i.  With none the pool
is one range of every particle, which is N_i too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import model
from .model import (InteractionSpec, ParticleSet, _bound, _gate, _gates, _power_sum,
                    _row_batches, _within)


@dataclass(frozen=True)
class CandidatePool:
    """Per-particle candidate ranges into a cell-sorted order.

    groups: the gated (points, eps, norm) groups, from model._gates.
    order: particle indices sorted by (cell row, last coordinate).
    lo, hi: (n, R) half-open ranges into `order`, one per adjacent cell row.
    rank: position of each particle in `order`.
    own: column of lo/hi holding each particle's own row.
    exact: every candidate is in N_i, so no gate is needed.
    """

    groups: list
    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rank: np.ndarray
    own: int
    exact: bool

    def gate(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether j is in N_i, elementwise over broadcast index arrays."""
        return model._gate(self.groups, i, j)


def candidate_pool(ps: ParticleSet, spec: InteractionSpec) -> CandidatePool:
    """Build the candidate ranges for the step state ps."""
    n = ps.n
    groups = _gates(ps.positions, ps.features, spec)
    if not groups:
        whole = np.zeros((n, 1), dtype=np.int64)
        return CandidatePool(groups, np.arange(n), whole, whole + n, np.arange(n), 0, True)
    # Positions go last: they are what clusters, and the last coordinate is
    # searched with a +/- eps window where the others span three cells.
    *rows, (last, eps_last, norm_last) = [
        (c, eps, norm) for points, eps, norm in groups for c in points.T]
    if not rows:
        # ties in a lone position column are equal particles, so the 5x faster
        # unstable sort cannot change a step; ties in a feature column can
        return _line_pool(groups, last, eps_last, norm_last, groups[0][0] is not ps.positions)

    # Cells are a hair wider than eps, so rounding never puts two particles
    # within eps of each other two cells apart, and at least 2**-511 wide: a
    # smaller euclidean gap squares to a subnormal or zero, so it can pass a
    # gate of smaller eps.  Cells per row dimension are capped so the packed
    # row id fits in int64.
    max_cells = 2 ** (60 // len(rows))
    row_id = np.zeros(n, dtype=np.int64)
    strides = []
    stride = 1
    for c, e, _ in rows:
        lo_c = c.min()
        side = max(e * (1 + 1e-9), 2.0**-511, (c.max() - lo_c) / max_cells)
        # cells start at 1, so the rows one cell beyond either end pack too
        cell = np.floor((c - lo_c) / side).astype(np.int64) + 1
        row_id += cell * stride
        strides.append(stride)
        stride *= int(cell.max()) + 2
    order = np.lexsort((last, row_id))

    # One sorted key over all rows: row number * width + offset within row,
    # with width wider than any window, so every window is one searchsorted
    # range.  The margin covers rounding in the key and in the shift by lo_u.
    # Everything below runs in sorted order, where the queries are sorted too.
    rid = row_id[order]
    new_row = np.concatenate([[True], rid[1:] != rid[:-1]])
    row_ids = rid[new_row]
    row_of = np.cumsum(new_row) - 1
    lo_u = last.min()
    u = last[order] - lo_u
    width = float(u.max()) + 2.0 * eps_last + 1.0
    key = row_of * width + u
    margin = 1e-13 * (len(row_ids) * width + abs(lo_u) + 1.0)

    offsets = list(product((-1, 0, 1), repeat=len(rows)))
    own = offsets.index((0,) * len(rows))
    lo = np.empty((n, len(offsets)), dtype=np.int64)
    hi = np.empty_like(lo)
    for col, off in enumerate(offsets):
        if col == own:
            r, found = row_of, True
        else:
            q = rid + sum(o * s for o, s in zip(off, strides))
            r = np.searchsorted(row_ids, q)
            found = row_ids[np.minimum(r, len(row_ids) - 1)] == q
        base = r * width + u
        lo[:, col] = np.searchsorted(key, base - eps_last - margin, side="left")
        hi[:, col] = np.where(
            found, np.searchsorted(key, base + eps_last + margin, side="right"),
            lo[:, col])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return CandidatePool(groups, order, lo[rank], hi[rank], rank, own, False)


def _line_pool(groups, last, eps, norm, stable) -> CandidatePool:
    # One gated coordinate: N_i is the run of the sorted order within eps of
    # i, as the gate is monotone in that coordinate on either side of i.
    # A binary search finds the run up to rounding at its ends, and the gate
    # trims those, never past i itself.
    order = np.argsort(last, kind="stable" if stable else None)
    srt = last[order]
    margin = 1e-13 * (max(abs(srt[0]), abs(srt[-1])) + eps + 1.0)
    lo = np.searchsorted(srt, srt - (eps + margin), side="left")
    hi = np.searchsorted(srt, srt + (eps + margin), side="right")
    for end, step, edge in ((lo, 1, 0), (hi, -1, -1)):
        while True:
            at = end + edge
            # only ends within the margin of eps can fail the gate
            near = np.nonzero(np.abs(srt[at] - srt) > eps - 2 * margin)[0]
            out = near[(at[near] != near)
                       & ~_within(srt[:, None], near, at[near], eps, norm)]
            if not out.size:
                break
            end[out] += step
    rank = np.empty(srt.size, dtype=np.int64)
    rank[order] = np.arange(srt.size)
    return CandidatePool(groups, order, lo[rank, None], hi[rank, None], rank, 0, True)


def component_pool(labels: np.ndarray) -> CandidatePool:
    """The exact pool of a frozen gate (see gate_frozen), whose neighborhoods
    are its components: one range per particle, its component's members in
    label order."""
    order, starts = _label_runs(labels)
    size = np.diff(starts, append=order.size)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    lo = np.repeat(starts, size)[rank, None]
    hi = np.repeat(starts + size, size)[rank, None]
    return CandidatePool([], order, lo, hi, rank, 0, True)


def gate_frozen(groups, labels: np.ndarray) -> bool:
    """Whether labels splits the particles into cliques of the gate of
    groups that no step can join or split, checked on bounding boxes:

    (a) in every group, each part's bounding box lies within the group's
        eps, so every member pair passes the gate;
    (b) every two parts are more than eps apart by the gap of their boxes
        in some group, so every cross pair fails it.

    Then the parts are the gate's components and N_i is i's part.  A step
    moves each particle to a convex combination of its part, which shrinks
    position boxes and widens their gaps, and features never move, so the
    gate stays frozen.  Box gaps lower-bound member gaps under the same
    _power_sum, compared with model._bound as the gate compares its pairs,
    so a gap of exactly eps does not separate.

    (b) sweeps the parts in order of the low end of their boxes in the last
    group's first coordinate (sweep and prune: Cohen et al., I-COLLIDE, SI3D
    1995).  Only parts whose low ends lie within reach of a part's high end
    can fail to be apart from it; the reach is wide enough that a gap beyond
    it passes the gate in no norm, its square a normal double.  So the a-th
    part's candidates are the range from a + 1 to the last low end within
    reach, tested in _row_batches up to the first that no group separates.
    """
    order, starts = _label_runs(labels)
    boxes = [(*_boxes(p, order, starts), eps, norm) for p, eps, norm in groups]
    if not all((_power_sum((hi - lo).T, norm) <= _bound(eps, norm)).all()
               for lo, hi, eps, norm in boxes):
        return False
    m = starts.size
    if not boxes:
        return m == 1
    lo0, hi0, eps0, _ = boxes[-1]
    by = np.argsort(lo0[:, 0], kind="stable")
    low, high = lo0[by, 0], hi0[by, 0]
    reach = (max(eps0, 2.0**-500) * (1 + 2.0**-40)
             + 2.0**-40 * float(np.abs(high).max()))
    first, end = np.arange(1, m + 1), np.searchsorted(low, high + reach, side="right")
    for rows in _row_batches(end - first):
        a, at = _range_pairs(first[rows, None], end[rows, None])
        i, j = by[a + rows.start], by[at]
        apart = np.zeros(i.size, dtype=bool)
        for lo, hi, eps, norm in boxes:
            gaps = (np.maximum(0.0, np.maximum(lo[j, d] - hi[i, d], lo[i, d] - hi[j, d]))
                    for d in range(lo.shape[1]))
            apart |= _power_sum(gaps, norm) > _bound(eps, norm)
        if not apart.all():
            return False
    return True


def _range_pairs(lo, hi):
    """The members of the half-open ranges lo[r, c]:hi[r, c], (rows, R)
    arrays, as (row, at): the row r of each member and its value, row by
    row, each row's ranges in column order."""
    seg = (hi - lo).ravel()
    at = np.repeat(lo.ravel() - np.cumsum(seg) + seg, seg) + np.arange(seg.sum())
    return np.repeat(np.arange(lo.shape[0]), (hi - lo).sum(axis=1)), at


def _label_runs(labels):
    """The particles sorted by label, ties in index order, and where each
    label's run of that order starts."""
    order = np.argsort(labels, kind="stable")
    srt = labels[order]
    return order, np.flatnonzero(np.concatenate(([True], srt[1:] != srt[:-1])))


def _boxes(points, order, starts):
    """Lowest and highest coordinates, (m, d) each, of each run of points
    in order that starts at starts."""
    srt = points[order]
    return np.minimum.reduceat(srt, starts), np.maximum.reduceat(srt, starts)


def components(groups, n: int) -> np.ndarray:
    """Connected-component label of each of n particles under a gate.

    groups: the gated (points, tol, norm) triples, points an (n, d) array, as
    model._gates finds them.  Particles i and j are joined when model._gate
    holds for them; with no group, every pair is joined.  Components are
    numbered by their lowest member.  They are exact but for euclidean
    tolerances below 2**-511, where squared gaps underflow.

    This is grid-based exact single linkage, as in grid DBSCAN (Gan & Tao,
    SIGMOD 2015).  Two particles sharing a cell are always joined.  Two cells
    within reach of each other in every coordinate are joined only if a
    cross check, in batches of about model._TILE_PAIRS member pairs, finds a
    member pair that passes the gate.  A cell pair already joined through
    others is skipped, so a large pair stops at the first chunk of rows that
    finds one.
    """
    if not groups:
        return np.zeros(n, dtype=np.intp)
    alone = sum(p.shape[1] for p, _, _ in groups) == 1
    cols = [_cell_column(c, tol, p.shape[1], norm, alone)
            for p, tol, norm in groups for c in p.T]

    # One integer key per cell, each digit padded by its reach so that a key
    # plus a stencil offset never carries into the next digit.
    strides, stride = [], 1
    for q, r in cols:
        strides.append(stride)
        stride *= int(q.max()) + 2 * r + 1
    dtype = np.int64 if stride < 2**63 else object
    key = sum((q + r).astype(dtype) * s for (q, r), s in zip(cols, strides))
    cells, first, cell_of = np.unique(key, return_index=True, return_inverse=True)
    m = cells.size
    order, start = _label_runs(cell_of)
    size = np.diff(start, append=n)

    # Adjacent cell pairs a < b.  The stencil holds (2 * reach + 1)**d
    # offsets, which outgrows the cells themselves in a few dimensions; then
    # the cells are compared pairwise, in row batches.  Otherwise the pairs
    # come one stencil offset at a time, and of each offset and its negation
    # only the one with a positive key step is needed.
    pairs = [np.empty((2, 0), dtype=np.intp)]
    if m <= math.prod(2 * r + 1 for _, r in cols):
        cell_q = [(q[first], r) for q, r in cols]
        for rows in _row_batches(np.full(m, m)):
            near = np.triu(np.ones((rows.stop - rows.start, m), dtype=bool), rows.start + 1)
            for q, r in cell_q:
                near &= np.abs(q[rows, None] - q[None, :]) <= r
            pairs.append(np.array(np.nonzero(near)) + [[rows.start], [0]])
    else:
        for off in product(*(range(-r, r + 1) for _, r in cols)):
            step = sum(o * s for o, s in zip(off, strides))
            if step > 0:
                at = np.minimum(np.searchsorted(cells, cells + step), m - 1)
                hit = np.flatnonzero(cells[at] == cells + step)
                pairs.append(np.stack([hit, at[hit]]))
    a, b = np.concatenate(pairs, axis=1)

    # Each pair is split into units of rows of its first cell, at most
    # model._TILE_PAIRS member pairs each unless a single row is longer, and
    # the cheapest units go first.  A member pair costs a few int64 indices
    # and floats, so a batch stays near 2**17 * 40 B = 5 MiB.
    rows = np.maximum(1, model._TILE_PAIRS // size[b])
    per = -(-size[a] // rows)
    u, r = _range_pairs(np.zeros((a.size, 1), dtype=np.int64), per[:, None])
    pend = np.stack([a[u], b[u], r * rows[u], np.minimum((r + 1) * rows[u], size[a][u])])
    pend = pend[:, np.argsort((pend[3] - pend[2]) * size[pend[1]], kind="stable")]
    root = np.arange(m)
    while pend.shape[1]:
        pend = pend[:, root[pend[0]] != root[pend[1]]]
        cost = np.cumsum((pend[3] - pend[2]) * size[pend[1]])
        take = max(1, int(np.searchsorted(cost, model._TILE_PAIRS, side="right")))
        (ca, cb, lo, hi), pend = pend[:, :take], pend[:, take:]
        nb = size[cb]
        k, t = _range_pairs(np.zeros((ca.size, 1), dtype=np.int64), ((hi - lo) * nb)[:, None])
        i = order[(start[ca] + lo)[k] + t // nb[k]]
        j = order[start[cb][k] + t % nb[k]]
        ok = _gate(groups, i, j)
        hit = np.bincount(k[ok], minlength=ca.size) > 0
        root = _link(root, ca[hit], cb[hit])

    comp = root[cell_of]
    _, lowest, inv = np.unique(comp, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(lowest))[inv]


def _cell_column(col, tol, dim, norm, alone):
    """Cell index of each value of one coordinate of a gated group, and the
    reach: how many cells apart two values within tol can fall.

    The sorted values are cut into runs wherever a gap fails the gate of
    this coordinate alone.  A pair within tol in the group lies in one run,
    as every gap between its two values is at most their own difference.
    If this is the only gated coordinate, a run is a component and makes
    one cell.  Otherwise each run is gridded from its lowest value, and the
    runs are laid end to end, reach + 1 empty cells apart, so cells of two
    runs are never adjacent and the indices stay below about n * (dim + 3).
    """
    n = col.size
    order = np.argsort(col, kind="stable")
    x = col[order]
    new = np.concatenate(([True], ~_within(x[:, None], np.arange(n - 1),
                                           np.arange(1, n), tol, norm)))
    run = np.cumsum(new) - 1
    off = x - x[new][run]
    if off.any() and not alone:
        side = tol / {"euclidean": math.sqrt(dim), "max": 1.0, "manhattan": dim}[norm]
        # Only a gate whose squared gaps underflow (tol below ~1e-154) lets
        # a run outgrow 2**40 cells, and there this floor gives up exactness.
        side = max(side, float(off.max()) * 2.0**-40)
        # floor(x / side) rounds: floor(0.3 / 0.1) = 2 but floor(0.5 / 0.1) =
        # 5, so values exactly 0.2 apart can fall three cells apart.  A cell
        # index is off by at most `slack` cells; shrinking the side by it keeps
        # same-cell pairs within tol, widening the reach covers all within tol.
        slack = 2.0**-50 * (float(off.max()) / side + (dim + 2) ** 2)
        side *= 1.0 - slack
        q = np.floor(off / side).astype(np.int64)
        reach = math.ceil(tol / side + slack)
    else:
        q, reach = np.zeros(n, dtype=np.int64), 0
    width = np.maximum.reduceat(q, np.flatnonzero(new)) + reach + 1
    cell = np.empty(n, dtype=np.int64)
    cell[order] = (np.cumsum(width) - width)[run] + q
    return cell, reach


def _link(root, a, b):
    """root, each cell's lowest linked cell, once cell a[k] is also linked to
    b[k] for every k."""
    while (move := root[a] != root[b]).any():
        ra, rb = root[a[move]], root[b[move]]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    return root
