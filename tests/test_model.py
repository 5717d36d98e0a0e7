"""Interaction primitives: kernels, metrics, neighborhoods, adjacency weights."""

import ctypes
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcclust import model
from bcclust.model import (
    ConfigError,
    DimensionMismatch,
    InteractionSpec,
    ParticleSet,
    _gate,
    _gates,
    _within,
    bbox_diameter,
    distance,
    distances_to,
)
from oracles import (
    adjacency_weight,
    chi,
    interaction_mask,
    neighborhood,
    pairwise_distances,
)

finite = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


def cloud(draw, n_max=12, d_max=3):
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(1, d_max))
    vals = draw(st.lists(finite, min_size=n * d, max_size=n * d))
    return np.array(vals).reshape(n, d)


@st.composite
def particle_sets(draw, with_features=False):
    pos = cloud(draw)
    feat = None
    if with_features:
        n = pos.shape[0]
        d2 = draw(st.integers(1, 2))
        vals = draw(st.lists(finite, min_size=n * d2, max_size=n * d2))
        feat = np.array(vals).reshape(n, d2)
    return ParticleSet(pos, feat)


class TestInteractionSpec:
    def test_defaults(self):
        spec = InteractionSpec(eps1=0.5)
        assert spec.eps2 == np.inf
        assert spec.norm1 == "euclidean"
        assert spec.sigma_mode == "symmetric"

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError):
            InteractionSpec(eps1=-0.1)
        with pytest.raises(ConfigError):
            InteractionSpec(eps1=0.5, eps2=-1)

    @pytest.mark.parametrize("eps1, eps2", [(np.nan, 1.0), (0.5, np.nan)],
                             ids=["eps1", "eps2"])
    def test_nan_eps_rejected(self, eps1, eps2):
        """nan fails the check that eps >= 0, where it passed eps < 0."""
        with pytest.raises(ConfigError):
            InteractionSpec(eps1=eps1, eps2=eps2)

    def test_bad_norm_rejected(self):
        with pytest.raises(ConfigError):
            InteractionSpec(eps1=0.5, norm1="L7")

    def test_bad_sigma_mode_rejected(self):
        with pytest.raises(ConfigError):
            InteractionSpec(eps1=0.5, sigma_mode="rowwise")


class TestParticleSet:
    def test_1d_input_promoted_to_column(self):
        ps = ParticleSet([0.0, 1.0, 2.0])
        assert ps.positions.shape == (3, 1)
        assert ps.d1 == 1 and ps.d2 == 0 and ps.n == 3

    def test_arrays_read_only(self):
        ps = ParticleSet([[0.0, 1.0]], [[2.0]])
        with pytest.raises(ValueError):
            ps.positions[0, 0] = 5.0
        with pytest.raises(ValueError):
            ps.features[0, 0] = 5.0

    def test_copy_on_construction(self):
        src = np.zeros((2, 1))
        ps = ParticleSet(src)
        src[0, 0] = 9.0
        assert ps.positions[0, 0] == 0.0

    def test_feature_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ParticleSet(np.zeros((3, 1)), np.zeros((2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ParticleSet(np.zeros((0, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["positions", "features"])
    def test_non_finite_entry_rejected(self, bad, where):
        """A nan or infinite coordinate has no place in a gate or a mean."""
        arrays = {"positions": np.zeros((3, 2)), "features": np.zeros((3, 1))}
        arrays[where][1, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            ParticleSet(arrays["positions"], arrays["features"])

    def test_with_positions_shares_features(self):
        ps = ParticleSet(np.zeros((3, 2)), np.ones((3, 1)))
        ps2 = ps.with_positions(np.ones((3, 2)), t=1.0)
        assert ps2.features is ps.features
        assert ps2.t == 1.0


class TestChiAndDistance:
    def test_chi_boundary_inclusive(self):
        assert chi(0.5, 0.5) == 1
        assert chi(0.5, 0.5 + 1e-12) == 0
        assert chi(0.0, 0.0) == 1

    def test_chi_elementwise(self):
        out = chi(1.0, np.array([0.5, 1.0, 1.5]))
        assert list(out) == [1, 1, 0]

    def test_norm_values(self):
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert distance(a, b, "euclidean") == pytest.approx(5.0)
        assert distance(a, b, "max") == pytest.approx(4.0)
        assert distance(a, b, "manhattan") == pytest.approx(7.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance([0.0], [0.0, 1.0])

    @given(st.lists(finite, min_size=2, max_size=2),
           st.lists(finite, min_size=2, max_size=2),
           st.sampled_from(["euclidean", "max", "manhattan"]))
    def test_metric_axioms(self, a, b, norm):
        a, b = np.array(a), np.array(b)
        assert distance(a, a, norm) == 0.0
        d_ab = distance(a, b, norm)
        assert d_ab >= 0
        assert d_ab == pytest.approx(distance(b, a, norm))

    @given(st.lists(finite, min_size=3, max_size=3),
           st.lists(finite, min_size=3, max_size=3))
    def test_norm_ordering(self, a, b):
        """max-norm <= euclidean <= manhattan for any pair."""
        a, b = np.array(a), np.array(b)
        d_max = distance(a, b, "max")
        d_euc = distance(a, b, "euclidean")
        d_man = distance(a, b, "manhattan")
        assert d_max <= d_euc + 1e-12
        assert d_euc <= d_man + 1e-12


class TestNeighborhood:
    def test_self_inclusion(self):
        ps = ParticleSet([[0.0], [10.0]])
        spec = InteractionSpec(eps1=0.1)
        for i in range(2):
            nb = neighborhood(ps, i, spec)
            assert i in nb.indices
            assert nb.count == 1

    def test_boundary_pair_included(self):
        ps = ParticleSet([[0.0], [0.5]])
        spec = InteractionSpec(eps1=0.5)
        assert list(neighborhood(ps, 0, spec).indices) == [0, 1]

    def test_feature_gate_excludes(self):
        ps = ParticleSet([[0.0], [0.1]], [[0.0], [1.0]])
        spec = InteractionSpec(eps1=0.5, eps2=0.5)
        assert list(neighborhood(ps, 0, spec).indices) == [0]

    def test_index_out_of_range(self):
        ps = ParticleSet([[0.0]])
        with pytest.raises(ConfigError):
            neighborhood(ps, 1, InteractionSpec(eps1=1))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_confidence_levels(self, data):
        ps = data.draw(particle_sets(with_features=True))
        e1 = data.draw(st.floats(0, 2))
        e2 = data.draw(st.floats(0, 2))
        grow1 = data.draw(st.floats(0, 2))
        grow2 = data.draw(st.floats(0, 2))
        i = data.draw(st.integers(0, ps.n - 1))
        small = set(neighborhood(ps, i, InteractionSpec(eps1=e1, eps2=e2)).indices)
        big = set(neighborhood(
            ps, i, InteractionSpec(eps1=e1 + grow1, eps2=e2 + grow2)).indices)
        assert small <= big


class TestAdjacency:
    def test_all_within_symmetric(self):
        ps = ParticleSet([[0.0], [0.1], [0.2]])
        spec = InteractionSpec(eps1=1.0, sigma_mode="symmetric")
        for i in range(3):
            for j in range(3):
                assert adjacency_weight(ps, i, j, spec) == pytest.approx(1 / 3)

    def test_outside_pair_zero(self):
        ps = ParticleSet([[0.0], [5.0]])
        spec = InteractionSpec(eps1=1.0)
        assert adjacency_weight(ps, 0, 1, spec) == 0.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_stochastic(self, data):
        ps = data.draw(particle_sets(with_features=True))
        eps1 = data.draw(st.floats(0, 3))
        eps2 = data.draw(st.floats(0, 3))
        spec = InteractionSpec(eps1=eps1, eps2=eps2, sigma_mode="stochastic")
        for i in range(ps.n):
            total = sum(adjacency_weight(ps, i, j, spec) for j in range(ps.n))
            assert abs(total - 1.0) <= 1e-12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_mode_symmetry(self, data):
        ps = data.draw(particle_sets(with_features=True))
        eps1 = data.draw(st.floats(0, 3))
        spec = InteractionSpec(eps1=eps1, sigma_mode="symmetric")
        for i in range(ps.n):
            for j in range(ps.n):
                assert adjacency_weight(ps, i, j, spec) == \
                    adjacency_weight(ps, j, i, spec)


class TestInteractionMask:
    def test_matches_neighborhood_rows(self):
        rng = np.random.default_rng(5)
        ps = ParticleSet(rng.uniform(0, 1, (20, 2)), rng.uniform(0, 1, (20, 1)))
        spec = InteractionSpec(eps1=0.3, eps2=0.4)
        mask = interaction_mask(ps, spec)
        for i in range(ps.n):
            np.testing.assert_array_equal(
                np.nonzero(mask[i])[0], neighborhood(ps, i, spec).indices)

    def test_feature_gate_reduction(self):
        """A wide eps2 makes the featured run identical to the featureless one."""
        rng = np.random.default_rng(6)
        pos = rng.uniform(0, 1, (15, 2))
        feat = rng.uniform(0, 1, (15, 1))
        wide = InteractionSpec(eps1=0.3, eps2=10.0)
        bare = InteractionSpec(eps1=0.3)
        with_f = interaction_mask(ParticleSet(pos, feat), wide)
        without = interaction_mask(ParticleSet(pos), bare)
        np.testing.assert_array_equal(with_f, without)

    def test_within_mask_agrees_with_distances(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (30, 2))
        i, j = np.ogrid[:30, :30]
        for norm in ("euclidean", "max", "manhattan"):
            dist = pairwise_distances(pts, norm)
            # an eps equal to a pair's own distance puts that pair on the edge
            for eps in (0.1, 0.35, 0.7, *dist[0, 1:4]):
                np.testing.assert_array_equal(
                    _within(pts, i, j, eps, norm), dist <= eps)

    def test_bbox_diameter_bounds_pairwise(self):
        rng = np.random.default_rng(8)
        for d in (3, 8, 13):
            pts = rng.uniform(-2, 2, (25, d)) * 10.0 ** -rng.integers(0, 9, d)
            for norm in ("euclidean", "max", "manhattan"):
                assert bbox_diameter(pts, norm) >= pairwise_distances(pts, norm).max()


def left_to_right_norm(diff, norm):
    """The norm of one difference vector in plain Python floats, its terms
    added one after another in coordinate order (a loop rather than sum,
    which compensates from Python 3.12 on)."""
    terms = [x * x if norm == "euclidean" else abs(x) for x in diff]
    if norm == "max":
        return max(terms, default=0.0)
    total = 0.0
    for x in terms:
        total += x
    return math.sqrt(total) if norm == "euclidean" else total


def corner_pairs(rng, k, d):
    """k pairs of points in R^d whose coordinates span nine decades, so
    that the order in which a norm adds them shows in its last bits."""
    scale = 10.0 ** -rng.integers(0, 9, (2, k, d))
    return rng.uniform(-1, 1, (2, k, d)) * scale


class TestOneNorm:
    """Every distance, gate and bound is one sum in coordinate order, so
    they agree to the last bit in any dimension."""

    @pytest.mark.parametrize("norm", ["euclidean", "max", "manhattan"])
    def test_distance_gate_and_bound_agree(self, norm):
        rng = np.random.default_rng(13)
        for d in range(1, 17):
            a, b = corner_pairs(rng, 200, d)
            dist = distances_to(a - b, np.zeros(d), norm)
            ref = [left_to_right_norm((x - y).tolist(), norm) for x, y in zip(a, b)]
            assert dist.tolist() == ref, d
            for x, y, eps in zip(a[:50], b[:50], ref):
                assert distance(x, y, norm) == eps
                assert bbox_diameter(np.array([x, y]), norm) == eps
                assert _within(np.array([x, y]), np.array([0]), np.array([1]),
                               eps, norm)[0]

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("norm", ["euclidean", "max", "manhattan"])
    def test_within_takes_scalar_indices(self, norm, d):
        pts = corner_pairs(np.random.default_rng(d), 1, d)[:, 0]
        dist = distance(pts[0], pts[1], norm)
        for eps in (0.5 * dist, dist, 2.0 * dist):
            assert _within(pts, 0, 1, eps, norm) == (dist <= eps)

    def test_no_coordinates_is_zero(self):
        for norm in ("euclidean", "max", "manhattan"):
            assert distance([], [], norm) == 0.0
            assert bbox_diameter(np.empty((3, 0)), norm) == 0.0

    def test_unknown_norm(self):
        with pytest.raises(ConfigError):
            distance([0.0], [1.0], "chebyshev")


def explicit_root_distance(a, b):
    """np.sqrt of the sum of the squares of b - a, added in its last axis's
    order."""
    with np.errstate(all="ignore"):
        diff = b - a
        acc = diff[..., 0] * diff[..., 0]
        for k in range(1, diff.shape[-1]):
            acc = acc + diff[..., k] * diff[..., k]
        return np.sqrt(acc)


def explicit_root_gate(points, eps):
    """(n, n) matrix of np.sqrt(sum of squares) <= eps over every ordered
    pair (i, j) of rows."""
    return explicit_root_distance(points[:, None, :], points[None, :, :]) <= eps


EDGE_EPS = [0.0, 5e-324, 1e-160, 1e200, np.inf]
coords = st.one_of(st.floats(), st.integers(-8, 8).map(lambda k: k / 8),
                   st.sampled_from([5e-324, 1e-160, 1e154, 1e200, -1e200]))


class TestSqrtFreeGate:
    """The euclidean gate compares a sum of squares with _sq_bound(eps) and
    takes no square root; its decisions are the root's, bit for bit."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_within_is_the_root_test(self, data):
        """Random rows in 1 to 8 columns, inf and nan among the coordinates,
        against eps at the edge values, anywhere, or at a pair's distance
        and one ulp either side of it."""
        n, d = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 8))
        pts = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d)),
                       dtype=float).reshape(n, d)
        r = float(explicit_root_distance(pts[0], pts[-1]))
        at = [r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf)] if r >= 0 else [0.0]
        eps = data.draw(st.one_of(st.sampled_from(EDGE_EPS), st.floats(min_value=0.0),
                                  st.sampled_from(at)))
        i, j = np.ogrid[:n, :n]
        with np.errstate(all="ignore"):
            got = _within(pts, i, j, eps, "euclidean")
        np.testing.assert_array_equal(got, explicit_root_gate(pts, eps))

    @pytest.mark.parametrize("eps", EDGE_EPS)
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_edge_eps_on_special_coordinates(self, eps, d):
        vals = [0.0, 5e-324, 1e-160, 1e-154, 0.5, 1e154, 1e200, np.inf, -np.inf, np.nan]
        pts = np.random.default_rng(d).choice(vals, size=(40, d))
        i, j = np.ogrid[:40, :40]
        with np.errstate(all="ignore"):
            got = _within(pts, i, j, eps, "euclidean")
        np.testing.assert_array_equal(got, explicit_root_gate(pts, eps))

    @given(st.floats(min_value=0.0, allow_infinity=False))
    @settings(max_examples=1000)
    def test_sq_bound_is_the_largest_square_within(self, eps):
        t = model._sq_bound(eps)
        assert t >= 0.0
        assert math.sqrt(t) <= eps < math.sqrt(math.nextafter(t, math.inf))

    def test_sq_bound_edges(self):
        assert model._sq_bound(np.inf) == np.inf
        assert math.isnan(model._sq_bound(np.nan))
        assert model._sq_bound(-1.0) == -np.inf
        assert model._sq_bound(0.0) == 0.0 and model._sq_bound(5e-324) == 0.0
        assert model._sq_bound(1e200) == sys.float_info.max
        assert model._bound(0.3, "max") == 0.3 and model._bound(0.3, "manhattan") == 0.3

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from(["euclidean", "max", "manhattan"]), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_nearest_distances_and_box_keep_their_values(self, na, nb, d, norm, tile):
        """One root per row after the least sum, and a box reduced column by
        column, give the bits of a root per pair and of max(axis=0)."""
        rng = np.random.default_rng(na * 1000 + nb * 10 + d)
        a, b = corner_pairs(rng, na + nb, d)
        a, b = a[:na], b[:nb]
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            got = model._nearest_distances(a, b, norm)
        ref = pairwise_distances(np.vstack([a, b]), norm)[:na, na:].min(axis=1)
        assert got.tolist() == ref.tolist()
        assert bbox_diameter(a, norm) == distance(a.max(axis=0), a.min(axis=0), norm)


class TestRowBatches:
    @pytest.mark.parametrize("rows, cols, tile", [
        (1, 1, 1), (7, 1, 3), (7, 3, 3), (10, 4, 9), (10, 40, 9), (100, 7, 64),
        (5000, 5000, 2**17), (300, 2**17, 2**17), (300, 2**17 + 1, 2**17)])
    def test_uniform_counts_give_fixed_row_steps(self, rows, cols, tile):
        """With every row of one length, the batches are the fixed row steps
        of the row tiles they replace: max(1, tile // cols) rows each."""
        step = max(1, tile // cols)
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            got = list(model._row_batches(np.full(rows, cols)))
        assert got == [slice(s, min(s + step, rows)) for s in range(0, rows, step)]

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.integers(1, 64))
    def test_batches_are_greedy_and_bounded(self, counts, tile):
        """Consecutive slices covering every row, each of at most tile pairs
        unless it is one row, and each as long as the bound allows."""
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            got = list(model._row_batches(np.array(counts)))
        assert [s.start for s in got] == [0] + [s.stop for s in got[:-1]]
        assert got[-1].stop == len(counts)
        for s in got:
            assert s.stop - s.start == 1 or sum(counts[s]) <= tile
            assert s.stop == len(counts) or sum(counts[s.start:s.stop + 1]) > tile


class TestGates:
    """A group gates only when some pair fails it: when its bounding box is
    wider than its eps."""

    def test_group_within_its_eps_gates_nothing(self):
        pos = np.array([[0.0, 0.0], [0.3, 0.4], [0.1, 0.2]])
        feat = np.array([[0.0], [0.5], [1.0]])
        diam = bbox_diameter(pos, "euclidean")
        assert diam == 0.5
        at_edge = InteractionSpec(eps1=diam, eps2=0.25)
        assert [g[1] for g in _gates(pos, feat, at_edge)] == [0.25]
        assert [g[1] for g in _gates(pos, feat, InteractionSpec(eps1=0.4, eps2=0.25))] \
            == [0.25, 0.4], "features come first"
        assert _gates(pos, feat, InteractionSpec(eps1=diam, eps2=1.0)) == []
        assert _gates(pos, np.empty((3, 0)), InteractionSpec(eps1=np.inf, eps2=0.0)) == []

    @given(particle_sets(with_features=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_gate_is_the_interaction_mask(self, ps, data):
        """Dropping the groups that gate nothing leaves the gate unchanged,
        eps at the box diameter included."""
        eps1 = data.draw(st.sampled_from([0.5, 2.0, bbox_diameter(ps.positions, "max")]))
        eps2 = data.draw(st.sampled_from([0.5, np.inf, bbox_diameter(ps.features, "max")]))
        spec = InteractionSpec(eps1=eps1, eps2=eps2, norm1="max", norm2="max")
        groups = _gates(ps.positions, ps.features, spec)
        mask = interaction_mask(ps, spec)
        if groups:
            i, j = np.ogrid[:ps.n, :ps.n]
            np.testing.assert_array_equal(_gate(groups, i, j), mask)
        else:
            assert mask.all()


class FakeLibc:
    """A C library whose mallopt records its calls and answers from a list."""

    def __init__(self, answers):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answers[len(self.calls) - 1]

        self.mallopt = mallopt


def fake_cdll(libc):
    def cdll(name):
        assert name is None, "the policy opens the running process"
        return libc
    return cdll


class TestHeapPolicy:
    MMAP, TRIM = (-3, 32 * 2**20), (-1, 64 * 2**20)

    def test_mmap_threshold_first_then_trim(self, monkeypatch):
        """A trim call on its own would switch glibc's dynamic thresholds off,
        so the mmap threshold goes first."""
        libc = FakeLibc([1, 1])
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll(libc))
        model._keep_freed_heap()
        assert libc.calls == [self.MMAP, self.TRIM]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    def test_no_trim_when_mmap_threshold_refused(self, monkeypatch):
        libc = FakeLibc([0])
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll(libc))
        model._keep_freed_heap()
        assert libc.calls == [self.MMAP]

    def test_quiet_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", fake_cdll(object()))
        model._keep_freed_heap()

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_quiet_when_the_library_cannot_be_opened(self, monkeypatch, error):
        """OSError: dlopen failed; TypeError: Windows cannot open None."""
        def cdll(name):
            raise error("no C library")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        model._keep_freed_heap()


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Minor page faults taken by steps after warm ones, in a fresh interpreter.
FAULTS_CHILD = """
import resource, sys
import numpy as np
from bcclust import InteractionSpec, MfiConfig, ParticleSet, euler_step, mfi_step

if sys.argv[1] == "mfi":
    ps = ParticleSet(np.random.default_rng(0).uniform(size=20_000))
    spec = InteractionSpec(eps1=0.15, sigma_mode="stochastic")
    cfg = MfiConfig(M=10, dt=0.5, t_final=20.0, seed=0)
    step, warm, timed = (lambda ps, k: mfi_step(ps, spec, cfg, k)), 5, 30
else:
    cols, rows = np.meshgrid(np.arange(64), np.arange(64))
    xy = np.column_stack([(cols.ravel() + 0.5) / 64, (rows.ravel() + 0.5) / 64])
    ps = ParticleSet(xy, (cols.ravel() >= 32).astype(float))
    spec = InteractionSpec(eps1=0.5, eps2=0.3)
    step, warm, timed = (lambda ps, k: euler_step(ps, spec, 0.5)), 1, 3
for k in range(warm):
    ps = step(ps, k)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(warm, warm + timed):
    ps = step(ps, k)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not libc_has_mallopt(),
                    reason="the C library has no mallopt, so the heap policy does nothing")
@pytest.mark.parametrize("case", ["mfi", "euler"])
def test_steps_reuse_freed_heap(case):
    """Each step's MiB-sized temporaries (draws, gate tiles) reuse the pages
    the last step freed: 30 subset steps at n=20,000 in 1D, or 3 Euler steps
    on a 64x64 grid with a two-level feature, take under 1,000 minor faults.
    Under glibc's default thresholds each case takes tens of thousands."""
    src = os.path.dirname(os.path.dirname(model.__file__))
    out = subprocess.run([sys.executable, "-c", FAULTS_CHILD, case],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 1000
