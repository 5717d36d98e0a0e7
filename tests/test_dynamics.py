"""Euler integrator, cluster extraction, steady-state verification."""

import time
import tracemalloc
import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcclust import cells, dynamics, model
from bcclust.imageseg import segment
from bcclust.mfi import MfiConfig, mfi_simulate
from bcclust.model import ConfigError, InteractionSpec, ParticleSet
from bcclust.rng import derive_seed
from bcclust.dynamics import (
    IntegratorConfig,
    _drift,
    default_merge_tol,
    euler_step,
    extract_clusters,
    simulate,
    verify_steady_state,
)
from oracles import (cluster_columns, dense_drift, interaction_mask,
                     steady_state_violations)
from test_acceptance import quadrant_image

coord = st.floats(min_value=0, max_value=1, allow_nan=False)


@st.composite
def random_sets(draw, n_min=2, n_max=15, d_max=2, features=False):
    n = draw(st.integers(n_min, n_max))
    d = draw(st.integers(1, d_max))
    pos = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    feat = None
    if features:
        feat = np.array(draw(st.lists(coord, min_size=n, max_size=n))).reshape(n, 1)
    return ParticleSet(pos, feat)


class TestIntegratorConfig:
    def test_dt_bounds(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=1.5, t_final=2.0)

    def test_t_final_at_least_dt(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.5, t_final=0.1)

    @pytest.mark.parametrize("make", [
        lambda **kw: IntegratorConfig(**kw),
        lambda **kw: MfiConfig(M=3, seed=0, **kw),
    ], ids=["euler", "mfi"])
    @pytest.mark.parametrize("kw, message", [
        (dict(dt=0.0, t_final=1.0), "dt must be in (0, 1], got 0.0"),
        (dict(dt=0.5, t_final=0.1), "t_final must be at least dt"),
        (dict(dt=0.5, t_final=1.0, record_every=0),
         "record_every must be a positive integer"),
        (dict(dt=0.5, t_final=np.nan), "t_final must be at least dt"),
        (dict(dt=0.5, t_final=np.inf), "t_final must be finite"),
    ])
    def test_shared_schedule_checks(self, make, kw, message):
        """Both integrators' configs reject a bad dt, t_final or
        record_every with the same message."""
        with pytest.raises(ConfigError) as exc:
            make(**kw)
        assert str(exc.value) == message

    def test_stop_tol_nonnegative(self):
        with pytest.raises(ConfigError, match="stop_tol"):
            IntegratorConfig(dt=0.5, t_final=1.0, stop_tol=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: IntegratorConfig(dt=0.5, t_final=1.0, stop_tol=np.nan),
        lambda: extract_clusters(ParticleSet([[0.0], [0.5]]), np.nan,
                                 InteractionSpec(eps1=0.1)),
    ], ids=["stop_tol", "merge_tol"])
    def test_nan_tolerance_rejected(self, make):
        """A nan fails the range checks instead of passing them: a nan
        merge_tol merged every particle into one cluster."""
        with pytest.raises(ConfigError):
            make()


class TestEulerStep:
    @given(random_sets(features=True), st.floats(0.01, 1.0),
           st.floats(0, 2), st.floats(0, 2),
           st.sampled_from(["symmetric", "stochastic"]))
    @settings(max_examples=80, deadline=None)
    def test_convex_combination(self, ps, dt, eps1, eps2, mode):
        """Updated coordinates stay inside the per-axis hull for dt <= 1."""
        spec = InteractionSpec(eps1=eps1, eps2=eps2, sigma_mode=mode)
        nxt = euler_step(ps, spec, dt)
        lo = ps.positions.min(axis=0) - 1e-12
        hi = ps.positions.max(axis=0) + 1e-12
        assert np.all(nxt.positions >= lo[None, :])
        assert np.all(nxt.positions <= hi[None, :])

    def test_features_unchanged(self):
        ps = ParticleSet(np.random.default_rng(0).uniform(0, 1, (10, 1)),
                         np.random.default_rng(1).uniform(0, 1, (10, 1)))
        nxt = euler_step(ps, InteractionSpec(eps1=0.5, eps2=0.5), 0.5)
        assert nxt.features is ps.features

    def test_coincident_points_are_fixed(self):
        ps = ParticleSet(np.full((5, 2), 0.3))
        nxt = euler_step(ps, InteractionSpec(eps1=0.1), 1.0)
        np.testing.assert_array_equal(nxt.positions, ps.positions)

    def test_two_isolated_particles_hold(self):
        ps = ParticleSet([[0.0], [1.0]])
        nxt = euler_step(ps, InteractionSpec(eps1=0.4), 0.5)
        np.testing.assert_array_equal(nxt.positions, ps.positions)

    def test_pair_contracts_to_midpoint(self):
        ps = ParticleSet([[0.0], [1.0]])
        spec = InteractionSpec(eps1=1.0, sigma_mode="stochastic")
        nxt = euler_step(ps, spec, 1.0)
        np.testing.assert_allclose(nxt.positions.ravel(), [0.5, 0.5])

    def test_dt_validation(self):
        ps = ParticleSet([[0.0]])
        with pytest.raises(ConfigError):
            euler_step(ps, InteractionSpec(eps1=1), 0.0)

    @given(random_sets(features=True),
           st.sampled_from(["symmetric", "stochastic"]))
    @settings(max_examples=60, deadline=None)
    def test_global_fast_path_matches_masked_drift(self, ps, mode):
        """When everything interacts, the O(n) shortcut must equal the full sum."""
        spec = InteractionSpec(eps1=10.0, eps2=10.0, sigma_mode=mode)
        fast = _drift(ps, spec)
        # wide-but-finite levels exercise the masked branch on identical data
        tight = InteractionSpec(eps1=1.5, eps2=1.5, sigma_mode=mode)
        # positions and features live in [0,1], so 1.5 also gates nothing
        slow = _drift(ps, tight)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


NORM = st.sampled_from(["euclidean", "max", "manhattan"])
EIGHTHS = st.integers(0, 8).map(lambda k: k / 8)  # exact sums and differences


@st.composite
def blocked_cases(draw):
    """A particle set, a spec, a tile size and the fewest members per cell
    for which the drift grids.  Positions (1 to 3 columns) and features (0
    to 2) are drawn in groups of eighths, as are eps1 and eps2, so cell
    pairs whose far corner or box gap is exactly eps occur (5/8 makes the
    3-4-5 triangle).  Even groups are packed within eps1 / 4, often onto
    one point, odd groups spread over the unit box.  Feature groups sit 2
    apart, farther than any eps2, or all on one range.  A tile of a few
    pairs forces row batches, and a threshold of 1 member forces the grid
    wherever the n^2 pairs outgrow a tile."""
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(0, 2))
    eps1 = draw(st.sampled_from([0.125, 0.25, 0.5, 0.625]))
    apart = draw(st.sampled_from([0.0, 2.0]))
    pos, feat = [], []
    for g in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 12))
        if g % 2 == 0:
            base = draw(st.lists(EIGHTHS, min_size=d1, max_size=d1))
            offs = draw(st.lists(st.sampled_from([0.0, eps1 / 8, eps1 / 4]) | st.floats(0, eps1 / 4),
                                 min_size=m * d1, max_size=m * d1))
            pos.append(np.array(base) + np.array(offs).reshape(m, d1))
        else:
            pts = draw(st.lists(st.one_of(EIGHTHS, st.floats(0, 1)),
                                min_size=m * d1, max_size=m * d1))
            pos.append(np.array(pts).reshape(m, d1))
        vals = draw(st.lists(st.integers(0, 6), min_size=m * d2, max_size=m * d2))
        feat.append(apart * g + np.array(vals, dtype=float).reshape(m, d2) / 8)
    ps = ParticleSet(np.vstack(pos), np.vstack(feat) if d2 else None)
    spec = InteractionSpec(eps1=eps1, eps2=draw(st.sampled_from([0.125, 0.25, 0.375, 0.625])),
                           norm1=draw(NORM), norm2=draw(NORM),
                           sigma_mode=draw(st.sampled_from(["symmetric", "stochastic"])))
    tile = draw(st.one_of(st.integers(1, 64), st.just(2**17)))
    return ps, spec, tile, draw(st.sampled_from([1, dynamics._CELL_MEMBERS]))


def gated_pairs(calls):
    """The unordered member pairs of recorded _gate calls, one per pair
    gated, repeats kept."""
    return [(min(a, b), max(a, b)) for i, j in calls
            for a, b in zip(*(x.ravel().tolist() for x in np.broadcast_arrays(i, j)))]


def counting_gate(calls):
    """model._gate, recording the index arrays of each call in calls."""
    gate = model._gate
    def counting(groups, i, j):
        calls.append((i, j))
        return gate(groups, i, j)
    return counting


@st.composite
def grid_cases(draw, n_max=25, d1=st.integers(1, 2)):
    """A particle set, merge_tol and eps2.  Positions (d1 drawn from d1,
    {1, 2} by default), features (d2 in {0, 1, 2}) and, mostly, both
    tolerances lie on one grid of eighths or of tenths, so pairs exactly at
    a tolerance occur, with exact binary arithmetic and with rounding."""
    den = draw(st.sampled_from([8, 10]))
    n = draw(st.integers(1, n_max))
    d1, d2 = draw(d1), draw(st.integers(0, 2))
    pos = draw(st.lists(st.integers(0, den), min_size=n * d1, max_size=n * d1))
    feat = draw(st.lists(st.integers(0, den), min_size=n * d2, max_size=n * d2))
    ps = ParticleSet(np.reshape(pos, (n, d1)) / den,
                     np.reshape(feat, (n, d2)) / den if d2 else None)
    merge_tol = draw(st.one_of(st.integers(1, den // 2).map(lambda k: k / den),
                               st.floats(0.01, 0.5)))
    eps2 = draw(st.one_of(st.integers(0, den).map(lambda k: k / den),
                          st.floats(0.05, 1.0)))
    return ps, merge_tol, eps2


# twelve particles on eighths, one spread block at eps1 = 1/4
LINE12 = ParticleSet(np.arange(12)[:, None] / 8)


class TestBlockedDrift:
    @given(blocked_cases())
    @example((ParticleSet([[0.0], [0.1], [0.9], [1.0]], [[0.5], [0.75], [1.0], [2.0]]),
              InteractionSpec(eps1=0.25, eps2=0.25, sigma_mode="stochastic"), 3, 1))
    @example((LINE12, InteractionSpec(eps1=0.25, sigma_mode="stochastic"), 1, 1))
    @example((LINE12, InteractionSpec(eps1=0.25, sigma_mode="symmetric"), 30, 1))
    @example((LINE12, InteractionSpec(eps1=0.25, sigma_mode="stochastic"), 200, 8))
    @settings(max_examples=300, deadline=None)
    def test_blocked_drift_matches_dense(self, case):
        """Cell pairs decided on their boxes, the one-cell set and the
        triangle tiles equal the full sum, for tiles of one row, tiles of a
        few rows whose leading block covers part of a cell's diagonal, and
        one tile of the whole set; no member pair is gated twice."""
        ps, spec, tile, members = case
        calls = []
        with mock.patch.object(model, "_TILE_PAIRS", tile), \
                mock.patch.object(dynamics, "_CELL_MEMBERS", members), \
                mock.patch.object(dynamics, "_gate", counting_gate(calls)):
            blocked = _drift(ps, spec)
        np.testing.assert_allclose(blocked, dense_drift(ps, spec), rtol=0, atol=1e-12)
        pairs = gated_pairs(calls)
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("tile", [1, 5, 30, 2**17])
    @pytest.mark.parametrize("mode", ["symmetric", "stochastic"])
    def test_each_unordered_pair_gated_once(self, tile, mode):
        """Counted at the gate, no member pair is gated twice.  On the grid
        no pair across two feature blocks is gated at all, and as one cell
        each of the n(n+1)/2 pairs is gated once.  A set of clusters that
        have formed, whose cell pairs are all decided on boxes (a cluster
        with itself and with one 0.2 away pass whole, one 0.35 away fails),
        gates none on the grid.  The cluster check gates no center pair
        twice, and only pairs i < k that the centers' candidate pool holds."""
        rng = np.random.default_rng(3)
        sizes = [1, 2, 12, 45]
        pos = np.vstack([rng.uniform(0, 1, (m, 2)) for m in sizes]
                        + [np.full((7, 2), 0.5) + rng.uniform(0, 1e-3, (7, 2))])
        block = np.repeat(np.arange(len(sizes) + 1), sizes + [7])
        ps = ParticleSet(pos, block[:, None] * 10.0)
        spec = InteractionSpec(eps1=0.3, eps2=1.0, sigma_mode=mode)
        centres = [[0.1, 0.1], [0.1, 0.3], [0.9, 0.5], [0.55, 0.5]]
        formed = ParticleSet(np.repeat(centres, 12, axis=0) + rng.uniform(0, 1e-3, (48, 2)))
        calls, checks = [], []
        with mock.patch.object(dynamics, "_gate", counting_gate(calls)), \
                mock.patch.object(model, "_gate", counting_gate(checks)), \
                mock.patch.object(model, "_TILE_PAIRS", tile), \
                mock.patch.object(dynamics, "_CELL_MEMBERS", 1):
            v = _drift(ps, spec)
            pairs = gated_pairs(calls)
            assert len(set(pairs)) == len(pairs)
            if tile < ps.n ** 2:
                assert pairs and all(block[a] == block[b] for a, b in pairs)
            else:
                assert len(pairs) == ps.n * (ps.n + 1) // 2
            np.testing.assert_allclose(v, dense_drift(ps, spec), rtol=0, atol=1e-12)
            calls.clear()
            v = _drift(formed, spec)
            assert len(gated_pairs(calls)) == (
                0 if tile < formed.n ** 2 else formed.n * (formed.n + 1) // 2)
            np.testing.assert_allclose(v, dense_drift(formed, spec), rtol=0, atol=1e-12)
            cs = extract_clusters(ParticleSet(pos[:60]), 1e-9, spec)
            rep = verify_steady_state(cs, spec)
        pairs = [(a, b) for i, j in checks for a, b in zip(i.ravel().tolist(),
                                                           j.ravel().tolist())]
        pool = cells.candidate_pool(ParticleSet(cs.centers), InteractionSpec(spec.eps1))
        candidates = {(a, int(pool.order[at]))
                      for a in range(cs.n_clusters)
                      for lo, hi in zip(pool.lo[a], pool.hi[a]) for at in range(lo, hi)}
        assert not pool.exact and pairs
        assert len(set(pairs)) == len(pairs)
        assert all(a < b for a, b in pairs) and set(pairs) <= candidates
        assert [tuple(v)[:2] for v in rep.violations] == [
            v[:2] for v in steady_state_violations(cs, spec)]

    @pytest.mark.parametrize("mode", ["symmetric", "stochastic"])
    def test_each_block_gates_only_what_spreads(self, mode):
        """Two feature blocks on the grid: one whose positions lie within
        eps1 and whose features spread in steps of exactly eps2, and one the
        other way round.  Every cell pair of the first is decided on its
        boxes (features eps2 apart pass whole, 2 eps2 apart fail), so only
        pairs of the second are gated, and the drift equals the dense
        mask's bit for bit (the coordinates are eighths, so every sum is
        exact)."""
        pos = [[0.5], [0.625], [0.5], [0.75], [0.0], [0.5], [1.0], [0.25]]
        feat = [[0.0], [0.25], [0.5], [0.75], [4.0], [4.125], [4.25], [4.0]]
        ps = ParticleSet(pos, feat)
        spec = InteractionSpec(eps1=0.375, eps2=0.25, sigma_mode=mode)
        calls = []
        with mock.patch.object(dynamics, "_gate", counting_gate(calls)), \
                mock.patch.object(model, "_TILE_PAIRS", 8), \
                mock.patch.object(dynamics, "_CELL_MEMBERS", 1):
            v = _drift(ps, spec)
        pairs = gated_pairs(calls)
        assert pairs and min(min(p) for p in pairs) >= 4
        assert len(set(pairs)) == len(pairs)
        np.testing.assert_array_equal(v, dense_drift(ps, spec))

    def test_step_memory_bounded_in_one_component(self):
        """A set whose positions and features both spread is gated in row
        tiles, features inside each tile: no n x n feature mask."""
        rng = np.random.default_rng(0)
        n = 8192
        ps = ParticleSet(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (n, 1)))
        spec = InteractionSpec(eps1=0.5, eps2=0.3)
        tracemalloc.start()
        try:
            euler_step(ps, spec, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_step_memory_fits_tiles(self):
        """A dense step over 8192 featureless particles allocates a few row
        tiles, not row chunks of tens of MiB."""
        ps = ParticleSet(np.random.default_rng(0).uniform(0, 1, (8192, 2)))
        spec = InteractionSpec(eps1=0.5)
        tracemalloc.start()
        try:
            euler_step(ps, spec, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_quadrant_steps_stay_small(self, monkeypatch):
        """Once each half of the quadrant image collapses within eps1, a step
        allocates O(n), never an n x n float matrix."""
        peaks = []
        step = dynamics.euler_step

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return step(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(dynamics, "euler_step", traced)
        segment(quadrant_image(64), InteractionSpec(eps1=0.5, eps2=0.3,
                                                    sigma_mode="stochastic"))
        n = 64 * 64
        assert len(peaks) == 27
        assert max(peaks) < n * n * 8
        assert sum(p < 2**20 for p in peaks) >= 20


class TestExactEulerCost:
    def test_criterion_3_setting_in_five_seconds(self):
        """Exact Euler at criterion 3's setting (n = 10^4 uniform in 2D,
        eps1 = 0.15, stochastic, dt = 0.5, T = 50, no early stop) runs its
        100 steps in at most 5 s for seed 0.  Gating every pair of the set
        took about 0.2 s a step, so 20 s or more."""
        rng = np.random.default_rng(derive_seed(0, 3))
        ps0 = ParticleSet(rng.uniform(0, 1, (10_000, 2)))
        spec = InteractionSpec(eps1=0.15, sigma_mode="stochastic")
        t0 = time.perf_counter()
        tr = simulate(ps0, spec, IntegratorConfig(dt=0.5, t_final=50.0, stop_tol=0.0))
        wall = time.perf_counter() - t0
        assert tr.final.t == 50.0 and wall <= 5.0


class TestSimulate:
    def test_snapshot_times_and_count(self):
        ps = ParticleSet(np.linspace(0, 1, 8)[:, None])
        cfg = IntegratorConfig(dt=0.25, t_final=1.0, stop_tol=0.0)
        tr = simulate(ps, InteractionSpec(eps1=0.3), cfg)
        times = [t for t, _ in tr.snapshots]
        np.testing.assert_allclose(times, [0, 0.25, 0.5, 0.75, 1.0])

    def test_record_every(self):
        ps = ParticleSet(np.linspace(0, 1, 8)[:, None])
        cfg = IntegratorConfig(dt=0.25, t_final=1.0, stop_tol=0.0, record_every=2)
        tr = simulate(ps, InteractionSpec(eps1=0.3), cfg)
        np.testing.assert_allclose([t for t, _ in tr.snapshots], [0, 0.5, 1.0])

    def test_early_stop_on_fixed_point(self):
        ps = ParticleSet(np.full((6, 1), 0.4))
        tr = simulate(ps, InteractionSpec(eps1=0.5),
                      IntegratorConfig(dt=0.5, t_final=100.0))
        assert tr.terminated_early
        assert tr.snapshots[-1][0] < 100.0

    def test_identical_initial_positions_stay_identical(self):
        ps = ParticleSet(np.full((4, 2), 0.7))
        tr = simulate(ps, InteractionSpec(eps1=0.1),
                      IntegratorConfig(dt=1.0, t_final=3.0, stop_tol=0.0))
        for _, pos in tr.snapshots:
            np.testing.assert_array_equal(pos, ps.positions)

    @pytest.mark.parametrize("run", [
        lambda ps, spec: simulate(ps, spec, IntegratorConfig(
            dt=0.5, t_final=2.5, stop_tol=0.0, record_every=2)),
        lambda ps, spec: simulate(ps.with_positions(np.full((30, 2), 0.5), 0.0),
                                  spec, IntegratorConfig(dt=0.5, t_final=2.5)),
        lambda ps, spec: mfi_simulate(ps, spec, MfiConfig(
            M=3, dt=0.5, t_final=2.5, seed=1, record_every=2)),
    ], ids=["euler", "early-stop", "mfi"])
    def test_final_is_the_end_state(self, run):
        """tr.final is the last snapshot as a ParticleSet: its positions and
        time, with the features of the start."""
        rng = np.random.default_rng(4)
        ps = ParticleSet(rng.uniform(0, 1, (30, 2)), rng.uniform(0, 1, (30, 1)))
        tr = run(ps, InteractionSpec(eps1=0.3, eps2=0.5, sigma_mode="stochastic"))
        t, pos = tr.snapshots[-1]
        assert tr.final.t == t
        np.testing.assert_array_equal(tr.final.positions, pos)
        assert tr.final.features is ps.features

    def test_consensus_with_global_interaction(self):
        rng = np.random.default_rng(2)
        ps = ParticleSet(rng.uniform(0, 1, (50, 1)))
        tr = simulate(ps, InteractionSpec(eps1=2.0),
                      IntegratorConfig(dt=0.5, t_final=40.0))
        final = tr.final.positions
        np.testing.assert_allclose(final, final.mean(), atol=1e-6)
        np.testing.assert_allclose(final.mean(), ps.positions.mean(), atol=1e-10)


def brute_force_components(ps, merge_tol, spec):
    """Reference connected components via BFS over the (n, n) gate with
    merge_tol in place of eps1."""
    close = interaction_mask(ps, InteractionSpec(merge_tol, spec.eps2,
                                                 spec.norm1, spec.norm2))
    n = ps.n
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.nonzero(close[v])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(frozenset(comp))
    return set(comps)


# Two points of R^8 whose coordinates span nine decades, one per norm: at
# eps = distance(0, b), np.sum's pairwise order and the gate's coordinate
# order once put the pair on different sides of eps.
KNIFE_EDGE_R8 = {
    "euclidean": [6.369616873214543e-4, 2.6978671376387032e-5, 4.097352393619469e-5,
                  0.016527635528529094, 8.132702392002724e-7, 0.09127555772777218,
                  0.006066357757671799, 7.294965609839984e-9],
    "manhattan": [6.369616873214542e-06, 2.6978671376387032e-05, 4.0973523936194687e-07,
                  1.6527635528529094e-10, 0.008132702392002724, 9.127555772777216e-08,
                  6.066357757671799e-07, 0.7294965609839984],
}


@pytest.mark.parametrize("norm", sorted(KNIFE_EDGE_R8))
class TestKnifeEdgeR8:
    def case(self, norm):
        ps = ParticleSet([np.zeros(8), KNIFE_EDGE_R8[norm]])
        eps = model.distance(ps.positions[0], ps.positions[1], norm)
        return ps, eps, InteractionSpec(eps1=eps, norm1=norm)

    def test_closed_form_drift_matches_gate(self, norm):
        ps, _, spec = self.case(norm)
        np.testing.assert_allclose(_drift(ps, spec), dense_drift(ps, spec),
                                   rtol=0, atol=1e-18)

    def test_clusters_match_gate(self, norm):
        ps, eps, spec = self.case(norm)
        cs = extract_clusters(ps, eps, spec)
        got = {frozenset(np.flatnonzero(cs.labels == c).tolist())
               for c in range(cs.n_clusters)}
        assert got == brute_force_components(ps, eps, spec)


class TestCellPairs:
    """components compares cells pairwise when they are fewer than the
    stencil's offsets, and walks the stencil otherwise; both agree with the
    brute-force graph."""

    def case(self, d, n, spread):
        rng = np.random.default_rng(d)
        centres = rng.uniform(0, 1, (n // 6, d))
        pos = np.repeat(centres, 6, axis=0) + rng.normal(0, spread, (n // 6 * 6, d))
        return ParticleSet(pos, rng.uniform(0, 1, (pos.shape[0], 1)))

    @pytest.mark.parametrize("norm", ["euclidean", "max", "manhattan"])
    def test_high_dimension_skips_the_stencil(self, monkeypatch, norm):
        """In R^8 the stencil holds at least 5**8 offsets, for 300 points."""
        def no_stencil(*args, **kwargs):
            raise AssertionError("the stencil was walked")
        monkeypatch.setattr(cells, "product", no_stencil)
        ps = self.case(8, 300, 0.02)
        spec = InteractionSpec(eps1=0.1, eps2=0.5, norm1=norm)
        cs = extract_clusters(ps, 0.12, spec)
        got = {frozenset(np.flatnonzero(cs.labels == c).tolist())
               for c in range(cs.n_clusters)}
        assert got == brute_force_components(ps, 0.12, spec)
        assert 50 < len(got) < 300

    def test_many_cells_walk_the_stencil(self, monkeypatch):
        walked = []
        def spy(*args):
            walked.append(True)
            return product(*args)
        monkeypatch.setattr(cells, "product", spy)
        ps = self.case(2, 600, 0.01)
        spec = InteractionSpec(eps1=0.1, eps2=0.5)
        cs = extract_clusters(ps, 0.02, spec)
        got = {frozenset(np.flatnonzero(cs.labels == c).tolist())
               for c in range(cs.n_clusters)}
        assert walked and got == brute_force_components(ps, 0.02, spec)
        assert 50 < len(got) < 600


class TestExtractClusters:
    def test_two_point_masses(self):
        pos = np.array([[0.2]] * 4 + [[0.8]] * 6)
        cs = extract_clusters(ParticleSet(pos), 0.01, InteractionSpec(eps1=0.1))
        assert cs.n_clusters == 2
        got = sorted((round(float(c), 6), w) for c, w in zip(cs.centers[:, 0], cs.weights))
        assert got == [(0.2, 0.4), (0.8, 0.6)]

    def test_single_cluster_at_mean(self):
        rng = np.random.default_rng(3)
        pos = 0.5 + 1e-5 * rng.uniform(-1, 1, (20, 2))
        cs = extract_clusters(ParticleSet(pos), 1e-3, InteractionSpec(eps1=0.1))
        assert cs.n_clusters == 1
        np.testing.assert_allclose(cs.centers[0], pos.mean(axis=0))
        assert cs.weights[0] == 1.0

    def test_center_near_the_largest_double_is_finite(self):
        """Members whose sum overflows still have a finite mean, and the
        steady-state check runs on it, warning nothing."""
        big = 1.7e308
        spec = InteractionSpec(eps1=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = extract_clusters(ParticleSet([[big], [big], [0.0]]), 1e-9, spec)
            assert cs.centers[:, 0].tolist() == [big, 0.0]
            assert verify_steady_state(cs, spec).passed

    @pytest.mark.parametrize("second", [1.7e308, -1.7e308])
    def test_gaps_past_the_largest_double_fail_the_gate_silently(self, second):
        """A gap or a squared gap past the largest double is inf, which
        fails every gate as the exact one would; numpy's overflow warnings
        (in the square, and in the subtraction when the points lie on
        either side of zero) are not reported."""
        big = 1.7e308
        spec = InteractionSpec(eps1=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = extract_clusters(ParticleSet([[big], [second], [0.0]]), 1e-9, spec)
            assert verify_steady_state(cs, spec).passed
        assert cs.centers[:, 0].tolist() == sorted({big, second}, reverse=True) + [0.0]

    def test_feature_gate_splits_colocated_particles(self):
        pos = np.full((6, 1), 0.5)
        feat = np.array([[0.0]] * 3 + [[1.0]] * 3)
        cs = extract_clusters(ParticleSet(pos, feat), 0.01,
                              InteractionSpec(eps1=0.2, eps2=0.3))
        assert cs.n_clusters == 2

    def test_members_partition_and_weights(self):
        rng = np.random.default_rng(4)
        ps = ParticleSet(rng.uniform(0, 1, (40, 2)))
        cs = extract_clusters(ps, 0.15, InteractionSpec(eps1=0.1))
        assert cs.labels.shape == (40,)
        assert set(cs.labels.tolist()) == set(range(cs.n_clusters))
        assert sum(cs.weights) == pytest.approx(1.0)
        for cid, center in enumerate(cs.centers):
            lo = ps.positions[cs.labels == cid].min(axis=0) - 1e-12
            hi = ps.positions[cs.labels == cid].max(axis=0) + 1e-12
            assert np.all(center >= lo) and np.all(center <= hi)

    def test_merge_tol_must_be_positive(self):
        ps = ParticleSet([[0.0]])
        with pytest.raises(ConfigError):
            extract_clusters(ps, -1.0, InteractionSpec(eps1=0.1))

    def test_default_merge_tol_scales_with_domain(self):
        ps = ParticleSet(np.array([[0.0], [10.0]]))
        assert default_merge_tol(ps, InteractionSpec(eps1=1)) == pytest.approx(1e-2)

    @given(grid_cases(), NORM, NORM, st.integers(1, 64))
    @example((ParticleSet([[0.2, 0.3], [0.2, 0.5]]), 0.2, 1.0), "manhattan", "euclidean", 64)
    @example((ParticleSet([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0], [0.5, 0.0], [0.9, 0.9]]),
              0.2, 1.0), "manhattan", "euclidean", 64)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case, norm1, norm2, chunk):
        """Components equal the brute-force graph's, pairs exactly at either
        tolerance included, whatever the size of the cross-check batches."""
        ps, merge_tol, eps2 = case
        spec = InteractionSpec(eps1=0.1, eps2=eps2, norm1=norm1, norm2=norm2)
        with mock.patch.object(model, "_TILE_PAIRS", chunk):
            cs = extract_clusters(ps, merge_tol, spec)
        got = [np.flatnonzero(cs.labels == cid).tolist() for cid in range(cs.n_clusters)]
        assert {frozenset(m) for m in got} == brute_force_components(ps, merge_tol, spec)
        assert [m[0] for m in got] == sorted(m[0] for m in got)

    @given(grid_cases(), NORM, NORM)
    @settings(max_examples=200, deadline=None)
    def test_columns_match_per_cluster_loop(self, case, norm1, norm2):
        """Labels number the brute-force components by their lowest member,
        and the columns equal a cluster-at-a-time reduction over the member
        rows: bit for bit but for a one-column mean, which numpy sums
        pairwise and bincount sequentially."""
        ps, merge_tol, eps2 = case
        spec = InteractionSpec(eps1=0.1, eps2=eps2, norm1=norm1, norm2=norm2)
        cs = extract_clusters(ps, merge_tol, spec)
        want = np.empty(ps.n, dtype=int)
        for cid, comp in enumerate(sorted(brute_force_components(ps, merge_tol, spec),
                                          key=min)):
            want[list(comp)] = cid
        np.testing.assert_array_equal(cs.labels, want)
        weights, centers, fmean, fmin, fmax = cluster_columns(ps, want)
        np.testing.assert_array_equal(cs.weights, weights)
        np.testing.assert_array_equal(cs.feature_min, fmin)
        np.testing.assert_array_equal(cs.feature_max, fmax)
        for got, ref in ((cs.centers, centers), (cs.feature_mean, fmean)):
            assert got.shape == ref.shape
            if ref.shape[1] >= 2:
                np.testing.assert_array_equal(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)



class TestVerifySteadyState:
    def _clusters(self, centers, eps1, feats=None, eps2=np.inf, members=None):
        pos = np.array(centers, dtype=float)
        ps = ParticleSet(pos if pos.ndim == 2 else pos[:, None], feats)
        spec = InteractionSpec(eps1=eps1, eps2=eps2)
        cs = extract_clusters(ps, 1e-9, spec)
        return cs, spec

    @pytest.mark.parametrize("feats", [None, [[0.3]]])
    def test_single_cluster_passes_with_empty_record(self, feats):
        cs, spec = self._clusters([0.5], eps1=0.15, feats=feats, eps2=0.1)
        assert cs.n_clusters == 1
        rep = verify_steady_state(cs, spec)
        assert rep.passed and len(rep.violations) == 0
        assert rep.violations.dtype.names == ("i", "k", "center_distance",
                                              "min_feature_gap")
        assert [rep.violations.dtype[f].kind for f in range(4)] == ["i", "i", "f", "f"]

    def test_far_separation_passes(self):
        cs, spec = self._clusters([0.1, 0.9], eps1=0.15)
        assert verify_steady_state(cs, spec).passed

    def test_near_pair_fails(self):
        cs, spec = self._clusters([0.1, 0.2], eps1=0.15)
        rep = verify_steady_state(cs, spec)
        assert not rep.passed
        assert [(v.i, v.k) for v in rep.violations] == [(0, 1)]

    def test_feature_gap_rescues_near_pair(self):
        cs, spec = self._clusters([0.1, 0.2], eps1=0.15,
                                  feats=np.array([[0.0], [0.5]]), eps2=0.025)
        assert verify_steady_state(cs, spec).passed

    def test_boundary_distance_counts_as_violation(self):
        """Separation must be strictly greater than eps1."""
        cs, spec = self._clusters([0.1, 0.25], eps1=0.15)
        assert not verify_steady_state(cs, spec).passed

    @given(grid_cases(), st.one_of(st.sampled_from([0.1, 0.125, 0.25, 0.3, 0.5, np.inf]),
                                   st.floats(0.01, 1.0)),
           NORM, NORM, st.booleans(), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_report_matches_oracle(self, case, eps1, norm1, norm2, singletons, tile):
        """The tiled check reports the oracle's violations, in its order, with
        its floats, pairs exactly at eps1 or eps2 included."""
        ps, merge_tol, eps2 = case
        spec = InteractionSpec(eps1=eps1, eps2=eps2, norm1=norm1, norm2=norm2)
        cs = extract_clusters(ps, 1e-9 if singletons else merge_tol, spec)
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            rep = verify_steady_state(cs, spec)
        got = [(v.i, v.k, v.center_distance, v.min_feature_gap) for v in rep.violations]
        assert got == steady_state_violations(cs, spec)
        assert rep.passed == (not got)

    @given(grid_cases(d1=st.integers(1, 3)),
           st.sampled_from([0.0, 5e-324, 0.1, 0.125, 0.25, 0.3, np.inf]),
           NORM, NORM, st.booleans(), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_report_matches_oracle_in_3d_and_at_zero_eps(self, case, eps1, norm1, norm2,
                                                         singletons, tile):
        """As above, with 3D centers, whose pool has two row coordinates,
        and with eps1 of 0 and the least subnormal, where only equal centers
        are near."""
        ps, merge_tol, eps2 = case
        spec = InteractionSpec(eps1=eps1, eps2=eps2, norm1=norm1, norm2=norm2)
        cs = extract_clusters(ps, 1e-9 if singletons else merge_tol, spec)
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            rep = verify_steady_state(cs, spec)
        got = [(v.i, v.k, v.center_distance, v.min_feature_gap) for v in rep.violations]
        assert got == steady_state_violations(cs, spec)

    @pytest.mark.parametrize("d2", [1, 2])
    @pytest.mark.parametrize("norm2", ["euclidean", "max", "manhattan"])
    def test_point_feature_pairs_need_no_member_gap(self, d2, norm2):
        """Between clusters whose features are each a single point, the box
        gap is the member gap: no pair takes the member loop, and the report
        is the oracle's."""
        rng = np.random.default_rng(d2)
        # 40 distinct positions, nine of them on eighths, each shared by its
        # cluster's members; features on eighths, so gaps of exactly eps2 occur
        groups = rng.integers(0, 40, 120)
        pos = np.append(np.arange(9) / 8, rng.uniform(0, 1, 31))[groups, None]
        feat = (rng.integers(0, 9, (40, d2)) / 8)[groups]
        spec = InteractionSpec(eps1=0.25, eps2=0.25, norm2=norm2)
        cs = extract_clusters(ParticleSet(pos, feat), 1e-9, spec)
        assert (cs.feature_min == cs.feature_max).all()
        with mock.patch.object(dynamics, "_sorted_gap", side_effect=AssertionError), \
                mock.patch.object(dynamics, "_nearest_distances",
                                  side_effect=AssertionError):
            rep = verify_steady_state(cs, spec)
        got = [(v.i, v.k, v.center_distance, v.min_feature_gap) for v in rep.violations]
        assert got and got == steady_state_violations(cs, spec)

    def test_memory_bounded_for_many_singletons(self):
        """5000 isolated centers are gated in row tiles, never as an
        (m, m, d1) difference array."""
        ps = ParticleSet(np.random.default_rng(1).uniform(0, 1, (5000, 2)))
        spec = InteractionSpec(eps1=1e-6)
        cs = extract_clusters(ps, 1e-9, spec)
        assert cs.n_clusters == 5000
        tracemalloc.start()
        try:
            rep = verify_steady_state(cs, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 32 * 2**20

    def test_isolated_centers_gate_few_pairs(self):
        """The 5000 isolated centers above are gated only against the
        candidates of their cell rows, O(m) pairs, not m(m-1)/2."""
        ps = ParticleSet(np.random.default_rng(1).uniform(0, 1, (5000, 2)))
        spec = InteractionSpec(eps1=1e-6)
        cs = extract_clusters(ps, 1e-9, spec)
        gate, counts = model._gate, []
        def counting(groups, i, j):
            counts.append(np.broadcast(i, j).size)
            return gate(groups, i, j)
        with mock.patch.object(model, "_gate", counting):
            rep = verify_steady_state(cs, spec)
        assert rep.passed
        assert sum(counts) <= cs.n_clusters
