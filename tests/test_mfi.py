"""Random-subset integrator: determinism, convexity, oracle equivalence, and
the frozen gate of stochastic runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcclust import mfi
from bcclust.cells import candidate_pool
from bcclust.model import ConfigError, InteractionSpec, ParticleSet
from bcclust.dynamics import euler_step
from bcclust.mfi import MfiConfig, mfi_simulate, mfi_step
from bcclust.rng import RngStream
from bcclust.shapes import NoiseSpec, generate_letter_A, perturb
from oracles import neighborhood

from test_rng import blobs

coord = st.floats(min_value=0, max_value=1, allow_nan=False)


@st.composite
def random_sets(draw, n_min=3, n_max=12, features=False):
    n = draw(st.integers(n_min, n_max))
    d = draw(st.integers(1, 2))
    pos = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    feat = None
    if features:
        feat = np.array(draw(st.lists(coord, min_size=n, max_size=n))).reshape(n, 1)
    return ParticleSet(pos, feat)


class TestMfiConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MfiConfig(M=0, dt=0.5, t_final=1.0, seed=0)
        with pytest.raises(ConfigError):
            MfiConfig(M=5, dt=1.5, t_final=2.0, seed=0)
        with pytest.raises(ConfigError):
            MfiConfig(M=5, dt=0.5, t_final=0.1, seed=0)

    def test_M_larger_than_partners_rejected_at_step(self):
        ps = ParticleSet(np.zeros((4, 1)))
        cfg = MfiConfig(M=4, dt=0.5, t_final=1.0, seed=0)
        for mode in ("symmetric", "stochastic"):
            with pytest.raises(ConfigError):
                mfi_step(ps, InteractionSpec(eps1=1, sigma_mode=mode), cfg, 0)


class TestMfiStep:
    def test_no_qualifying_neighbor_holds_still(self):
        ps = ParticleSet([[0.0], [10.0], [20.0]])
        cfg = MfiConfig(M=2, dt=0.5, t_final=1.0, seed=0)
        nxt = mfi_step(ps, InteractionSpec(eps1=0.1), cfg, 0)
        np.testing.assert_array_equal(nxt.positions, ps.positions)

    def test_stochastic_lone_neighbor_found_every_step(self):
        """The only neighbor among ~1000 particles is drawn on every step.

        A global draw of M=5 partners would find it with probability ~5/999.
        """
        rng = np.random.default_rng(4)
        far = rng.uniform(0.5, 1.0, (1000, 1))
        ps = ParticleSet(np.vstack([[[0.0]], [[0.05]], far]))
        spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
        cfg = MfiConfig(M=5, dt=0.5, t_final=1.0, seed=8)
        for k in range(50):
            nxt = mfi_step(ps, spec, cfg, k)
            assert nxt.positions[0, 0] == pytest.approx(0.025)
            assert nxt.positions[1, 0] == pytest.approx(0.025)

    def test_stochastic_halfway_jump_to_common_point(self):
        """All partners at one point: dt=0.5 moves the particle halfway there."""
        ps = ParticleSet([[0.0], [1.0], [1.0], [1.0]])
        cfg = MfiConfig(M=3, dt=0.5, t_final=1.0, seed=0)
        spec = InteractionSpec(eps1=2.0, sigma_mode="stochastic")
        nxt = mfi_step(ps, spec, cfg, 0)
        assert nxt.positions[0, 0] == pytest.approx(0.5)

    @given(random_sets(features=True), st.integers(0, 50),
           st.sampled_from(["symmetric", "stochastic"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_convex_combination(self, ps, k, mode, data):
        M = data.draw(st.integers(1, ps.n - 1))
        cfg = MfiConfig(M=M, dt=1.0, t_final=2.0, seed=5)
        spec = InteractionSpec(eps1=0.4, eps2=0.4, sigma_mode=mode)
        nxt = mfi_step(ps, spec, cfg, k)
        lo = ps.positions.min(axis=0) - 1e-12
        hi = ps.positions.max(axis=0) + 1e-12
        assert np.all(nxt.positions >= lo[None, :])
        assert np.all(nxt.positions <= hi[None, :])

    def test_symmetric_step_with_every_group_vacuous(self, monkeypatch):
        """Positions within eps1 and features within eps2: no draw is gated,
        every drawn partner counts, and Abar is 1."""
        def no_gate(*args):
            raise AssertionError("a group that gates nothing was applied")
        monkeypatch.setattr(mfi, "_gate", no_gate)
        rng = np.random.default_rng(0)
        ps = ParticleSet(rng.uniform(0, 1, (20, 2)), rng.uniform(0, 1, (20, 1)))
        spec = InteractionSpec(eps1=1.5, eps2=1.0, sigma_mode="symmetric")
        cfg = MfiConfig(M=5, dt=0.5, t_final=1.0, seed=3)
        sub = RngStream(3).subsets(7, 5, candidate_pool(ps, InteractionSpec(eps1=np.inf)))
        x = ps.positions
        np.testing.assert_allclose(mfi_step(ps, spec, cfg, 7).positions,
                                   x + 0.5 * (x[sub].mean(axis=1) - x), rtol=0, atol=1e-15)

    def test_features_shared_not_copied(self):
        rng = np.random.default_rng(0)
        ps = ParticleSet(rng.uniform(0, 1, (8, 1)), rng.uniform(0, 1, (8, 1)))
        cfg = MfiConfig(M=3, dt=0.5, t_final=1.0, seed=1)
        nxt = mfi_step(ps, InteractionSpec(eps1=0.5, eps2=0.5), cfg, 0)
        assert nxt.features is ps.features


class TestOracleEquivalence:
    @given(random_sets(n_min=3, n_max=30, features=True), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_full_subset_rescaled_matches_euler(self, ps, k):
        """M = n-1 at time step dt*(n-1)/n reproduces the deterministic step at dt."""
        spec = InteractionSpec(eps1=0.3, eps2=0.3, sigma_mode="symmetric")
        cfg = MfiConfig(M=ps.n - 1, dt=0.5 * (ps.n - 1) / ps.n, t_final=1.0, seed=3)
        via_mfi = mfi_step(ps, spec, cfg, k)
        via_euler = euler_step(ps, spec, 0.5)
        np.testing.assert_allclose(via_mfi.positions, via_euler.positions,
                                   atol=1e-12, rtol=0)

    @given(random_sets(n_min=2, n_max=30, features=True), st.integers(0, 20),
           st.sampled_from([0.2, 0.3, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_stochastic_step_averages_over_the_other_members(self, ps, k, eps):
        """With M >= max |N_i| - 1 every partner is taken, and the stochastic
        step averages over N_i \\ {i}, sigma_i = |N_i| - 1: its displacement
        is |N_i|/(|N_i| - 1) times euler_step's.  A lone particle holds still."""
        spec = InteractionSpec(eps1=eps, eps2=eps, sigma_mode="stochastic")
        size = np.array([neighborhood(ps, i, spec).count for i in range(ps.n)])
        cfg = MfiConfig(M=max(1, int(size.max()) - 1), dt=0.5, t_final=1.0, seed=3)
        x = ps.positions
        via_mfi = mfi_step(ps, spec, cfg, k).positions
        via_euler = euler_step(ps, spec, cfg.dt).positions
        lone = size == 1
        np.testing.assert_array_equal(via_mfi[lone], x[lone])
        ratio = (size / np.maximum(size - 1, 1))[:, None]
        np.testing.assert_allclose(via_mfi[~lone], (x + ratio * (via_euler - x))[~lone],
                                   atol=1e-12, rtol=0)


class TestMfiSimulate:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(9)
        ps = ParticleSet(rng.uniform(0, 1, (50, 1)))
        spec = InteractionSpec(eps1=0.3, sigma_mode="stochastic")
        cfg = MfiConfig(M=5, dt=0.5, t_final=5.0, seed=77)
        a = mfi_simulate(ps, spec, cfg)
        b = mfi_simulate(ps, spec, cfg)
        assert len(a.snapshots) == len(b.snapshots)
        for (ta, xa), (tb, xb) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            np.testing.assert_array_equal(xa, xb)

    def test_seed_changes_trajectory(self):
        rng = np.random.default_rng(9)
        ps = ParticleSet(rng.uniform(0, 1, (50, 1)))
        spec = InteractionSpec(eps1=0.3, sigma_mode="stochastic")
        a = mfi_simulate(ps, spec, MfiConfig(M=5, dt=0.5, t_final=5.0, seed=1))
        b = mfi_simulate(ps, spec, MfiConfig(M=5, dt=0.5, t_final=5.0, seed=2))
        assert not np.array_equal(a.final.positions, b.final.positions)

    def test_collapsed_set_runs_to_t_final(self):
        """No early stop: a state that no longer moves still takes every step."""
        ps = ParticleSet(np.full((20, 1), 0.3))
        for mode in ("symmetric", "stochastic"):
            spec = InteractionSpec(eps1=0.1, sigma_mode=mode)
            tr = mfi_simulate(ps, spec, MfiConfig(M=5, dt=0.5, t_final=5.0, seed=0))
            assert len(tr.snapshots) == round(5.0 / 0.5) + 1
            assert tr.snapshots[-1][0] == pytest.approx(5.0)
            assert not tr.terminated_early

    def test_metadata_records_seed(self):
        ps = ParticleSet(np.linspace(0, 1, 6)[:, None])
        cfg = MfiConfig(M=2, dt=0.5, t_final=1.0, seed=42)
        tr = mfi_simulate(ps, InteractionSpec(eps1=0.3), cfg)
        assert tr.metadata["seed"] == 42
        assert tr.metadata["method"] == "mfi"

    def test_features_never_move(self):
        rng = np.random.default_rng(10)
        ps = ParticleSet(rng.uniform(0, 1, (30, 1)), rng.uniform(0, 1, (30, 1)))
        spec = InteractionSpec(eps1=0.4, eps2=0.2, sigma_mode="stochastic")
        tr = mfi_simulate(ps, spec, MfiConfig(M=4, dt=0.5, t_final=5.0, seed=0))
        # snapshots only carry positions; the live set shares the feature array
        assert tr.metadata["M"] == 4
        nxt = mfi_step(ps, spec, MfiConfig(M=4, dt=0.5, t_final=5.0, seed=0), 0)
        np.testing.assert_array_equal(nxt.features, ps.features)

    def test_statistical_mean_conservation(self):
        """Symmetric-mode subsampling conserves the mean on average."""
        rng = np.random.default_rng(11)
        drifts = []
        for seed in range(20):
            ps = ParticleSet(rng.uniform(0, 1, (2000, 1)))
            spec = InteractionSpec(eps1=0.5, sigma_mode="symmetric")
            tr = mfi_simulate(ps, spec,
                              MfiConfig(M=10, dt=0.5, t_final=10.0, seed=seed))
            drifts.append(abs(float(tr.final.positions.mean()
                                    - ps.positions.mean())))
        assert np.mean(drifts) <= 5e-3


def certified(ps, spec, cfg, k=0):
    """A frozen gate certified by one step of ps, and that step."""
    frozen = mfi._FrozenGate(spec)
    nxt = mfi_step(ps, spec, cfg, k, frozen)
    assert frozen.since == ps.t
    return frozen, nxt


class TestFrozenGate:
    spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
    cfg = MfiConfig(M=5, dt=0.5, t_final=5.0, seed=21)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_frozen_draws_stay_in_neighborhoods(self, data):
        """Particles on a coarse grid, some on one point, with maybe a
        feature: whenever a run's gate is frozen, each row drawn from its
        component pool holds min(M, |N_i| - 1) distinct partners of N_i,
        the brute-force one."""
        n = data.draw(st.integers(2, 30))
        d1 = data.draw(st.integers(1, 2))
        grid = st.integers(0, 4).map(lambda v: v / 4)
        x = np.array(data.draw(st.lists(grid, min_size=n * d1, max_size=n * d1)))
        x = x + np.array(data.draw(st.lists(st.sampled_from([0.0, 1 / 64]),
                                            min_size=n * d1, max_size=n * d1)))
        feat = None
        if data.draw(st.booleans()):
            feat = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)))
        ps = ParticleSet(x.reshape(n, d1), feat)
        spec = InteractionSpec(eps1=data.draw(st.sampled_from([0.05, 0.2, 0.3])), eps2=0.3,
                               norm1=data.draw(st.sampled_from(["euclidean", "max"])),
                               sigma_mode="stochastic")
        cfg = MfiConfig(M=data.draw(st.integers(1, n - 1)), dt=0.5, t_final=5.0,
                        seed=data.draw(st.integers(0, 2**32)))
        frozen = mfi._FrozenGate(spec)
        for k in range(6):
            pool = frozen.pool_at(ps)
            if pool is not None:
                rows = RngStream(cfg.seed).subsets(k, cfg.M, pool)
                for i in range(n):
                    nb = set(neighborhood(ps, i, spec).indices.tolist()) - {i}
                    picked = rows[i][rows[i] >= 0].tolist()
                    assert len(set(picked)) == len(picked) == min(cfg.M, len(nb))
                    assert set(picked) <= nb
            ps = mfi_step(ps, spec, cfg, k, frozen)

    def test_frozen_partners_lie_in_the_neighborhood(self):
        """Every partner drawn from the component pool of a frozen state is
        in N_i, and each row holds min(M, |N_i| - 1) distinct partners."""
        ps, _ = blobs([40, 6, 1, 25])
        frozen, ps = certified(ps, self.spec, self.cfg)
        for k in range(1, 6):
            pool = frozen.pool_at(ps)
            assert pool is frozen.pool
            rows = RngStream(self.cfg.seed).subsets(k, self.cfg.M, pool)
            for i in range(ps.n):
                nb = set(neighborhood(ps, i, self.spec).indices.tolist()) - {i}
                picked = rows[i][rows[i] >= 0].tolist()
                assert len(set(picked)) == len(picked) == min(self.cfg.M, len(nb))
                assert set(picked) <= nb
            ps = mfi_step(ps, self.spec, self.cfg, k, frozen)

    def test_collapsed_step_keeps_the_bits(self):
        """Components on one point each, of fewer, exactly and more than
        M + 1 members: the step drawn from the component pool equals the
        step drawn from the cell pool bit for bit."""
        sizes = [30, 6, 1, 3, 12]
        centers = np.array([[0.1, 0.7], [0.3, 0.3], [0.7, 0.1], [0.9, 0.9], [1 / 3, 0.9]])
        ps = ParticleSet(np.repeat(centers, sizes, axis=0))
        frozen, _ = certified(ps, self.spec, self.cfg)
        for k in range(1, 4):
            via_frozen = mfi_step(ps, self.spec, self.cfg, k, frozen)
            assert frozen.since is not None
            np.testing.assert_array_equal(via_frozen.positions,
                                          mfi_step(ps, self.spec, self.cfg, k).positions)
            ps = via_frozen

    def test_one_draw_per_step_frozen_or_not(self, monkeypatch):
        """A step calls RngStream.subsets exactly once, from the cell pool
        before the freeze and from the component pool after it, with one
        component collapsed onto a point and two spread."""
        ps = ParticleSet(np.vstack([np.full((12, 2), 0.1), blobs([20, 6])[0].positions + 0.5]))
        frozen = mfi._FrozenGate(self.spec)
        pools, draw = [], RngStream.subsets
        def traced(stream, k, M, pool):
            pools.append(pool)
            return draw(stream, k, M, pool)
        monkeypatch.setattr(RngStream, "subsets", traced)
        for k in range(3):
            ps = mfi_step(ps, self.spec, self.cfg, k, frozen)
            assert len(pools) == 1
            assert (pools[0] is frozen.pool) == (k > 0)
            pools.clear()

    def test_collapsed_rows_beside_drawn_rows(self):
        """One component still spread: its rows are drawn, and the
        collapsed ones keep the bits of a drawn step."""
        x = np.vstack([np.full((12, 2), 0.1), blobs([20])[0].positions + 0.5])
        ps = ParticleSet(x)
        frozen, _ = certified(ps, self.spec, self.cfg)
        via_frozen = mfi_step(ps, self.spec, self.cfg, 3, frozen)
        drawn = mfi_step(ps, self.spec, self.cfg, 3)
        np.testing.assert_array_equal(via_frozen.positions[:12], drawn.positions[:12])
        assert not np.array_equal(via_frozen.positions[12:], ps.positions[12:])

    def test_thaws_when_components_meet(self):
        ps, labels = blobs([10, 10])
        frozen, _ = certified(ps, self.spec, self.cfg)
        x = ps.positions.copy()
        x[labels == 1] -= 0.26  # box gap 0.04 - 0.05 < eps1 in every coordinate
        assert frozen.pool_at(ps.with_positions(x, 1.0)) is None
        assert frozen.since is None
        assert frozen.pool_at(ps) is None

    def test_grown_box_still_apart_is_checked_again(self):
        """A box that grows, as rounding can make one, stays frozen while
        the full check passes, and its new box becomes the reference."""
        ps, labels = blobs([10, 10])
        frozen, _ = certified(ps, self.spec, self.cfg)
        x = ps.positions.copy()
        x[0] = x[labels == 0].min(axis=0) - 1e-3
        assert frozen.pool_at(ps.with_positions(x, 1.0)) is frozen.pool
        assert frozen.since == 0.0
        np.testing.assert_array_equal(frozen.lo[0], x[0])

    def test_symmetric_and_exact_pool_runs_never_freeze(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("the gate was checked for a freeze")
        monkeypatch.setattr(mfi, "gate_frozen", no_check)
        ps2, _ = blobs([30, 20])
        ps1, _ = blobs([30, 20], d=1)
        sym = InteractionSpec(eps1=0.1, sigma_mode="symmetric")
        for ps, spec in ((ps2, sym), (ps1, sym), (ps1, self.spec)):
            tr = mfi_simulate(ps, spec, self.cfg)
            assert tr.metadata["frozen_t"] is None
        monkeypatch.undo()
        assert mfi_simulate(ps2, self.spec, self.cfg).metadata["frozen_t"] == 0.0

    def test_run_matches_direct_steps_until_the_freeze(self):
        """Up to the step that certifies the freeze, a run's steps are
        those of direct mfi_step calls; after it, the draws come from the
        components."""
        rng = np.random.default_rng(2)
        ps = ParticleSet(np.vstack([rng.uniform(0, 0.15, (150, 2)),
                                    rng.uniform(0.6, 0.75, (150, 2))]))
        cfg = MfiConfig(M=5, dt=0.5, t_final=10.0, seed=4)
        tr = mfi_simulate(ps, self.spec, cfg)
        since = tr.metadata["frozen_t"]
        assert since is not None and 0 < since < cfg.t_final
        for k, (t, x) in enumerate(tr.snapshots[:round(since / cfg.dt) + 2]):
            np.testing.assert_array_equal(x, ps.positions)
            ps = mfi_step(ps, self.spec, cfg, k)


class TestFrozenTime:
    def test_letter_a_run_freezes(self):
        pat = generate_letter_A(2000)
        ps = ParticleSet(perturb(pat, NoiseSpec(0.1, "uniform", 3)))
        spec = InteractionSpec(eps1=0.08, sigma_mode="stochastic")
        tr = mfi_simulate(ps, spec, MfiConfig(M=10, dt=0.5, t_final=50.0, seed=5))
        assert 0.0 < tr.metadata["frozen_t"] < 50.0

    def test_1d_run_has_no_freeze_time(self):
        ps = ParticleSet(np.random.default_rng(1).uniform(0, 1, (500, 1)))
        spec = InteractionSpec(eps1=0.15, sigma_mode="stochastic")
        tr = mfi_simulate(ps, spec, MfiConfig(M=10, dt=0.5, t_final=20.0, seed=5))
        assert tr.metadata["frozen_t"] is None
