"""Counter-based subset sampling: determinism, validity, uniformity."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2, chisquare

from bcclust.cells import candidate_pool, component_pool
from bcclust.model import ConfigError, InteractionSpec, ParticleSet, bbox_diameter
from oracles import neighborhood
from bcclust import rng as rng_module
from bcclust.rng import RngStream, derive_seed


def whole_pool(n):
    """The pool of a spec that gates nothing: every particle is a candidate."""
    return candidate_pool(ParticleSet(np.zeros((n, 1))), InteractionSpec(eps1=np.inf))


class TestSubsetValidity:
    @given(st.integers(0, 2**63 - 1), st.integers(0, 1000), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_valid_subsets(self, seed, step, data):
        n = data.draw(st.integers(2, 40))
        M = data.draw(st.integers(1, n - 1))
        rows = RngStream(seed).subsets(step, M, whole_pool(n))
        assert rows.shape == (n, M)
        for i in range(n):
            row = rows[i]
            assert len(set(row.tolist())) == M, "indices must be distinct"
            assert i not in row, "self must be excluded"
            assert row.min() >= 0 and row.max() < n

    def test_full_complement_when_M_is_n_minus_1(self):
        n = 9
        rows = RngStream(3).subsets(0, n - 1, whole_pool(n))
        for i in range(n):
            assert sorted(rows[i].tolist()) == [j for j in range(n) if j != i]

    def test_M_out_of_range(self):
        with pytest.raises(ConfigError):
            RngStream(0).subsets(0, 5, whole_pool(5))
        with pytest.raises(ConfigError):
            RngStream(0).subsets(0, 0, whole_pool(5))

    @pytest.mark.parametrize("M", [100, 150, 400])
    def test_large_M_rows_are_valid_subsets(self, M):
        """Large M against n: the odds that M draws with replacement hold no
        repeat, about exp(-M**2 / 2n), do not slow the draw down."""
        n = 1000
        rows = RngStream(5).subsets(0, M, whole_pool(n))
        assert rows.shape == (n, M)
        assert rows.min() >= 0 and rows.max() < n
        srt = np.sort(rows, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any(), "indices must be distinct"
        assert not (rows == np.arange(n)[:, None]).any(), "self must be excluded"


class TestDeterminism:
    def test_repeated_call_identical(self):
        s = RngStream(42)
        a = s.subsets(7, 5, whole_pool(30))
        b = s.subsets(7, 5, whole_pool(30))
        np.testing.assert_array_equal(a, b)

    def test_single_matches_batch_row(self, monkeypatch):
        """Per-particle draws must not depend on which particles are drawn
        with them: a row drawn alone, one row per block, equals its batch
        row."""
        s = RngStream(11)
        pool = whole_pool(25)
        batch = s.subsets(3, 6, pool)
        monkeypatch.setattr(rng_module, "_BLOCK", 1)
        np.testing.assert_array_equal(s.subsets(3, 6, pool), batch)

    def test_streams_differ_across_keys(self):
        pool = whole_pool(100)
        base = RngStream(1).subsets(0, 10, pool)
        assert not np.array_equal(base, RngStream(2).subsets(0, 10, pool))
        assert not np.array_equal(base, RngStream(1).subsets(1, 10, pool))


class TestUniformity:
    def test_marginal_counts_are_flat(self):
        """Each j != i should be sampled with probability M/(n-1), from
        the whole pool of n-1 > 4M candidates."""
        n, M, steps = 20, 4, 400
        s = RngStream(123)
        pool = whole_pool(n)
        counts = np.zeros((n, n))
        for k in range(steps):
            rows = s.subsets(k, M, pool)
            for i in range(n):
                counts[i, rows[i]] += 1
        expected = steps * M / (n - 1)
        off_diag = counts[~np.eye(n, dtype=bool)]
        # 4-sigma band for a binomial with p = M/(n-1)
        sigma = np.sqrt(steps * (M / (n - 1)) * (1 - M / (n - 1)))
        assert np.all(np.abs(off_diag - expected) < 4.5 * sigma)
        assert counts.diagonal().sum() == 0

    def test_large_M_path_uniformity(self):
        """M = 7 of n - 1 = 9 candidates must stay uniform too."""
        n, M, steps = 10, 7, 600
        s = RngStream(7)
        pool = whole_pool(n)
        counts = np.zeros((n, n))
        for k in range(steps):
            rows = s.subsets(k, M, pool)
            for i in range(n):
                counts[i, rows[i]] += 1
        expected = steps * M / (n - 1)
        off_diag = counts[~np.eye(n, dtype=bool)]
        sigma = np.sqrt(steps * (M / (n - 1)) * (1 - M / (n - 1)))
        assert np.all(np.abs(off_diag - expected) < 4.5 * sigma)


class TestBounded:
    def test_modulo_rejects_its_bias(self):
        """At bound 3 * 2**62 the plain modulo of a 64-bit hash gives the
        values below bound / 3 half the mass instead of a third; rejecting
        the quarter of hashes above the limit, and rehashing them, removes
        that bias."""
        bound = 3 << 62
        keys = rng_module._particle_keys(9, 0, np.arange(60_000))
        v = rng_module._bounded(keys, np.uint64(0), bound)
        assert v.max() < bound
        assert abs((v < bound // 3).mean() - 1 / 3) < 0.01


def exact_pools():
    """Pools whose ranges are exactly N_i, 8 particles apiece, so that each
    row holds s = 7 candidates: the whole pool, a 1D line pool of ten
    clusters and a component pool of ten components."""
    labels = np.repeat(np.arange(10), 8)
    line = ParticleSet((labels + np.tile(np.arange(8) * 0.01, 10))[:, None])
    return {"whole": whole_pool(8),
            "line": candidate_pool(line, InteractionSpec(eps1=0.1, sigma_mode="stochastic")),
            "component": component_pool(labels)}


def gated_stars(copies=10):
    """Ten stars 1.0 apart, each a center, 7 neighbors on a circle of radius
    0.05 and 13 decoys near the corners of its box of side 0.2, at least
    0.106 from it.  At eps1 = 0.1 a center's cell pool holds its 20 other
    members but only the 7 neighbors pass the gate."""
    ring = 0.05 * np.column_stack([np.cos(np.arange(7)), np.sin(np.arange(7))])
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)] * 4)[:13]
    decoys = signs * (0.075 + 0.0015 * np.arange(13))[:, None]
    star = np.vstack([[0.0, 0.0], ring, decoys])
    pos = np.vstack([star + [1.0 * c, 0.0] for c in range(copies)])
    return ParticleSet(pos), np.arange(copies) * len(star)


class TestJointLaw:
    """Each row is a uniform M-subset of N_i \\ {i}: all C(7, 3) subsets of
    a row's 7 candidates are drawn equally often.  A draw whose marginals
    are flat but whose subsets are not, say a run of consecutive
    candidates from a uniform start, can pass a marginal test; it fails
    this one."""

    M, STEPS = 3, 400

    def assert_uniform_subsets(self, pool, neighbors_of, rows):
        subsets = {c: k for k, c in enumerate(combinations(range(7), self.M))}
        counts = np.zeros(len(subsets))
        s = RngStream(31)
        for step in range(self.STEPS):
            drawn = s.subsets(step, self.M, pool)
            for i in rows:
                nb = neighbors_of(i)
                picked = drawn[i].tolist()
                assert len(set(picked)) == self.M and set(picked) <= set(nb)
                counts[subsets[tuple(sorted(nb.index(j) for j in picked))]] += 1
        assert chisquare(counts).pvalue > 1e-6

    @pytest.mark.parametrize("kind", ["whole", "line", "component"])
    def test_exact_pool(self, kind):
        pool = exact_pools()[kind]
        n = len(pool.order)
        self.assert_uniform_subsets(
            pool, lambda i: [j for j in range(8 * (i // 8), 8 * (i // 8) + 8) if j != i],
            range(n))

    def test_gated_cell_pool(self):
        ps, centers = gated_stars()
        spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        assert not pool.exact
        assert ((pool.hi - pool.lo).sum(axis=1)[centers] == 21).all()
        self.assert_uniform_subsets(pool, lambda i: sorted(neighbors(ps, spec, i)), centers)


class TestExactPoolsDrawInOnePass:
    @pytest.mark.parametrize("M", [1, 3, 7, 9])
    def test_no_repeat_check_and_no_scan(self, monkeypatch, M):
        """Exact pools, rows of s > M and of s <= M alike, never reach the
        gated pools' repeat check or scan; a gated pool does."""
        calls = []
        repeats, scan = rng_module._repeats, RngStream._scan_pool
        monkeypatch.setattr(rng_module, "_repeats",
                            lambda *a: calls.append("repeats") or repeats(*a))
        monkeypatch.setattr(RngStream, "_scan_pool",
                            staticmethod(lambda *a: calls.append("scan") or scan(*a)))
        pools = exact_pools()
        rng = np.random.default_rng(2)
        feat = ParticleSet(rng.uniform(0, 1, (60, 2)), rng.uniform(0, 1, (60, 1)))
        pools["feature line"] = candidate_pool(
            feat, InteractionSpec(eps1=2.0, eps2=0.1, sigma_mode="stochastic"))
        for name, pool in pools.items():
            assert pool.exact, name
            RngStream(4).subsets(0, min(M, len(pool.order) - 1), pool)
        assert calls == []
        ps, _ = gated_stars(2)
        gated = candidate_pool(ps, InteractionSpec(eps1=0.1))
        RngStream(4).subsets(0, 3, gated)  # a star's center: 20 > 4 * 3 candidates
        RngStream(4).subsets(0, 7, gated)  # every row: at most 4 * 7 candidates
        assert set(calls) == {"repeats", "scan"}


coord = st.floats(min_value=0, max_value=1, allow_nan=False)


@st.composite
def gated_sets(draw):
    """Small particle sets with a spec gating positions and maybe features."""
    n = draw(st.integers(2, 40))
    d1 = draw(st.integers(1, 2))
    d2 = draw(st.integers(0, 1))
    pos = np.array(draw(st.lists(coord, min_size=n * d1, max_size=n * d1)))
    feat = np.array(draw(st.lists(coord, min_size=n * d2, max_size=n * d2)))
    spec = InteractionSpec(
        eps1=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, np.inf])),
        eps2=draw(st.sampled_from([0.1, 0.3, np.inf])),
        norm1=draw(st.sampled_from(["euclidean", "max", "manhattan"])),
        norm2=draw(st.sampled_from(["euclidean", "max", "manhattan"])),
        sigma_mode="stochastic")
    return ParticleSet(pos.reshape(n, d1), feat.reshape(n, d2) if d2 else None), spec


def neighbors(ps, spec, i):
    """N_i minus i, by brute force."""
    return set(neighborhood(ps, i, spec).indices.tolist()) - {i}


class TestNeighborhoodSubsets:
    @given(gated_sets(), st.integers(0, 2**63 - 1), st.integers(0, 1000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_valid_neighborhood_subsets(self, case, seed, step, data):
        ps, spec = case
        M = data.draw(st.integers(1, ps.n - 1))
        rows = RngStream(seed).subsets(step, M, candidate_pool(ps, spec))
        assert rows.shape == (ps.n, M)
        for i in range(ps.n):
            nb = neighbors(ps, spec, i)
            picked = [j for j in rows[i].tolist() if j >= 0]
            assert rows[i, len(picked):].tolist() == [-1] * (M - len(picked)), \
                "padding must trail"
            assert len(set(picked)) == len(picked), "indices must be distinct"
            assert set(picked) <= nb, "partners must lie in N_i, which excludes i"
            if len(nb) <= M:
                assert set(picked) == nb, "a small neighborhood is taken whole"
            else:
                assert len(picked) == M

    def test_sparse_gate_in_large_pool(self):
        """Two neighbors beside a dense cluster that shares their cells but
        fails the gate: the draws find few partners and the pool is scanned."""
        rng = np.random.default_rng(5)
        cluster = np.column_stack([np.full(300, 0.62), rng.uniform(0.49, 0.51, 300)])
        pos = np.vstack([[[0.5, 0.5], [0.52, 0.5], [0.5, 0.52]], cluster])
        ps = ParticleSet(pos)
        spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        assert pool.hi[0].sum() - pool.lo[0].sum() > 300
        for step in range(20):
            row = RngStream(1).subsets(step, 10, pool)[0]
            assert sorted(row.tolist()) == [-1] * 8 + [1, 2]

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("d1, d2", [(1, 0), (2, 1)])
    def test_blocks_match_one_block(self, monkeypatch, block, d1, d2):
        """Rows drawn a few at a time, or one at a time, equal the rows
        drawn all at once."""
        rng = np.random.default_rng(4)
        ps = ParticleSet(rng.uniform(0, 1, (300, d1)),
                         rng.uniform(0, 1, (300, d2)) if d2 else None)
        spec = InteractionSpec(eps1=0.3, eps2=0.5, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        s = RngStream(8)
        whole = s.subsets(2, 6, pool)
        monkeypatch.setattr(rng_module, "_BLOCK", block)
        np.testing.assert_array_equal(s.subsets(2, 6, pool), whole)

    @given(gated_sets(), st.integers(0, 2**63 - 1), st.integers(0, 1000), st.integers(0, 99))
    @example((ParticleSet([[0.0], [0.25], [1.0]], [[0.0], [0.5], [0.75]]),
              InteractionSpec(eps1=0.0, eps2=0.25, sigma_mode="stochastic")), 0, 0, 0)
    @settings(max_examples=150, deadline=None)
    def test_position_gate_at_box_diameter_is_vacuous(self, case, seed, step, m):
        """eps1 equal to the position box diameter passes every pair, so the
        pool is exactly N_i: the feature line pool when one feature column
        gates, the whole set when nothing does."""
        ps, spec = case
        spec = replace(spec, eps1=bbox_diameter(ps.positions, spec.norm1))
        pool = candidate_pool(ps, spec)
        assert pool.exact and pool.lo.shape[1] == 1
        M = 1 + m % (ps.n - 1)
        rows = RngStream(seed).subsets(step, M, pool)
        for i in range(ps.n):
            nb = neighbors(ps, spec, i)
            assert set(pool.order[pool.lo[i, 0]:pool.hi[i, 0]].tolist()) - {i} == nb
            picked = set(rows[i][rows[i] >= 0].tolist())
            assert picked <= nb and len(picked) == min(M, len(nb))

    @pytest.mark.parametrize("n, d1, eps1", [(200, 1, 0.5), (60, 1, 0.4), (150, 2, 0.4)])
    def test_marginal_counts_are_flat(self, n, d1, eps1):
        """Each j in N_i \\ {i} is sampled with probability M/|N_i \\ {i}|.

        The cases cover exact 1D pools, large and small against 4M, and 2D
        pools whose corners the gate rejects.
        """
        ps = ParticleSet(np.random.default_rng(n).uniform(0, 1, (n, d1)))
        spec = InteractionSpec(eps1=eps1, sigma_mode="stochastic")
        assert_flat(ps, spec, candidate_pool(ps, spec))

    @pytest.mark.parametrize("d1", [1, 2])
    def test_feature_line_pool_is_flat(self, d1):
        """Positions all within eps1 and one feature column that gates: the
        pool is the exact feature line pool, and its draws are uniform."""
        rng = np.random.default_rng(d1)
        ps = ParticleSet(rng.uniform(0, 1, (150, d1)), rng.uniform(0, 1, (150, 1)))
        spec = InteractionSpec(eps1=2.0, eps2=0.3, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        assert pool.exact and pool.lo.shape[1] == 1
        assert_flat(ps, spec, pool)


def blobs(sizes, d=2, seed=0):
    """Groups of particles in boxes 0.05 wide, 0.3 apart along the
    diagonal, and their labels: a frozen gate at eps1 = 0.1 in every norm."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    x = 0.3 * labels[:, None] + rng.uniform(0, 0.05, (labels.size, d))
    return ParticleSet(x), labels


class TestComponentPool:
    def test_component_pool_is_flat(self):
        """The pool of a frozen gate, one range per particle, is drawn from
        uniformly, each row over its own component."""
        ps, labels = blobs([60, 45, 30])
        spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
        assert_flat(ps, spec, component_pool(labels))

    @pytest.mark.parametrize("block", [1, 7, 1 << 18])
    def test_rows_drawn_alone_equal_the_full_draw(self, monkeypatch, block):
        """The full draw is the same whatever _BLOCK is, down to one row
        drawn alone per block, from a cell pool or a component pool."""
        ps, labels = blobs([60, 3, 30, 1])
        spec = InteractionSpec(eps1=0.1, sigma_mode="stochastic")
        s = RngStream(5)
        for pool in (candidate_pool(ps, spec), component_pool(labels)):
            whole = s.subsets(4, 6, pool)
            monkeypatch.setattr(rng_module, "_BLOCK", block)
            np.testing.assert_array_equal(s.subsets(4, 6, pool), whole)
            monkeypatch.undo()


def assert_flat(ps, spec, pool, M=4, steps=400):
    """Pearson test that each row's draws are uniform over N_i \\ {i}."""
    n = ps.n
    s = RngStream(123)
    counts = np.zeros((n, n))
    for k in range(steps):
        rows = s.subsets(k, M, pool)
        for i in range(n):
            counts[i, rows[i][rows[i] >= 0]] += 1
    checked = 0
    for i in range(n):
        nb = sorted(neighbors(ps, spec, i))
        if len(nb) <= M:
            continue
        assert counts[i].sum() == counts[i, nb].sum() == steps * M
        # Pearson statistic of an M-of-K draw without repetition; the
        # per-slot variance is reduced by the factor 1 - M/K
        p = M / len(nb)
        stat = ((counts[i, nb] - steps * p) ** 2).sum() / (steps * p * (1 - p))
        assert chi2.sf(stat, len(nb) - 1) > 1e-6, f"row {i} is not flat"
        checked += 1
    assert checked > n // 2


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_distinct_chains(self):
        seen = {derive_seed(s, i) for s in range(20) for i in range(20)}
        assert len(seen) == 400

    def test_in_uint64_range(self):
        for parts in [(0,), (2**63, 5), (123456789, 0, 7)]:
            v = derive_seed(*parts)
            assert 0 <= v < 2**64
