"""Cell-list candidate pools: every gated neighborhood lies inside the pool;
the frozen-gate check and the component pool of a frozen gate."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcclust.cells import candidate_pool, component_pool, components, gate_frozen
from bcclust.model import InteractionSpec, ParticleSet, _gates
from oracles import frozen_by_boxes, interaction_mask, neighborhood

from test_rng import gated_sets


def pool_members(pool, i):
    return set().union(*(pool.order[a:b].tolist()
                         for a, b in zip(pool.lo[i], pool.hi[i])))


class TestCandidatePool:
    @given(gated_sets())
    # a euclidean gap whose square underflows to zero passes an eps1 = 0 gate
    @example((ParticleSet([[3e-223, 0.0], [0.0, 0.0]]),
              InteractionSpec(eps1=0.0, sigma_mode="stochastic")))
    @settings(max_examples=150, deadline=None)
    def test_pool_holds_neighborhood(self, case):
        ps, spec = case
        pool = candidate_pool(ps, spec)
        assert sorted(pool.order.tolist()) == list(range(ps.n))
        np.testing.assert_array_equal(pool.order[pool.rank], np.arange(ps.n))
        for i in range(ps.n):
            members = pool_members(pool, i)
            nb = set(neighborhood(ps, i, spec).indices.tolist())
            assert nb <= members
            if pool.exact:
                assert members == nb

    def test_one_gated_coordinate_is_exact(self):
        """1D positions with an ungated feature: the pool is N_i itself,
        including pairs exactly eps apart."""
        x = np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.7, 1.0])
        ps = ParticleSet(x, np.zeros(7))
        spec = InteractionSpec(eps1=0.3, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        assert pool.exact
        for i in range(ps.n):
            assert pool_members(pool, i) == set(neighborhood(ps, i, spec).indices.tolist())

    def test_grid_pool_is_gated(self):
        rng = np.random.default_rng(3)
        ps = ParticleSet(rng.uniform(0, 1, (200, 2)), rng.uniform(0, 1, (200, 1)))
        spec = InteractionSpec(eps1=0.2, eps2=0.1, sigma_mode="stochastic")
        pool = candidate_pool(ps, spec)
        assert not pool.exact
        i = np.arange(ps.n)
        gate = pool.gate(i[:, None], i[None, :])
        for k in range(ps.n):
            np.testing.assert_array_equal(np.nonzero(gate[k])[0],
                                          neighborhood(ps, k, spec).indices)


eighths = st.integers(0, 8).map(lambda v: v / 8)  # exact, so gaps tie eps


@st.composite
def clustered_sets(draw):
    """Particles on a grid of eighths, a few per point, and a spec whose
    eps are eighths too, so box diameters and gaps hit eps exactly."""
    n = draw(st.integers(1, 24))
    d1 = draw(st.integers(1, 2))
    d2 = draw(st.integers(0, 1))
    pos = np.array(draw(st.lists(eighths, min_size=n * d1, max_size=n * d1)))
    feat = np.array(draw(st.lists(eighths, min_size=n * d2, max_size=n * d2)))
    spec = InteractionSpec(
        eps1=draw(st.sampled_from([0.0, 0.125, 0.25, 0.5])),
        eps2=draw(st.sampled_from([0.125, 0.5, np.inf])),
        norm1=draw(st.sampled_from(["euclidean", "max", "manhattan"])),
        norm2=draw(st.sampled_from(["euclidean", "max", "manhattan"])),
        sigma_mode="stochastic")
    return ParticleSet(pos.reshape(n, d1), feat.reshape(n, d2) if d2 else None), spec


def split_by(labels):
    return sorted(sorted(np.flatnonzero(labels == v).tolist()) for v in np.unique(labels))


class TestGateFrozen:
    @given(clustered_sets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_box_oracle(self, case, data):
        """The sweep gives the pair-by-pair answer, on the gate's own
        components and on any other labelling.  When it holds, the parts
        are the components and each is a clique of the gate."""
        ps, spec = case
        groups = _gates(ps.positions, ps.features, spec)
        own = components(groups, ps.n)
        other = np.array(data.draw(st.lists(st.integers(0, 3), min_size=ps.n,
                                            max_size=ps.n)))
        for labels in (own, other):
            frozen = gate_frozen(groups, labels)
            assert frozen == frozen_by_boxes(groups, labels)
            if frozen:
                assert split_by(labels) == split_by(own)
                mask = interaction_mask(ps, spec)
                np.testing.assert_array_equal(mask, labels[:, None] == labels[None, :])

    @pytest.mark.parametrize("norm", ["euclidean", "max", "manhattan"])
    def test_box_diameter_of_exactly_eps_freezes(self, norm):
        x = np.array([[0.0, 0.5], [0.25, 0.5], [1.0, 0.5]])
        assert gate_frozen([(x, 0.25, norm)], np.array([0, 0, 1]))

    @pytest.mark.parametrize("norm", ["euclidean", "max", "manhattan"])
    def test_box_gap_of_exactly_eps_does_not_freeze(self, norm):
        x = np.array([[0.0, 0.5], [0.25, 0.5], [1.0, 0.5]])
        assert not gate_frozen([(x, 0.25, norm)], np.array([0, 1, 2]))

    def test_member_gaps_over_eps_but_box_gap_within(self):
        """A = {(-1, 0), (1, 0)} and B = {(0, 1.9)} at eps = 2: A is a
        clique and both its points are 2.15 from B, so these are the
        components, but A's box is 1.9 from B.  As A collapses to its mean
        (0, 0), it pulls B in, so the gate is not frozen."""
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.9]])
        groups = [(x, 2.0, "euclidean")]
        labels = components(groups, 3)
        np.testing.assert_array_equal(labels, [0, 0, 1])
        assert not gate_frozen(groups, labels)

    def test_parts_apart_by_features_alone(self):
        """Positions in a chain of gaps within eps1, split in two by a
        feature gap over eps2: the parts freeze.  A feature gap within eps2
        joins them, and a part whose features spread over eps2 is no
        clique."""
        spec = InteractionSpec(eps1=0.35, eps2=0.5, sigma_mode="stochastic")
        x = [[0.0], [0.3], [0.6], [0.9]]
        halves = np.array([0, 0, 1, 1])
        for feats, frozen in (([0.0, 0.1, 1.0, 1.0], True), ([0.0, 0.1, 0.55, 1.0], False),
                              ([0.0, 0.6, 2.0, 2.0], False)):
            ps = ParticleSet(x, np.array(feats)[:, None])
            groups = _gates(ps.positions, ps.features, spec)
            assert len(groups) == 2
            assert gate_frozen(groups, halves) == frozen
            assert frozen_by_boxes(groups, halves) == frozen

    def test_many_parts(self):
        """Ten thousand singletons apart, and then one pair among them that
        is not: the sweep finds it wherever it lies."""
        x = np.random.default_rng(1).uniform(0, 1, (10_000, 2))
        assert gate_frozen([(x, 1e-6, "euclidean")], np.arange(10_000))
        for at in (0, 5000, 9998):
            y = x.copy()
            y[at + 1] = y[at] + [5e-7, 0.0]
            assert not gate_frozen([(y, 1e-6, "euclidean")], np.arange(10_000))


class TestComponentPool:
    def test_ranges_are_components(self):
        labels = np.array([4, 0, 4, 2, 0, 4])
        pool = component_pool(labels)
        assert pool.exact and pool.lo.shape == (6, 1)
        np.testing.assert_array_equal(pool.order[pool.rank], np.arange(6))
        for i in range(6):
            assert pool_members(pool, i) == set(np.flatnonzero(labels == labels[i]).tolist())
