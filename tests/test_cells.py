"""Cell-list candidate pools: every gated neighborhood lies inside the pool."""

import numpy as np
from hypothesis import example, given, settings

from bcclust.cells import candidate_pool
from bcclust.model import InteractionSpec, ParticleSet
from oracles import neighborhood

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
