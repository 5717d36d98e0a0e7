"""Random-subset mean-field interaction integrator, O(M*N) per step.

Each particle draws M partners uniformly without repetition from a candidate
pool (bcclust.cells, bcclust.rng).  In symmetric mode the pool holds every
particle, the drawn partners outside N_i are dropped, and Abar = (1/M) * the
number kept, the Monte Carlo estimate of the interaction fraction |N_i|/n.
In stochastic mode the partners come from the particle's own neighborhood
N_i \\ {i} (all of it when it holds M or fewer), and Abar = 1: the subset
mean estimates the mean over N_i \\ {i}, as in Random Batch methods.  So the
step averages with sigma_i = |N_i| - 1, unlike euler_step's |N_i|, and a row
that takes every partner moves x by |N_i|/(|N_i| - 1) times euler_step's
displacement.  Either way dt * Abar never exceeds 1, and a particle with no
qualifying partner holds still; in stochastic mode that means N_i = {i}.
The subset integrator always runs to t_final: a subset step's displacement
is a random sample, not the drift, so a small one does not mean the state is
stationary.

A stochastic run also carries its gate once the gate is frozen
(cells.gate_frozen).  When a step's cell pool is not exact and the step's own
draws reveal components that pass that check, every later step draws from the
components themselves, one exact range per particle, with no cell pool and no
gate.  Each such step re-checks the state in O(n) and thaws the run if the
check fails.  Either way a step draws once, from one pool.  The draws keep
their law, and a run stays a pure function of (seed, inputs), but from the
first frozen step on its bits depend on the step at which the freeze was
first seen.  Trajectory.metadata["frozen_t"] is the time of the state
certified frozen, or None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import _boxes, _link, candidate_pool, component_pool, gate_frozen
from .model import ConfigError, InteractionSpec, ParticleSet, _gate, _gates, _within
from .rng import RngStream
from .dynamics import Trajectory, _check_schedule, _run


@dataclass(frozen=True)
class MfiConfig:
    M: int
    dt: float
    t_final: float
    seed: int
    record_every: int = 1

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError("subset size M must be at least 1")
        _check_schedule(self)


class _FrozenGate:
    """A stochastic run's gate components, carried between steps once
    cells.gate_frozen certifies them.  since is the time of the certified
    state, or None while the run is thawed."""

    def __init__(self, spec: InteractionSpec):
        self.spec = spec
        self.since = None

    def certify(self, ps: ParticleSet, pool, sub: np.ndarray) -> None:
        """Freeze on the components that a step's (M, n) partner rows, drawn
        from the step's gated pool, reveal, if they pass cells.gate_frozen.

        In a frozen state each N_i is a clique, so every particle is a
        neighbor of its first partner's first partner; that O(n) test comes
        first.  Only when it holds are the first three partners linked
        (cells._link) and the labels checked exactly.
        """
        i = np.arange(ps.n)
        first = np.where(sub[0] >= 0, sub[0], i)
        second = first[first]
        if not all(_within(p, i, second, eps, norm).all() for p, eps, norm in pool.groups):
            return
        edges = sub[:3]
        has = edges >= 0
        labels = _link(i.copy(), np.broadcast_to(i, edges.shape)[has], edges[has])
        if not gate_frozen(pool.groups, labels):
            return
        self.pool = component_pool(labels)
        self.starts, self.comp = np.unique(self.pool.lo[:, 0], return_inverse=True)
        self.lo, self.hi = _boxes(ps.positions, self.pool.order, self.starts)
        self.since = ps.t

    def pool_at(self, ps: ParticleSet):
        """The component pool while the gate is still frozen at ps; None,
        thawing the run, once it is not.

        A component's position box inside its box at the last full check
        keeps (a) and (b) of cells.gate_frozen, so the check costs O(n).  A
        box that rounding grew sends the state back through gate_frozen,
        which then sets the boxes to compare with.
        """
        if self.since is None:
            return None
        lo, hi = _boxes(ps.positions, self.pool.order, self.starts)
        if not ((lo >= self.lo).all() and (hi <= self.hi).all()):
            if not gate_frozen(_gates(ps.positions, ps.features, self.spec), self.comp):
                self.since = None
                return None
            self.lo, self.hi = lo, hi
        return self.pool


def mfi_step(ps: ParticleSet, spec: InteractionSpec, cfg: MfiConfig, k: int,
             _frozen: _FrozenGate | None = None) -> ParticleSet:
    """One Monte Carlo step, reading only the step-k state.

    In symmetric mode the full subset M = n-1 at time step dt*(n-1)/n
    reproduces the deterministic Euler step at dt, which the tests use as an
    oracle.  _frozen may carry a stochastic run's frozen gate, which
    mfi_simulate passes: while it holds, the step draws from its component
    pool, and otherwise from its own cell pool.
    """
    x = ps.positions
    symmetric = spec.sigma_mode == "symmetric"
    pool = None if _frozen is None else _frozen.pool_at(ps)
    if pool is None:
        pool = candidate_pool(ps, InteractionSpec(eps1=np.inf) if symmetric else spec)
    sub = RngStream(cfg.seed).subsets(k, cfg.M, pool).T  # (M, n)
    gates = _gates(x, ps.features, spec) if symmetric else []
    if gates:
        sub = np.where(_gate(gates, np.arange(ps.n), sub), sub, -1)
    # Every partner left is in N_i.  A -1, for a partner dropped by the gate
    # or for the padding of a small neighborhood, picks the zero appended to
    # each coordinate column.
    sw = (sub >= 0).sum(axis=0)
    xsum = np.column_stack([np.append(c, 0.0)[sub].sum(axis=0) for c in x.T])
    abar = sw / cfg.M if symmetric else (sw > 0).astype(float)
    active = sw > 0
    wsum = np.where(active, sw, 1).astype(float)
    xbar = xsum / wsum[:, None]
    step = cfg.dt * abar[:, None] * (xbar - x)
    x_new = np.where(active[:, None], x + step, x)
    # Checked after the arithmetic, when the step's (M, n) temporaries are free
    if _frozen is not None and not pool.exact:
        _frozen.certify(ps, pool, sub)
    return ps.with_positions(x_new, ps.t + cfg.dt)


def mfi_simulate(ps0: ParticleSet, spec: InteractionSpec, cfg: MfiConfig,
                 sink=None) -> Trajectory:
    """Run the subset algorithm to t_final, recording as the deterministic
    integrator does, to sink if one is given (see dynamics._run).  There is
    no early stop: every run takes round(t_final/dt) steps.  A stochastic
    run carries its gate once it is frozen; metadata["frozen_t"] is then the
    time of the state certified frozen, if the run stayed frozen to its end
    state."""
    meta = {"method": "mfi", "M": cfg.M, "dt": cfg.dt, "t_final": cfg.t_final,
            "seed": cfg.seed, "sigma_mode": spec.sigma_mode, "frozen_t": None}
    frozen = None if spec.sigma_mode == "symmetric" else _FrozenGate(spec)
    tr = _run(ps0, spec, cfg, lambda ps, k: mfi_step(ps, spec, cfg, k, frozen), meta,
              sink=sink)
    if frozen is not None:
        frozen.pool_at(tr.final)  # thaws the run if its end state fails the check
        meta["frozen_t"] = frozen.since
    return tr
