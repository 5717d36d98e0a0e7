"""Random-subset mean-field interaction integrator, O(M*N) per step plus an
O(N log N) cell sort.

Each particle draws M partners uniformly without repetition from a candidate
pool (bcclust.cells, bcclust.rng).  In symmetric mode the pool holds every
particle, the drawn partners outside N_i are dropped, and Abar = (1/M) * the
number kept, the Monte Carlo estimate of the interaction fraction |N_i|/n.
In stochastic mode the partners come from the particle's own neighborhood
N_i \\ {i} (all of it when it holds M or fewer), and Abar = 1: the subset
mean estimates the neighborhood mean, as in Random Batch methods.  Either way
dt * Abar never exceeds 1, and a particle with no qualifying partner holds
still; in stochastic mode that means N_i = {i}.  The subset integrator always
runs to t_final: a subset step's displacement is a random sample, not the
drift, so a small one does not mean the state is stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import candidate_pool
from .model import ConfigError, InteractionSpec, ParticleSet, _gate, _gates
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


def mfi_step(ps: ParticleSet, spec: InteractionSpec, cfg: MfiConfig, k: int) -> ParticleSet:
    """One Monte Carlo step, reading only the step-k state.

    In symmetric mode the full subset M = n-1 at time step dt*(n-1)/n
    reproduces the deterministic Euler step at dt, which the tests use as an
    oracle.
    """
    x = ps.positions
    symmetric = spec.sigma_mode == "symmetric"
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
    return ps.with_positions(x_new, ps.t + cfg.dt)


def mfi_simulate(ps0: ParticleSet, spec: InteractionSpec, cfg: MfiConfig) -> Trajectory:
    """Run the subset algorithm to t_final, recording as the deterministic
    integrator does.  There is no early stop: every run takes
    round(t_final/dt) steps."""
    meta = {"method": "mfi", "M": cfg.M, "dt": cfg.dt, "t_final": cfg.t_final,
            "seed": cfg.seed, "sigma_mode": spec.sigma_mode}
    return _run(ps0, spec, cfg, lambda ps, k: mfi_step(ps, spec, cfg, k), meta)
