"""Empirical moments and the closed-form oracle for globally coupled runs.

Moments are stored normalized by 1/n throughout (kinetic convention); the raw
sums of the discrete system are n * u and n * E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def first_moment(ps) -> np.ndarray:
    """u = (1/n) sum_i x_i."""
    return ps.positions.mean(axis=0)


def second_moment(ps) -> np.ndarray:
    """E = (1/n) sum_i x_i x_i^T, exactly symmetric.

    A plain reduction rather than x.T @ x: on a tall, thin x the BLAS call
    wakes a helper thread that then spins for CPU time the run never uses.
    The products lie along a contiguous last axis, which numpy sums
    pairwise: as fast as BLAS here, and no less exact."""
    x = np.ascontiguousarray(ps.positions.T)
    e = (x[:, None, :] * x[None, :, :]).sum(axis=-1) / ps.n
    return (e + e.T) / 2


def analytic_global_moments(u0, E0, t: float):
    """Moment evolution under global interactions.

    The first moment is conserved; every second-moment entry relaxes
    exponentially at rate 2 toward the rank-one product of the initial means.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    E0 = np.atleast_2d(np.asarray(E0, dtype=float))
    decay = np.exp(-2.0 * t)
    E = E0 * decay + np.outer(u0, u0) * (1.0 - decay)
    return u0.copy(), E


@dataclass
class MomentRecord:
    """Time series of normalized first and second moments along a trajectory."""

    times: list = field(default_factory=list)
    u: list = field(default_factory=list)
    E: list = field(default_factory=list)

    @classmethod
    def from_snapshot(cls, ps) -> "MomentRecord":
        rec = cls()
        rec.append(ps)
        return rec

    def append(self, ps):
        self.times.append(ps.t)
        self.u.append(first_moment(ps))
        self.E.append(second_moment(ps))

    def __len__(self):
        return len(self.times)


@dataclass
class MomentDriftReport:
    max_first_moment_drift: float
    energy_increases: list  # (t_prev, t_next, k, increase) beyond tolerance
    max_mixed_moment: float
    mixed_moment_bound: float


def moment_drift_report(tr, tol: float = 1e-10) -> MomentDriftReport:
    """Numerical check of conservation/decay laws on a recorded trajectory."""
    rec = tr.moments
    if len(rec) < 2:
        raise ValueError("trajectory needs at least two snapshots")
    u0 = rec.u[0]
    drift = max(float(np.max(np.abs(u - u0))) for u in rec.u)
    d1 = u0.shape[0]
    increases = []
    for a in range(len(rec) - 1):
        for k in range(d1):
            inc = rec.E[a + 1][k, k] - rec.E[a][k, k]
            if inc > tol:
                increases.append((rec.times[a], rec.times[a + 1], k, float(inc)))
    E0 = rec.E[0]
    bound = 0.0
    worst = 0.0
    for k in range(d1):
        for j in range(d1):
            if j == k:
                continue
            b = (E0[k, k] + E0[j, j]) / 2
            m = max(abs(float(E[k, j])) for E in rec.E)
            if m > worst:
                worst, bound = m, b
    if d1 == 1:
        bound = float(E0[0, 0])
        worst = max(abs(float(E[0, 0])) for E in rec.E)
    return MomentDriftReport(drift, increases, worst, bound)
