"""Counter-based random streams for reproducible subset sampling.

Every draw is a pure function of (seed, step, particle, slot), so sampled
subsets do not depend on evaluation order or worker count.  The generator is a
splitmix64-style chain of multiply/xor finalizers over 64-bit counters.
Subsets are drawn from a candidate pool (see bcclust.cells): the particle's
own gated neighborhood, every other particle when the pool gates nothing, or
the particle's component once a stochastic run's gate is frozen
(bcclust.mfi).  Keyed draws with repeats skipped serve large pools and a keyed
priority scan small ones, so a draw is a pure function of (seed, step,
particle) given the step's pool.  A frozen run's component pool orders the
candidates unlike the cell pool, so a run's draws depend on the step at which
its freeze was first seen; their law does not, and a run stays a pure
function of (seed, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import _range_pairs
from .model import ConfigError

_U = np.uint64
_GOLDEN = _U(0x9E3779B97F4A7C15)
_C_STEP = _U(0xD2B74407B1CE6E93)
_C_PART = _U(0xCA5A826395121157)
_C_SLOT = _U(0x9E6C63D0876A9A63)
_C_RETRY = _U(0xB5297A4D3BE87F81)
_C_CAND = _U(0x8CB92BA72F3D8DD7)

# Pools of at most _ENUMERATE * M candidates are scanned whole, and so are
# rows still short of M accepted partners after _ROUNDS rounds of keyed draws.
_ENUMERATE = 4
_ROUNDS = 4
# Draws run in blocks of about _BLOCK draws (rows * M), so their (M, rows)
# temporaries stay at 2 MiB whatever n and M are, and the cost per draw does
# not jump once M * n outgrows the caches.  A row does not depend on the other
# rows of its block.
_BLOCK = 1 << 18


def _fmix(z):
    # 64-bit wraparound is intended; numpy warns for scalar operands only.
    # After the first line z is a new array, updated in place.
    with np.errstate(over="ignore"):
        z = z ^ (z >> _U(30))
        z *= _U(0xBF58476D1CE4E5B9)
        z ^= z >> _U(27)
        z *= _U(0x94D049BB133111EB)
        z ^= z >> _U(31)
        return z


def _step_key(seed: int, step: int):
    with np.errstate(over="ignore"):
        return _fmix((_U(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
                     ^ (_U(step) + _U(1)) * _C_STEP)


def _particle_keys(seed: int, step: int, particles):
    base = _step_key(seed, step)
    with np.errstate(over="ignore"):
        return _fmix(base ^ (particles.astype(np.uint64) + _U(1)) * _C_PART)


def _bounded(keys, slots, bound):
    """Uniform integers in [0, bound) keyed by (key, slot).  Exact via rejection.

    bound is a positive integer or an array broadcasting against keys.
    """
    with np.errstate(over="ignore"):
        raw = _fmix(keys ^ (slots + _U(1)) * _C_SLOT)
        b = np.asarray(bound, dtype=np.uint64)
        limit = ~((_U(0) - b) % b)  # 2**64 - (2**64 mod b) - 1: accept raw <= limit
    bad = raw > limit
    while bad.any():
        raw = np.where(bad, _fmix(raw ^ _C_RETRY), raw)
        bad = raw > limit
    return raw % b


def _repeats(c, tail):
    """Mask over the last `tail` rows of c of the entries that equal an
    earlier entry of the same column."""
    rows = c.shape[0]
    dup = np.zeros((tail, c.shape[1]), dtype=bool)
    for t in range(max(1, rows - tail), rows):
        dup[t - rows + tail] = (c[:t] == c[t]).any(axis=0)
    return dup


def _running_count(c, start):
    """start + the number of true entries at or above each entry of c, per
    column.  A loop over rows: np.cumsum along axis 0 is several times slower."""
    out = np.empty(c.shape, dtype=np.int64)
    acc = start.copy()
    for r in range(c.shape[0]):
        acc += c[r]
        out[r] = acc
    return out


@dataclass(frozen=True)
class RngStream:
    """Keyed stream of M-subsets, one per (step, particle)."""

    seed: int

    def subsets(self, step: int, M: int, pool, rows=None) -> np.ndarray:
        """Sampled index rows from a CandidatePool, shape (n, M), one row per
        particle, or one per particle of rows, a nonempty index array, when
        given.

        Each row is an M-subset of N_i \\ {i} drawn uniformly without
        repetition, a pure function of (seed, step, i) given the pool's step
        state, or all of N_i \\ {i} followed by -1 padding when that holds M
        or fewer.  So particle i's row does not depend on which other rows
        are drawn.  The pool of a spec that gates nothing holds every
        particle, so its rows are M-subsets of {0..n-1} \\ {i}.
        """
        n = len(pool.order)
        if not 1 <= M <= n - 1:
            raise ConfigError(f"subset size M={M} is below 1 or exceeds the "
                              f"{n - 1} other particles")
        particles = np.arange(n) if rows is None else rows
        keys = _particle_keys(self.seed, step, particles)
        per = max(1, _BLOCK // M)
        # slices of a whole draw index the pool's arrays without a copy
        parts = [self._from_pool(keys[a:a + per], M, pool, particles[a:a + per],
                                 slice(a, a + per) if rows is None else particles[a:a + per])
                 for a in range(0, particles.size, per)]
        return (parts[0] if len(parts) == 1 else np.hstack(parts)).T

    def _from_pool(self, keys, M, pool, particles, sel):
        # A row's candidates are its pool less i, numbered 0..size-1 in pool
        # order.  Keyed draws with replacement, with repeats skipped, visit
        # them in uniformly random order; the first M that pass the gate are
        # a uniform M-subset of N_i \ {i}.  Round a draws the next M * 2**a
        # slots, for the rows still short of M.
        # Arrays are laid out (slot, row): each slot is one contiguous vector.
        # sel indexes the particles drawn for in the pool's arrays.
        lo, hi = pool.lo[sel], pool.hi[sel]
        lens = hi - lo
        end = np.cumsum(lens, axis=1)
        size = end[:, -1] - 1
        me = end[:, pool.own] - hi[:, pool.own] + pool.rank[sel]
        shift = lo - end + lens  # offset v in range r sits at v + shift_r
        drawn = np.nonzero(size > _ENUMERATE * M)[0]
        first = slice(None) if drawn.size == size.size else drawn
        out_d = np.empty((M, 0), dtype=np.int64)
        got = np.zeros(drawn.size, dtype=np.int64)
        rows = np.arange(drawn.size)  # rows of `drawn` still short of M
        for attempt in range(_ROUNDS):
            if not rows.size:
                break
            d = first if attempt == 0 else drawn[rows]
            K = M << attempt
            slots = np.arange(K - M, 2 * K - M, dtype=np.uint64)
            v = _bounded(keys[d], slots[:, None], size[d]).view(np.int64)
            v += v >= me[d]
            at = v + shift[d, 0]
            for r in range(1, lens.shape[1]):
                at += (v >= end[d, r - 1]) * (shift[d, r] - shift[d, r - 1])
            j = pool.order[at]
            seen = np.concatenate([seen, v]) if attempt else v
            keep = ~_repeats(seen, K)
            if not pool.exact:
                keep &= pool.gate(particles[d], j)
            if attempt == 0:  # a row whose first M draws all count is done
                whole = keep.all(axis=0)
                out_d = np.where(whole, j, -1)
                got[whole] = M
                part = np.nonzero(~whole)[0]
            else:
                part = np.arange(rows.size)
            kp = keep[:, part]
            fill = _running_count(kp, got[rows[part]])
            s, c = np.nonzero(kp & (fill <= M))
            out_d[fill[s, c] - 1, rows[part[c]]] = j[s, part[c]]
            got[rows[part]] = fill[-1].clip(max=M)
            short = got[rows] < M
            rows, seen = rows[short], seen[:, short]
        if drawn.size == len(particles):
            out = out_d
        else:
            out = np.full((M, len(particles)), -1, dtype=np.int64)
            out[:, drawn] = out_d
        scan = np.concatenate([np.nonzero(size <= _ENUMERATE * M)[0], drawn[rows]])
        if scan.size:
            out[:, scan] = self._scan_pool(keys[scan], particles[scan], M, pool,
                                           lo[scan], hi[scan])
        return out

    @staticmethod
    def _scan_pool(keys, particles, M, pool, lo, hi):
        # Gate every candidate and keep the M accepted ones of lowest keyed
        # priority, a uniform M-subset; all of them when M or fewer pass.
        # One sort orders the rows and, within each, the top 64 - b bits of
        # the priority, with b bits for the row; ties (2**(b-64) per pair)
        # keep pool order.
        owner, at = _range_pairs(lo, hi)
        j = pool.order[at]
        i = particles[owner]
        ok = j != i
        if not pool.exact:
            ok &= pool.gate(i, j)
        owner, j = owner[ok], j[ok]
        b = _U(max(1, (len(particles) - 1).bit_length()))
        with np.errstate(over="ignore"):
            prio = _fmix(keys[owner] ^ (j.astype(np.uint64) + _U(1)) * _C_CAND)
        prio >>= b
        prio |= owner.astype(np.uint64) << (_U(64) - b)
        srt = np.argsort(prio, kind="stable")
        owner, j = owner[srt], j[srt]
        place = np.arange(owner.size) - np.searchsorted(owner, owner)
        take = place < M
        out = np.full((M, len(particles)), -1, dtype=np.int64)
        out[place[take], owner[take]] = j[take]
        return out


def derive_seed(*parts: int) -> int:
    """Stable child seed from a tuple of integers."""
    h = _GOLDEN
    with np.errstate(over="ignore"):
        for p in parts:
            h = _fmix((h + _GOLDEN)
                      ^ (_U(int(p) & 0xFFFFFFFFFFFFFFFF) + _U(1)) * _C_PART)
    return int(h)
