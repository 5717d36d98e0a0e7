"""CSV/manifest serialization.  All files are written atomically
(temp file + rename) with comma separators, '.' decimals and a header row.
Floats are written as %.17g, which round-trips every double exactly.

Every table is written by `_write_rows` from uint8 fields: integers
through `_int_fields`, floats through `_g17`, an exact numpy kernel for
'%.17g' % v that gives the same bytes as Python's.  Write a finite x with
1e-10 <= |x| < 1e17 as m * 2**q with m < 2**53; its decimal exponent E
lies in [-10, 16].  The 17 significant digits are
D = round-half-even(m * 5**k * 2**(q + k)) with k = 16 - E, and since
5**k < 2**63 the product m * 5**k is formed exactly as two uint64 words
(the fixed-width integer method of Ryu printf, Adams, OOPSLA 2019).  E is
estimated by log10 and corrected until the truncated D has 17 digits.  The
text follows %g: fixed notation for -4 <= E <= 16, exponential below (as in
1.5e-07), trailing zeros stripped.  Zero, subnormals, nan, infinities and
values outside that range are formatted by '%.17g' % v one at a time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import math
import os
import re
import tempfile
import warnings

import numpy as np

from .model import ClusteringError, ConfigError, ParticleSet, _may_fork

@contextlib.contextmanager
def _atomic_open(path, binary: bool = False):
    """Handle on a temp file that replaces path on success; text mode with
    untranslated newlines, or bytes when binary."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-out-")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


# -- exact %.17g ---------------------------------------------------------------
#
# A value's text is laid out in one 32-byte field of four little-endian
# words, with NUL bytes where it has no character; the NULs are dropped when
# a block of rows is written.  Byte 0 is ',', bytes 1-6 end with a '-' and
# the lead "0." and zeros of -4 <= E <= -1, the first digit is byte 7, and
# the other 16 digits (bytes 8-23) move up one byte past the '.'.  The exponent
# "e-05".."e-10" of E < -4 follows the last digit kept.  All uint64
# arithmetic has np.uint64 operands, so that no mixed operation promotes to
# float64 under numpy's older value-based casting.

_FIELD = 32
_CHUNK = 8192  # values per block: a uint64 temporary is 64 KiB, and
               # model._keep_freed_heap keeps freed heap from being trimmed,
               # so each block reuses the pages of the last
_CASES = 27 * 17  # exponents -10..16 times the index 0..16 of the last nonzero digit

_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_ONE, _HALF64 = np.uint64(1), np.uint64(1 << 63)
_LOW32 = np.uint64(0xFFFFFFFF)
_TEN16, _TEN17 = np.uint64(10**16), np.uint64(10**17)
_POW5 = np.array([5**k for k in range(27)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U32
_ZERO_CHAR = np.uint64(ord("0"))


def _four_digit_tables():
    """'%04d' % v for v < 10**4 as the value of one little-endian uint32
    word, and the number of trailing zeros of that text."""
    v = np.arange(10_000)
    text = (v[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros = (v % 10 == 0).astype(np.intp) + (v % 100 == 0) + (v % 1000 == 0) + (v == 0)
    return text.view("<u4").ravel().astype(np.uint64), zeros


def _layout_tables():
    """Word masks and constant bytes of a field for each case
    (E + 10) * 17 + last: which of the 16 digits after the first stay in
    place (keep) or move up one byte (shift), the '.' and exponent, and
    word 0 with its ',' at byte 0, lead and, in the second half, '-'."""
    e = np.repeat(np.arange(-10, 17), 17)[:, None]
    last = np.tile(np.arange(17), 27)[:, None]
    b = np.arange(_FIELD)
    lead = (e < 0) & (e >= -4)
    dot = np.where(e >= 0, e, np.where(lead, 99, 0))  # '.' follows this digit
    end = 7 + np.where(lead, last + 1, np.where(last > dot, last + 2, dot + 1))
    start = 7 - np.where(lead, 1 - e, 0)  # where "0." or the first digit starts
    keep = (b >= 8) & (b < np.minimum(8 + dot, end))
    shift = (b > 8 + dot) & (b < end)
    text = np.select(
        [lead & (b == start + 1), (b == 8 + dot) & (b < end),
         lead & (b >= start) & (b < 7),
         (e < -4) & (b == end), (e < -4) & (b == end + 1),
         (e < -4) & (b == end + 2), (e < -4) & (b == end + 3)],
        [ord("."), ord("."), ord("0"), ord("e"), ord("-"),
         48 + (-e) // 10, 48 + (-e) % 10])
    text[:, 0] = ord(",")  # start >= 2 leaves byte 1 for the '-'
    minus = np.where(b == start - 1, ord("-"), text)

    def words(a, j):  # word j of each case's 32 bytes
        return a.astype(np.uint8).view("<u8")[:, j].astype(np.uint64)
    keep, shift = 255 * keep, 255 * shift
    return (np.concatenate([words(text, 0), words(minus, 0)]),
            words(keep, 1), words(keep, 2),
            words(shift, 1), words(shift, 2), words(shift, 3),
            words(text, 1), words(text, 2), words(text, 3))


@functools.cache
def _tables():
    """All lookup tables of the kernel, built on first use, not at import."""
    return _four_digit_tables() + _layout_tables()


def _scaled(m, q, e):
    """floor(m * 2**q * 10**(16 - e)) as uint64, and whether rounding it
    half to even adds one, from the exact 128-bit product m * 5**(16 - e)."""
    k = 16 - e
    p0, p1 = _POW5_LO[k], _POW5_HI[k]
    m0, m1 = m & _LOW32, m >> _U32
    lo = m0 * p0
    mid = m0 * p1 + m1 * p0  # < 2**64: m0 * p1 < 2**63 and m1 * p0 < 2**53
    hi = m1 * p1 + (mid >> _U32)
    low = lo + (mid << _U32)
    hi += low < lo
    s = q + k  # the value is the product times 2**s
    up_shift = np.minimum(s + 64, 63).astype(np.uint64)  # 64 - right shift
    d = (hi << up_shift) | (low >> (np.uint64(64) - up_shift))
    # the bits shifted out, at the top of a word: above half, or half and d odd
    up = (low << up_shift) > _HALF64 - (d & _ONE)
    left = s >= 0
    if left.any():  # |x| >= 2**51: the value is an integer below 2**57
        d = np.where(left, low << np.maximum(s, 0).astype(np.uint64), d)
        up &= ~left
    return d, up


def _g17(x, text) -> None:
    """Fill the (len(x), _FIELD) uint8 array text with ',' and '%.17g' % v
    for each v of the 1-d float64 array x, and NUL bytes where the text has
    no character."""
    (digits4, zeros4, head, keep1, keep2, shift1, shift2, shift3,
     text1, text2, text3) = _tables()
    a = np.abs(x)
    exact = (a >= 1e-10) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    mant, q = np.frexp(a)
    m = (mant * 2.0**53).astype(np.uint64)
    q -= 53
    e = np.floor(np.log10(a))
    e = np.clip(e, -10, 16, out=e).astype(np.intp)
    d, up = _scaled(m, q, e)
    bad = np.flatnonzero((d < _TEN16) | (d >= _TEN17))
    while bad.size:  # log10 was one off near a power of ten
        e[bad] += np.where(d[bad] < _TEN16, -1, 1)
        d[bad], up[bad] = _scaled(m[bad], q[bad], e[bad])
        bad = bad[(d[bad] < _TEN16) | (d[bad] >= _TEN17)]
    # No double in [1e-10, 1e17) lies within half a unit of the 17th digit
    # below a power of ten, so rounding up never carries into an 18th digit.
    d = d.astype(np.int64) + up
    first = d // 10**16
    d -= first * 10**16
    hi = d // 10**8
    lo = d - hi * 10**8
    hh = hi // 10**4
    hl = hi - hh * 10**4
    lh = lo // 10**4
    ll = lo - lh * 10**4
    zeros = zeros4[ll]
    for full, g in ((4, lh), (8, hl), (12, hh)):  # all zeros so far: add the next group's
        more = np.flatnonzero(zeros == full)
        zeros[more] += zeros4[g[more]]
    idx = (e + 10) * 17 + 16 - zeros
    g1 = digits4[hh] | (digits4[hl] << _U32)
    g2 = digits4[lh] | (digits4[ll] << _U32)
    out = text.view("<u8")
    out[:, 0] = head[idx + _CASES * (x < 0)] | ((first.astype(np.uint64) + _ZERO_CHAR) << _U56)
    out[:, 1] = (g1 & keep1[idx]) | ((g1 << _U8) & shift1[idx]) | text1[idx]
    out[:, 2] = ((g2 & keep2[idx]) | (((g2 << _U8) | (g1 >> _U56)) & shift2[idx])
                 | text2[idx])
    out[:, 3] = ((g2 >> _U56) & shift3[idx]) | text3[idx]
    for i in np.flatnonzero(~exact):
        s = b",%.17g" % x[i]
        text[i] = 0
        text[i, :len(s)] = np.frombuffer(s, np.uint8)


def _float_fields(x) -> np.ndarray:
    """The fields of the values of x, formatted in blocks of _CHUNK: a row
    per row of x, of one field per value in it (one for 1-d x)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty((flat.size, _FIELD), np.uint8)
    for i in range(0, flat.size, _CHUNK):
        _g17(flat[i:i + _CHUNK], out[i:i + _CHUNK])
    return out.reshape(len(x), _FIELD * math.prod(x.shape[1:]))


def _int_fields(v) -> np.ndarray:
    """(len(v), w) uint8: ',' and the decimal digits of each integer of v,
    then NUL bytes.  A sequence is not made an array first: numpy would
    turn one holding integers on both sides of 2**63 into floats."""
    vals = v.tolist() if isinstance(v, np.ndarray) else v
    text = np.array([b",%d" % k for k in vals], dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _columns(rows, kinds: str) -> list:
    """A block of the table of row tuples: column k as _float_fields when
    kinds[k] is 'f', as _int_fields when it is 'i'."""
    cols = list(zip(*rows)) or [()] * len(kinds)
    return [_float_fields(c) if k == "f" else _int_fields(c)
            for k, c in zip(kinds, cols)]


def _write_rows(path, header, blocks) -> None:
    """The header line, then the rows of each block (see _write_blocks)."""
    with _atomic_open(path, binary=True) as fh:
        fh.write(",".join(header).encode())
        _write_blocks(fh, blocks)
        fh.write(b"\n")


def _write_blocks(fh, blocks) -> None:
    """The rows of each block, a list of uint8 field arrays of one row each
    per table row (or one row, repeated), each field starting with ',' and
    padded with NUL bytes.  A block is assembled in one array, where the ','
    of a row's first field becomes the '\n' ending the row before (the
    header, or the last row written), and written with its NULs dropped; a
    repeated row is stripped of them once, before it is copied."""
    for parts in blocks:
        parts = [p[:, p[0] != 0] if len(p) == 1 else p for p in parts]
        rows = max(len(p) for p in parts)
        width = sum(p.shape[1] for p in parts)
        block = np.empty((rows, width), np.uint8)
        c = 0
        for p in parts:
            block[:, c:c + p.shape[1]] = p
            c += p.shape[1]
        block[:, 0] = ord("\n")
        flat = block.reshape(-1)
        fh.write(flat[flat != 0])


def _read_table(path, *prefixes):
    """The rows of a CSV table with a header line, as a 2-d float array, and
    the number of header columns that start with each prefix.  A header with
    no column of the first prefix is a ConfigError, and a file without rows
    or with a malformed row a ClusteringError, each naming the file."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    counts = [sum(h.startswith(p) for h in header) for p in prefixes]
    if not counts[0]:
        raise ConfigError(f"{path}: no {prefixes[0]}* columns in header")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ClusteringError(f"{path}: {exc}") from None
    if arr.shape[0] == 0:
        raise ClusteringError(f"{path}: no data rows")
    if arr.shape[1] != len(header):
        raise ClusteringError(f"{path}: {arr.shape[1]} columns per row, "
                              f"{len(header)} in the header")
    return arr, counts


# -- trajectory and density: snapshot writers -------------------------------

def _trajectory_table(shape, features: np.ndarray):
    """The header of trajectory.csv, rows (t, i, x_1..x_d1, c_1..c_d2), and
    its blocks(t, positions) for one snapshot, t as its field."""
    n, d1 = shape
    header = (["t", "i"] + [f"x_{k + 1}" for k in range(d1)]
              + [f"c_{k + 1}" for k in range(features.shape[1])])
    index, feats = _int_fields(np.arange(n)), _float_fields(features)
    chunk = max(1, _CHUNK // d1)
    def blocks(t, pos):
        for r in range(0, n, chunk):
            yield [t, index[r:r + chunk], _float_fields(pos[r:r + chunk]), feats[r:r + chunk]]
    return header, blocks


def _density_table(shape, bins: int):
    """The header of density.csv and its blocks(t, positions) for one
    snapshot: the position histogram on the unit box [0, 1]^d1, d1 in
    {1, 2}, with bins bins per axis.  Only positions inside the box are
    counted (the last bin includes 1), so a snapshot's counts sum to n only
    when every particle lies in the box.  Rows are (t, bin, x_center, count)
    in 1D and (t, bin_x, bin_y, x_center, y_center, count) in 2D, bin_y
    varying fastest."""
    n, d1 = shape
    if d1 not in (1, 2):
        raise ConfigError("density histograms support d1 in {1, 2}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = _float_fields((edges[:-1] + edges[1:]) / 2)
    b = np.arange(bins)
    if d1 == 1:
        header = ["t", "bin", "x_center", "count"]
        prefix = np.hstack([_int_fields(b), centers])
        def counts(pos):
            return np.histogram(pos[:, 0], bins=edges)[0]
    else:
        header = ["t", "bin_x", "bin_y", "x_center", "y_center", "count"]
        bx, by = np.repeat(b, bins), np.tile(b, bins)
        prefix = np.hstack([_int_fields(bx), _int_fields(by), centers[bx], centers[by]])
        def counts(pos):
            return np.histogram2d(pos[:, 0], pos[:, 1],
                                  bins=(edges, edges))[0].astype(np.int64).ravel()
    count_text = _int_fields(np.arange(n + 1))
    def blocks(t, pos):
        c = counts(pos)
        for r in range(0, c.size, _CHUNK):
            yield [t, prefix[r:r + _CHUNK], count_text[c[r:r + _CHUNK]]]
    return header, blocks


@contextlib.contextmanager
def snapshot_writer(shape, features, trajectory=None, density=None, bins: int = 100):
    """A function write(t, positions) that appends one snapshot of an
    n-particle set, positions of shape (n, d1), to trajectory.csv (see
    _trajectory_table; features are the static features) and density.csv
    (see _density_table), each written through _atomic_open when its path
    is given.

    Leaving the with block normally is the end record: the last rows are
    ended and both files renamed in place.  Leaving it by an exception
    removes both temp files.  Counts are taken per snapshot and no snapshot
    is kept.  This is the one formatting path of both tables, for the
    simulate command's SnapshotSink and for the writers below.
    """
    # density is opened first and so renamed last: a failed rename of the
    # trajectory removes the density table's temp file too
    tables = []
    if density is not None:
        tables.append((density, *_density_table(shape, bins)))
    if trajectory is not None:
        tables.append((trajectory, *_trajectory_table(shape, features)))
    with contextlib.ExitStack() as files:
        outs = []
        for path, header, blocks in tables:
            fh = files.enter_context(_atomic_open(path, binary=True))
            fh.write(",".join(header).encode())
            outs.append((fh, blocks))

        def write(t, positions) -> None:
            t = _float_fields([t])
            for fh, blocks in outs:
                _write_blocks(fh, blocks(t, positions))
        yield write
        for fh, _ in outs:
            fh.write(b"\n")


def write_trajectory_csv(path, tr, features: np.ndarray) -> None:
    """Rows (t, i, x_1..x_d1, c_1..c_d2) for every snapshot of tr, a run
    that kept them (see snapshot_writer)."""
    with snapshot_writer(tr.snapshots[0][1].shape, features, trajectory=path) as write:
        for t, pos in tr.snapshots:
            write(t, pos)


def read_trajectory_csv(path):
    """Returns (times, list of ParticleSet snapshots)."""
    arr, (d1, d2) = _read_table(path, "x_", "c_")
    times = np.unique(arr[:, 0])
    sets = []
    for t in times:
        block = arr[arr[:, 0] == t]
        block = block[np.argsort(block[:, 1])]
        pos = block[:, 2:2 + d1]
        feat = block[:, 2 + d1:2 + d1 + d2] if d2 else None
        sets.append(ParticleSet(pos, feat, t=t))
    return times, sets


# -- moments ------------------------------------------------------------------

def write_moments_csv(path, record) -> None:
    """Rows (t, u_1..u_d1, upper triangle of E)."""
    d1 = record.u[0].shape[0]
    header = ["t"] + [f"u_{k + 1}" for k in range(d1)]
    pairs = [(k, j) for k in range(d1) for j in range(k, d1)]
    header += [f"E_{k + 1}{j + 1}" for k, j in pairs]
    k, j = np.triu_indices(d1)  # the pairs, in the same order
    table = np.column_stack([record.times, record.u, np.array(record.E)[:, k, j]])
    _write_rows(path, header, [[_float_fields(table)]])


def read_moments_csv(path):
    """Returns (times, u array, E array with the full symmetric matrices)."""
    arr, (d1,) = _read_table(path, "u_")
    times = arr[:, 0]
    u = arr[:, 1:1 + d1]
    pairs = [(k, j) for k in range(d1) for j in range(k, d1)]
    E = np.zeros((len(times), d1, d1))
    for col, (k, j) in enumerate(pairs):
        E[:, k, j] = arr[:, 1 + d1 + col]
        E[:, j, k] = arr[:, 1 + d1 + col]
    return times, u, E


# -- clusters -----------------------------------------------------------------

def write_clusters_csv(path, cs) -> None:
    """Rows (cluster_id, weight, center coords, feature mean/min/max)."""
    d1 = cs.centers.shape[1]
    d2 = cs.features.shape[1]
    header = ["cluster_id", "weight"] + [f"center_{k + 1}" for k in range(d1)]
    for stat in ("mean", "min", "max"):
        header += [f"feature_{stat}_{k + 1}" for k in range(d2)]
    table = np.column_stack([cs.weights, cs.centers, cs.feature_mean,
                             cs.feature_min, cs.feature_max])
    _write_rows(path, header, [[_int_fields(np.arange(len(table))), _float_fields(table)]])


def read_clusters_csv(path):
    """Returns (weights, centers, feature_means) arrays."""
    arr, (d1, d2) = _read_table(path, "center_", "feature_mean_")
    return (arr[:, 1], arr[:, 2:2 + d1], arr[:, 2 + d1:2 + d1 + d2])


# -- steady state -------------------------------------------------------------

def write_steady_state_csv(path, report) -> None:
    """One row per violating cluster pair; an empty body means stationary."""
    header = ["cluster_i", "cluster_k", "center_distance", "min_feature_gap"]
    _write_rows(path, header, [_columns(report.violations.tolist(), "iiff")])


# -- density histograms -------------------------------------------------------

def write_density_csv(path, tr, bins: int) -> None:
    """Per-snapshot position histogram on the unit box [0, 1]^d, d in {1, 2},
    for every snapshot of tr, a run that kept them (see _density_table)."""
    shape = tr.snapshots[0][1].shape
    with snapshot_writer(shape, None, density=path, bins=bins) as write:
        for t, pos in tr.snapshots:
            write(t, pos)


# -- a run's sink: the snapshot writer, forked --------------------------------

_PIPE_BYTES = 2**20  # the pipe holds several snapshots of a 20,000-particle run


class SnapshotSink:
    """The sink of a run (see dynamics._run) that writes trajectory.csv and,
    with density set, density.csv through one snapshot_writer, with its
    arguments.

    Entering the sink forks a writer process, where model._may_fork allows
    it.  The run then sends each snapshot's raw float64 rows over a pipe,
    and the writer formats and writes them while the run steps, so that on
    two CPUs the writing overlaps the run.  Where it may not fork, the sink
    calls snapshot_writer in this process, which gives the same bytes
    without the overlap.  Fork before the run starts: the child then shares
    a small heap.

    Leaving the with block normally is the end record: the files are renamed
    in place once the writer has written every snapshot, and a writer that
    failed (or a pipe that broke) raises ClusteringError with its message.
    Leaving it by an exception closes the pipe without an end record: the
    writer removes its temp files and exits, and is reaped, before the
    exception goes on.  The writer ends with os._exit, so it never returns
    to the caller's code.
    """

    def __init__(self, shape, features: np.ndarray, trajectory, density=None,
                 bins: int = 100):
        self._args = (shape, features, trajectory, density, bins)
        self._pid = None

    def __enter__(self):
        if not _may_fork():
            self._local = snapshot_writer(*self._args)
            self._put = self._local.__enter__()
            return self
        data_r, data_w = os.pipe()
        status_r, status_w = os.pipe()
        import fcntl  # POSIX only, as fork is
        try:
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or a lower pipe-max-size
            pass
        try:
            pid = os.fork()
        except BaseException:
            for fd in (data_r, data_w, status_r, status_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(data_w)
            os.close(status_r)
            _write_from_pipe(data_r, status_w, self._args)
        os.close(data_r)
        os.close(status_w)
        self._pid, self._status = pid, status_r
        self._pipe = os.fdopen(data_w, "wb")
        self._put = self._send
        return self

    def __call__(self, t, positions) -> None:
        self._put(t, positions)

    def _send(self, t, positions) -> None:
        self._pipe.write(b"s" + np.float64(t).tobytes())
        self._pipe.write(np.ascontiguousarray(positions, dtype=np.float64))

    def __exit__(self, kind, exc, tb):
        if self._pid is None:
            return self._local.__exit__(kind, exc, tb)
        try:
            if kind is None:
                self._pipe.write(b"e")
            self._pipe.close()
        except BrokenPipeError:  # the writer has gone; its status says why
            pass
        finally:
            with os.fdopen(self._status, "rb") as fh:
                message = fh.read().decode(errors="replace")
            code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        if code and (kind is None or issubclass(kind, BrokenPipeError)):
            raise ClusteringError(f"snapshot writer: {message or f'exit code {code}'}")
        return False


def _write_from_pipe(data_fd: int, status_fd: int, args) -> None:
    """The forked writer of a SnapshotSink: snapshot_writer(*args) fed from
    the pipe, then os._exit, with status 0 only after the end record.  A
    failure's message goes to status_fd.  Cyclic garbage collection is off:
    a collection would touch, and so copy, every page it shares with the
    parent."""
    gc.disable()
    code = 1
    try:
        shape = args[0]
        buf = np.empty(1 + shape[0] * shape[1])  # t, then the positions
        with os.fdopen(data_fd, "rb") as pipe, snapshot_writer(*args) as write:
            while (tag := pipe.read(1)) == b"s" and pipe.readinto(buf) == buf.nbytes:
                write(buf[0], buf[1:].reshape(shape))
            if tag != b"e":
                raise ClusteringError("the run ended before its last snapshot")
        code = 0
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.write(status_fd, (str(exc) or type(exc).__name__).encode()[:4096])
    finally:
        os._exit(code)


# -- shape sweeps -------------------------------------------------------------

def write_sweep_csv(path, result) -> None:
    _write_rows(path, ["alpha", "eps1", "run", "seed", "E", "n_clusters"],
                [_columns([(r.alpha, r.eps1, r.run, r.seed, r.error, r.n_clusters)
                           for r in result.rows], "ffiifi")])


def write_sweep_summary_csv(path, result) -> None:
    _write_rows(path, ["alpha", "eps1", "mean_E", "mean_n_clusters", "best"],
                [_columns([(s.alpha, s.eps1, s.mean_error, s.mean_clusters, s.best)
                           for s in result.summary], "ffffi")])


# -- segmentation labels ------------------------------------------------------

def write_labels_csv(path, sr) -> None:
    w, h = sr.output.width, sr.output.height
    ints = _int_fields(np.arange(max(w, h, int(sr.labels.max()) + 1)))
    i = np.arange(sr.labels.size)
    _write_rows(path, ["row", "col", "cluster_id"],
                [[ints[i // w], ints[i % w], ints[sr.labels]]])


# -- particles ----------------------------------------------------------------

def write_particles_csv(path, ps) -> None:
    header = ([f"x_{k + 1}" for k in range(ps.d1)]
              + [f"c_{k + 1}" for k in range(ps.d2)])
    _write_rows(path, header, [[_float_fields(np.hstack([ps.positions, ps.features]))]])


def read_particles_csv(path) -> ParticleSet:
    """A particles CSV: header x_1..x_d1, c_1..c_d2, then one row per
    particle.  A nan or inf entry is a ClusteringError, as a malformed row."""
    arr, (d1, d2) = _read_table(path, "x_", "c_")
    try:
        return ParticleSet(arr[:, :d1], arr[:, d1:d1 + d2] if d2 else None)
    except ConfigError as exc:
        raise ClusteringError(f"{path}: {exc}") from None


# -- manifests ----------------------------------------------------------------

_COMMENT = re.compile(r"(?:^|\s)#")


def write_manifest(path, params: dict) -> None:
    """'key = value' lines in key order; a list is written space-separated
    and a None value (unset) is left out."""
    lines = [f"{k} = {' '.join(map(str, v)) if isinstance(v, list) else v}"
             for k, v in sorted(params.items()) if v is not None]
    atomic_write_text(path, "\n".join(lines) + "\n")


def manifest_keeps(value: str) -> bool:
    """Whether read_manifest reads value back from a 'key = value' line: it
    has no line break, no edge whitespace and no '#' opening a comment."""
    return not re.search(r"[\r\n]|^\s|\s$|(?:^|\s)#", value)


def read_manifest(path) -> dict:
    """A manifest or config file's 'key = value' lines as a dict of strings.
    A '#' at the start of a line or after whitespace begins a comment; one
    inside a value (a path such as 'runs/bug#3') is kept."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out
