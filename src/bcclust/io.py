"""CSV/manifest serialization.  All files are written atomically
(temp file + rename) with comma separators, '.' decimals and a header row.
Floats are written as %.17g, which round-trips every double exactly."""

from __future__ import annotations

import contextlib
import csv
import os
import tempfile

import numpy as np

from .model import ConfigError, ParticleSet

_FLOAT_FMT = "%.17g"


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _FLOAT_FMT % v
    return str(v)


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


def _write_blocks(path, header, blocks) -> None:
    """Header line, then each block of formatted rows.  Blocks stream to the
    file, so memory stays flat for large trajectories."""
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _write_csv(path, header, rows) -> None:
    """Small tables: each value of each row formatted by _fmt."""
    _write_blocks(path, header, (",".join(map(_fmt, row)) + "\n" for row in rows))


def _snapshot_blocks(tr, rows, values):
    """One block per snapshot (t, pos) of tr: every row of the template list
    rows is prefixed by the time column, then all rows are filled in one %
    operation from the flattened array values(pos)."""
    for t, pos in tr.snapshots:
        tcol = _FLOAT_FMT % t + ","
        block = tcol + tcol.join(rows)
        yield block % tuple(values(pos).ravel().tolist())


# -- trajectory ---------------------------------------------------------------

def write_trajectory_csv(path, tr, features: np.ndarray) -> None:
    """Rows (t, i, x_1..x_d1, c_1..c_d2) for every snapshot."""
    n, d1 = tr.snapshots[0][1].shape
    d2 = features.shape[1]
    header = (["t", "i"] + [f"x_{k + 1}" for k in range(d1)]
              + [f"c_{k + 1}" for k in range(d2)])
    slots = ",".join([_FLOAT_FMT] * (d1 + d2))
    rows = [f"{i},{slots}\n" for i in range(n)]
    _write_blocks(path, header, _snapshot_blocks(
        tr, rows, lambda pos: np.hstack([pos, features])))


def read_trajectory_csv(path):
    """Returns (times, list of ParticleSet snapshots)."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        d1 = sum(1 for h in header if h.startswith("x_"))
        d2 = sum(1 for h in header if h.startswith("c_"))
        if d1 < 1:
            raise ConfigError(f"{path}: no position columns in header")
        data = [[float(v) for v in row] for row in rd]
    arr = np.asarray(data)
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
    rows = ([t, *u, *[E[k, j] for k, j in pairs]]
            for t, u, E in zip(record.times, record.u, record.E))
    _write_csv(path, header, rows)


def read_moments_csv(path):
    """Returns (times, u array, E array with the full symmetric matrices)."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        d1 = sum(1 for h in header if h.startswith("u_"))
        data = [[float(v) for v in row] for row in rd]
    arr = np.asarray(data)
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
    d1 = cs.centers().shape[1] if cs.n_clusters else 0
    d2 = cs.features.shape[1]
    header = ["cluster_id", "weight"] + [f"center_{k + 1}" for k in range(d1)]
    for stat in ("mean", "min", "max"):
        header += [f"feature_{stat}_{k + 1}" for k in range(d2)]
    def rows():
        for cid, c in enumerate(cs.clusters):
            yield [cid, c.weight, *c.center, *c.feature_mean,
                   *c.feature_min, *c.feature_max]
    _write_csv(path, header, rows())


def read_clusters_csv(path):
    """Returns (weights, centers, feature_means) arrays."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        d1 = sum(1 for h in header if h.startswith("center_"))
        d2 = sum(1 for h in header if h.startswith("feature_mean_"))
        data = [[float(v) for v in row] for row in rd]
    arr = np.asarray(data).reshape(len(data), -1)
    return (arr[:, 1], arr[:, 2:2 + d1], arr[:, 2 + d1:2 + d1 + d2])


# -- steady state -------------------------------------------------------------

def write_steady_state_csv(path, report) -> None:
    """One row per violating cluster pair; an empty body means stationary."""
    header = ["cluster_i", "cluster_k", "center_distance", "min_feature_gap"]
    rows = ([v.i, v.k, v.center_distance, v.min_feature_gap]
            for v in report.violations)
    _write_csv(path, header, rows)


# -- density histograms -------------------------------------------------------

def write_density_csv(path, tr, bins: int, lo: float = 0.0, hi: float = 1.0) -> None:
    """Per-snapshot position histogram on [lo, hi]^d, d in {1, 2}.

    Only positions inside [lo, hi]^d are counted (the last bin includes hi);
    a snapshot's counts sum to n only when every particle lies in the box.
    Rows are (t, bin, x_center, count) in 1D and
    (t, bin_x, bin_y, x_center, y_center, count) in 2D, bin_y varying fastest.
    """
    d1 = tr.snapshots[0][1].shape[1]
    if d1 not in (1, 2):
        raise ConfigError("density histograms support d1 in {1, 2}")
    edges = np.linspace(lo, hi, bins + 1)
    centers = [_FLOAT_FMT % c for c in (edges[:-1] + edges[1:]) / 2]
    if d1 == 1:
        header = ["t", "bin", "x_center", "count"]
        rows = [f"{b},{centers[b]},%d\n" for b in range(bins)]
        def counts(pos):
            return np.histogram(pos[:, 0], bins=edges)[0]
    else:
        header = ["t", "bin_x", "bin_y", "x_center", "y_center", "count"]
        rows = [f"{bx},{by},{centers[bx]},{centers[by]},%d\n"
                for bx in range(bins) for by in range(bins)]
        def counts(pos):
            return np.histogram2d(pos[:, 0], pos[:, 1],
                                  bins=(edges, edges))[0].astype(np.int64)
    _write_blocks(path, header, _snapshot_blocks(tr, rows, counts))


# -- shape sweeps -------------------------------------------------------------

def write_sweep_csv(path, result) -> None:
    _write_csv(path, ["alpha", "eps1", "run", "seed", "E", "n_clusters"],
               ([r.alpha, r.eps1, r.run, r.seed, r.error, r.n_clusters]
                for r in result.rows))


def write_sweep_summary_csv(path, result) -> None:
    _write_csv(path, ["alpha", "eps1", "mean_E", "mean_n_clusters", "best"],
               ([s.alpha, s.eps1, s.mean_error, s.mean_clusters, int(s.best)]
                for s in result.summary))


# -- segmentation labels ------------------------------------------------------

def write_labels_csv(path, sr) -> None:
    w = sr.output.width
    _write_csv(path, ["row", "col", "cluster_id"],
               ([i // w, i % w, int(lab)] for i, lab in enumerate(sr.labels)))


# -- particles ----------------------------------------------------------------

def write_particles_csv(path, ps) -> None:
    header = ([f"x_{k + 1}" for k in range(ps.d1)]
              + [f"c_{k + 1}" for k in range(ps.d2)])
    rows = ([*ps.positions[i], *ps.features[i]] for i in range(ps.n))
    _write_csv(path, header, rows)


def read_particles_csv(path) -> ParticleSet:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        d1 = sum(1 for h in header if h.startswith("x_"))
        d2 = sum(1 for h in header if h.startswith("c_"))
        if d1 < 1:
            raise ConfigError(f"{path}: no position columns in header")
        data = [[float(v) for v in row] for row in rd]
    arr = np.asarray(data)
    return ParticleSet(arr[:, :d1], arr[:, d1:d1 + d2] if d2 else None)


# -- manifests ----------------------------------------------------------------

def write_manifest(path, params: dict) -> None:
    """'key = value' lines in key order; a None value (unset) is left out."""
    lines = [f"{k} = {v}" for k, v in sorted(params.items()) if v is not None]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    """A manifest or config file's 'key = value' lines as a dict of strings."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out
