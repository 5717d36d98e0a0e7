"""Output checks for the benchmark's pipeline runs.

Each check reads one CLI output directory and returns a list of problems; an
empty list means the outputs are correct.  Columns are found by header name,
so added, reordered or renamed extra columns do not fail a check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


def digests(out_dir) -> dict:
    """sha256 of every CSV and PGM file in the directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())
            if p.suffix in (".csv", ".pgm")}


def _header(path: Path) -> list:
    with open(path, newline="") as fh:
        return next(csv.reader(fh), [])


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(out_dir: Path, names) -> list:
    return [f"{name} is missing" for name in names if not (out_dir / name).is_file()]


def check_simulate(out_dir, x0: np.ndarray, snapshots: int) -> list:
    """trajectory.csv holds every snapshot of every particle; weights sum to 1.

    x0 is the (n, d) input positions: the first snapshot must repeat them
    exactly, so a writer that drops digits or rows fails.
    """
    out_dir = Path(out_dir)
    problems = _missing(out_dir, ["trajectory.csv", "clusters.csv"])
    if problems:
        return problems
    n, d = x0.shape
    path = out_dir / "trajectory.csv"
    header = _header(path)
    xcols = [f"x_{k + 1}" for k in range(d)]
    absent = [c for c in ["t", "i", *xcols] if c not in header]
    if absent:
        return [f"trajectory.csv lacks columns {absent}"]
    cols = [header.index(c) for c in ["t", "i", *xcols]]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    except ValueError as exc:
        return [f"trajectory.csv is malformed: {exc}"]
    if data.shape[0] != snapshots * n:
        return [f"trajectory.csv has {data.shape[0]} rows, "
                f"expected {snapshots} snapshots x {n} particles"]
    t, i, x = data[:, 0], data[:, 1], data[:, 2:]
    times, t_index = np.unique(t, return_inverse=True)
    if times.size != snapshots:
        problems.append(f"trajectory.csv has {times.size} snapshot times, "
                        f"expected {snapshots}")
    elif (i < 0).any() or (i >= n).any() or (i != np.floor(i)).any():
        problems.append("trajectory.csv has particle ids outside 0..n-1")
    elif (np.bincount(t_index * n + i.astype(np.int64),
                      minlength=snapshots * n) != 1).any():
        problems.append("trajectory.csv does not list each particle once per snapshot")
    else:
        first = t_index == 0
        order = np.argsort(i[first])
        if not np.array_equal(x[first][order], x0):
            problems.append("first snapshot differs from the input positions")
    if not np.isfinite(x).all() or (x < 0).any() or (x > 1).any():
        problems.append("trajectory.csv has positions outside [0, 1]")
    clusters = _rows(out_dir / "clusters.csv")
    if not clusters or "weight" not in clusters[0]:
        problems.append("clusters.csv has no weight column or no clusters")
    else:
        total = math.fsum(float(r["weight"]) for r in clusters)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"cluster weights sum to {total!r}, not 1")
    return problems


def check_shape(out_dir, runs: int) -> list:
    """sweep.csv has one row per run, each with a finite positive E."""
    out_dir = Path(out_dir)
    problems = _missing(out_dir, ["sweep.csv"])
    if problems:
        return problems
    rows = _rows(out_dir / "sweep.csv")
    if len(rows) != runs:
        return [f"sweep.csv has {len(rows)} rows, expected {runs}"]
    if rows and "E" not in rows[0]:
        return ["sweep.csv lacks column E"]
    for k, r in enumerate(rows):
        try:
            e = float(r["E"])
        except (TypeError, ValueError):
            e = math.nan
        if not (math.isfinite(e) and e > 0):
            problems.append(f"sweep.csv row {k}: E = {r['E']!r} is not finite positive")
    return problems


def read_pgm(path) -> np.ndarray:
    """Samples of a P5 file with maxval <= 255 as a (height, width) array."""
    data = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated header")
        fields.append(data[start:pos])
    if fields[0] != b"P5" or int(fields[3]) > 255:
        raise ValueError(f"{path}: not an 8-bit P5 file")
    w, h = int(fields[1]), int(fields[2])
    raster = data[pos + 1:]
    if len(raster) != w * h:
        raise ValueError(f"{path}: {len(raster)} samples, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def check_segment(out_dir, image: np.ndarray) -> list:
    """Four-quadrant image: two clusters (bright/dark halves), means
    0.125/0.875 within 1e-9, gray levels [32, 223], labels and both PGMs
    consistent pixel by pixel, binary.pgm thresholded at 0.5.  `image` holds
    the input intensities."""
    out_dir = Path(out_dir)
    names = ["clusters.csv", "labels.csv", "segmented.pgm", "binary.pgm"]
    problems = _missing(out_dir, names)
    if problems:
        return problems
    bright = image >= 0.5
    h, w = image.shape

    clusters = _rows(out_dir / "clusters.csv")
    if len(clusters) != 2 or "feature_mean_1" not in clusters[0]:
        problems.append(f"clusters.csv: {len(clusters)} clusters, expected 2 "
                        "with a feature_mean_1 column")
    else:
        means = sorted(float(r["feature_mean_1"]) for r in clusters)
        if abs(means[0] - 0.125) > 1e-9 or abs(means[1] - 0.875) > 1e-9:
            problems.append(f"cluster means {means}, expected [0.125, 0.875]")

    rows = _rows(out_dir / "labels.csv")
    if len(rows) != h * w or (rows and not {"row", "col", "cluster_id"} <= rows[0].keys()):
        problems.append(f"labels.csv: {len(rows)} rows, expected {h * w} with "
                        "row, col and cluster_id columns")
    else:
        labels = np.full((h, w), -1, dtype=np.int64)
        try:
            for r in rows:
                labels[int(r["row"]), int(r["col"])] = int(r["cluster_id"])
        except (ValueError, IndexError):
            labels[:] = -1
        lb, ld = np.unique(labels[bright]), np.unique(labels[~bright])
        if (labels < 0).any() or lb.size != 1 or ld.size != 1 or lb[0] == ld[0]:
            problems.append("labels do not split the pixels into the bright "
                            "and dark halves")

    for name, expect in (("segmented.pgm", np.where(bright, 223, 32)),
                         ("binary.pgm", np.where(bright, 255, 0))):
        try:
            got = read_pgm(out_dir / name)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if got.shape != image.shape or not np.array_equal(got, expect):
            levels = sorted(int(v) for v in np.unique(got))
            problems.append(f"{name}: gray levels {levels} do not match the "
                            f"expected halves {sorted(set(expect.ravel().tolist()))}")
    return problems
