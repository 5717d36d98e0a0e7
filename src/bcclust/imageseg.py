"""Grayscale segmentation: PGM I/O, pixel/particle mapping, two-level clustering."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .io import _atomic_open
from .model import ClusteringError, ConfigError, InteractionSpec, ParticleSet
from .dynamics import (IntegratorConfig, _check_merge_tol, _end_state_only,
                       default_merge_tol, extract_clusters, simulate)
from .mfi import MfiConfig, mfi_simulate

# Largest pixel count handled by the exact integrator by default.  The limit
# is set by time: a step costs O(|C|^2) time for each static-feature component
# C of the pixels in which a group still gates (model._gates), and O(|C|) for
# each one in which none does, so at this limit a step over one takes seconds.
# All pixels form one component when no gap between sorted intensities
# exceeds eps2.  Memory is no limit: a step keeps row tiles of 1 MiB.
DETERMINISTIC_PIXEL_LIMIT = 2**14


class PgmParseError(ClusteringError):
    """Malformed PGM input; byte_offset points at the offending data."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


@dataclass
class GrayImage:
    """Row-major grid of intensities in [0, 1]."""

    width: int
    height: int
    intensities: np.ndarray  # flat, length width*height
    maxval: int = 255

    def __post_init__(self):
        self.intensities = np.asarray(self.intensities, dtype=float).ravel()
        if self.width < 1 or self.height < 1:
            raise ConfigError("image dimensions must be positive")
        if self.intensities.size != self.width * self.height:
            raise ConfigError(
                f"expected {self.width * self.height} samples, "
                f"got {self.intensities.size}")
        if self.intensities.min() < 0 or self.intensities.max() > 1:
            raise ConfigError("intensities must lie in [0, 1]")
        if not 1 <= self.maxval <= 65535:
            raise ConfigError("maxval must be in [1, 65535]")

    def grid(self) -> np.ndarray:
        return self.intensities.reshape(self.height, self.width)


# One PGM token: a '#' comment to the end of its line, a decimal integer
# (group 1), or any other non-space byte, which is an error.
_TOKEN = re.compile(rb"#[^\n]*|(\d+)|\S")


def _read_ints(data: bytes, pos: int, count: int, name) -> tuple[list, int]:
    """The next count integers of data from pos, skipping whitespace and
    comments, and the offset just past the last one.  A missing integer is
    reported at its offset (the end of data if it is missing altogether) and
    named by name(k), k its index."""
    vals = []
    for m in _TOKEN.finditer(data, pos):
        if m.lastindex:
            vals.append(int(m[1]))
            if len(vals) == count:
                return vals, m.end()
        elif m[0][:1] != b"#":
            raise PgmParseError(f"expected {name(len(vals))}", m.start())
    raise PgmParseError(f"expected {name(len(vals))}", len(data))


def load_grayscale(path) -> GrayImage:
    """Read a P2 (ASCII) or P5 (binary) PGM file; intensity = sample / maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise PgmParseError(f"bad magic {data[:2]!r}, expected P2 or P5", 0)
    binary = data[:2] == b"P5"
    (width, height, maxval), pos = _read_ints(
        data, 2, 3, ("width", "height", "maxval").__getitem__)
    if width < 1 or height < 1:
        raise PgmParseError(f"bad dimensions {width}x{height}", 2)
    if not 1 <= maxval <= 65535:
        raise PgmParseError(f"maxval {maxval} outside [1, 65535]", pos)
    count = width * height
    if binary:
        # exactly one whitespace byte after maxval, then raw samples
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise PgmParseError("expected single whitespace before raster", pos)
        start = pos + 1
        bpp = 2 if maxval > 255 else 1
        need = count * bpp
        if len(data) - start < need:
            missing = (need - (len(data) - start) + bpp - 1) // bpp
            raise PgmParseError(f"raster truncated, {missing} samples missing",
                                len(data))
        raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
        if bpp == 2:  # big-endian two-byte samples
            samples = raw.reshape(-1, 2).astype(np.uint32)
            samples = samples[:, 0] * 256 + samples[:, 1]
        else:
            samples = raw.astype(np.uint32)
    else:
        vals, pos = _read_ints(data, pos, count,
                               lambda k: f"sample {k} of {count}")
        samples = np.array(vals)
    if samples.max(initial=0) > maxval:
        bad = int(np.argmax(samples > maxval))
        raise PgmParseError(f"sample {bad} exceeds maxval {maxval}", pos)
    return GrayImage(width, height, samples / maxval, maxval)


def write_image(img: GrayImage, path, format: str = "P5") -> None:
    """Write a PGM with maxval 255; intensities quantize by round-half-up."""
    if format not in ("P2", "P5"):
        raise ConfigError("format must be 'P2' or 'P5'")
    q = np.floor(np.clip(img.intensities, 0.0, 1.0) * 255 + 0.5).astype(np.uint8)
    header = f"{format}\n{img.width} {img.height}\n255\n".encode()
    if format == "P5":
        payload = header + q.tobytes()
    else:
        lines = []
        for r in range(img.height):
            row = q[r * img.width:(r + 1) * img.width]
            lines.append(" ".join(str(int(v)) for v in row))
        payload = header + ("\n".join(lines) + "\n").encode()
    with _atomic_open(path, binary=True) as fh:
        fh.write(payload)


def image_to_particles(img: GrayImage) -> ParticleSet:
    """One particle per pixel at the pixel center, intensity as static feature.

    Row 0 maps to the top of the unit square (high y); this orientation is
    arbitrary for the clustering metric but fixed for reproducibility.
    """
    cols, rows = np.meshgrid(np.arange(img.width), np.arange(img.height))
    x = (cols.ravel() + 0.5) / img.width
    y = 1.0 - (rows.ravel() + 0.5) / img.height
    return ParticleSet(np.column_stack([x, y]), img.intensities[:, None])


@dataclass
class SegmentationResult:
    labels: np.ndarray  # per-pixel cluster id, flat row-major
    cluster_intensity: np.ndarray  # per-cluster mean of original intensities
    output: GrayImage
    clusters: object  # the underlying ClusterSet


def segment(img: GrayImage, spec: InteractionSpec, method: str = "auto",
            dt: float = 0.5, t_final: float = 50.0, M: int = 10,
            seed: int = 0, stop_tol: float = 1e-8,
            merge_tol: float | None = None) -> SegmentationResult:
    """Cluster pixels by position and intensity, rebuild the image from
    per-cluster means of the original intensities.

    method 'euler' runs the exact integrator, 'mfi' the subset algorithm;
    'auto' picks euler up to 2^14 pixels.  stop_tol is the exact
    integrator's early stop; the subset algorithm runs to t_final.  Every
    setting is checked before the run, which records only its end state.
    """
    if spec.eps1 <= 0 or spec.eps2 <= 0:
        raise ConfigError("segmentation needs positive eps1 and eps2")
    ps0 = image_to_particles(img)
    if method == "auto":
        method = "euler" if ps0.n <= DETERMINISTIC_PIXEL_LIMIT else "mfi"
    if method == "euler":
        cfg, integrate = IntegratorConfig(dt, t_final, stop_tol), simulate
    elif method == "mfi":
        cfg, integrate = MfiConfig(M, dt, t_final, seed), mfi_simulate
    else:
        raise ConfigError(f"unknown method {method!r}")
    tol = default_merge_tol(ps0, spec) if merge_tol is None else _check_merge_tol(merge_tol)
    tr = integrate(ps0, spec, _end_state_only(cfg))
    cs = extract_clusters(tr.final, tol, spec)
    means = cs.feature_mean[:, 0]  # the features are the intensities
    return SegmentationResult(cs.labels, means,
                              GrayImage(img.width, img.height, means[cs.labels]), cs)


def threshold(sr: SegmentationResult, theta: float) -> GrayImage:
    """Binarize: clusters with mean intensity strictly below theta go black."""
    if not 0 <= theta <= 1:
        raise ConfigError("threshold must lie in [0, 1]")
    binary = np.where(sr.cluster_intensity[sr.labels] < theta, 0.0, 1.0)
    return GrayImage(sr.output.width, sr.output.height, binary)
