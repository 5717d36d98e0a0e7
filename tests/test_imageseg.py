"""PGM parsing/writing, pixel mapping, segmentation and thresholding."""

import tracemalloc

import numpy as np
import pytest

from bcclust.model import ConfigError, InteractionSpec
from bcclust.imageseg import (
    GrayImage,
    PgmParseError,
    image_to_particles,
    load_grayscale,
    segment,
    threshold,
    write_image,
)


def write_bytes(tmp_path, name, payload):
    p = tmp_path / name
    p.write_bytes(payload)
    return p


class TestGrayImage:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GrayImage(0, 4, np.zeros(0))
        with pytest.raises(ConfigError):
            GrayImage(2, 2, np.zeros(3))
        with pytest.raises(ConfigError):
            GrayImage(2, 2, np.array([0.0, 0.5, 1.0, 1.5]))
        with pytest.raises(ConfigError):
            GrayImage(1, 1, np.zeros(1), maxval=0)

    def test_grid_shape(self):
        img = GrayImage(3, 2, np.linspace(0, 1, 6))
        assert img.grid().shape == (2, 3)


class TestLoadPgm:
    def test_p2_basic(self, tmp_path):
        p = write_bytes(tmp_path, "a.pgm", b"P2\n2 2\n255\n0 255\n128 64\n")
        img = load_grayscale(p)
        assert (img.width, img.height, img.maxval) == (2, 2, 255)
        np.testing.assert_allclose(img.intensities,
                                   np.array([0, 255, 128, 64]) / 255)

    def test_p5_basic(self, tmp_path):
        p = write_bytes(tmp_path, "b.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_grayscale(p)
        np.testing.assert_allclose(img.intensities,
                                   np.array([0, 255, 128, 64]) / 255)

    def test_comments_anywhere_in_header(self, tmp_path):
        raw = b"P2\n# a comment\n2 # width\n1\n# another\n10\n5 10\n"
        img = load_grayscale(write_bytes(tmp_path, "c.pgm", raw))
        np.testing.assert_allclose(img.intensities, [0.5, 1.0])

    def test_16bit_big_endian(self, tmp_path):
        raw = b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0xFF, 0xFF])
        img = load_grayscale(write_bytes(tmp_path, "d.pgm", raw))
        np.testing.assert_allclose(img.intensities, [256 / 65535, 1.0])

    def test_bad_magic(self, tmp_path):
        with pytest.raises(PgmParseError) as e:
            load_grayscale(write_bytes(tmp_path, "e.pgm", b"P6\n1 1\n255\n\x00"))
        assert e.value.byte_offset == 0

    def test_truncated_raster_reports_missing(self, tmp_path):
        with pytest.raises(PgmParseError) as e:
            load_grayscale(write_bytes(tmp_path, "f.pgm", b"P5\n2 2\n255\n\x00\x01"))
        assert "2 samples missing" in str(e.value)

    def test_sample_exceeds_maxval(self, tmp_path):
        with pytest.raises(PgmParseError):
            load_grayscale(write_bytes(tmp_path, "g.pgm", b"P2\n1 1\n10\n11\n"))

    def test_maxval_out_of_range(self, tmp_path):
        with pytest.raises(PgmParseError):
            load_grayscale(write_bytes(tmp_path, "h.pgm", b"P2\n1 1\n70000\n0\n"))

    def test_missing_header_token(self, tmp_path):
        with pytest.raises(PgmParseError):
            load_grayscale(write_bytes(tmp_path, "i.pgm", b"P2\n2\n"))

    def test_p2_raster_comments_and_bad_samples(self, tmp_path):
        """A P2 raster may hold comments; a non-digit sample or a missing one
        is named by its index and reported at its byte offset (the end of the
        file when it is missing)."""
        head = b"P2\n3 1\n9\n"
        img = load_grayscale(write_bytes(tmp_path, "j.pgm", head + b"1 # x 2\n2\n3"))
        np.testing.assert_allclose(img.intensities, [1 / 9, 2 / 9, 3 / 9])
        for raster, offset in [(b"1 -2 3\n", len(head) + 2),
                               (b"1 2\n# 3\n", len(head) + 8)]:
            with pytest.raises(PgmParseError) as e:
                load_grayscale(write_bytes(tmp_path, "k.pgm", head + raster))
            assert str(e.value).startswith("expected sample ")
            assert e.value.byte_offset == offset
            assert ("sample 1 of 3" if b"-" in raster else "sample 2 of 3") in str(e.value)


class TestWriteImage:
    def test_round_trip_p5(self, tmp_path):
        img = GrayImage(3, 1, np.array([0.0, 0.5, 1.0]))
        out = tmp_path / "w.pgm"
        write_image(img, out, "P5")
        back = load_grayscale(out)
        np.testing.assert_allclose(back.intensities,
                                   np.array([0, 128, 255]) / 255)

    def test_round_trip_p2(self, tmp_path):
        img = GrayImage(2, 2, np.array([0.1, 0.2, 0.3, 0.4]))
        out = tmp_path / "w2.pgm"
        write_image(img, out, "P2")
        back = load_grayscale(out)
        np.testing.assert_allclose(
            back.intensities,
            np.floor(np.array([0.1, 0.2, 0.3, 0.4]) * 255 + 0.5) / 255)

    def test_quantization_rounds_half_up(self, tmp_path):
        # 0.5/255 scaled: value v maps to floor(v*255 + 0.5)
        img = GrayImage(2, 1, np.array([127.5 / 255, 127.49 / 255]))
        out = tmp_path / "q.pgm"
        write_image(img, out, "P5")
        raw = out.read_bytes()
        assert list(raw[-2:]) == [128, 127]

    def test_bad_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_image(GrayImage(1, 1, [0.0]), tmp_path / "x.pgm", "P7")

    def test_identical_reruns_bit_identical(self, tmp_path):
        img = GrayImage(4, 4, np.linspace(0, 1, 16))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(img, a, "P5")
        write_image(img, b, "P5")
        assert a.read_bytes() == b.read_bytes()


class TestImageToParticles:
    def test_positions_at_pixel_centers(self):
        img = GrayImage(2, 2, np.array([0.0, 0.25, 0.5, 1.0]))
        ps = image_to_particles(img)
        np.testing.assert_allclose(
            ps.positions,
            [[0.25, 0.75], [0.75, 0.75], [0.25, 0.25], [0.75, 0.25]])
        np.testing.assert_allclose(ps.features.ravel(), img.intensities)

    def test_feature_dimension_is_one(self):
        img = GrayImage(3, 1, np.zeros(3))
        ps = image_to_particles(img)
        assert ps.d2 == 1 and ps.d1 == 2


class TestSegment:
    def quadrant(self, side=8):
        half = side // 2
        g = np.zeros((side, side))
        g[:half, :half] = 1.0
        g[:half, half:] = 0.0
        g[half:, :half] = 0.75
        g[half:, half:] = 0.25
        return GrayImage(side, side, g.ravel())

    def test_quadrant_two_clusters(self):
        img = self.quadrant()
        spec = InteractionSpec(eps1=0.5, eps2=0.3, sigma_mode="stochastic")
        sr = segment(img, spec, seed=0)
        assert len(sr.cluster_intensity) == 2
        np.testing.assert_allclose(sorted(sr.cluster_intensity), [0.125, 0.875],
                                   atol=1e-9)

    def test_output_uses_original_intensity_means(self):
        img = self.quadrant()
        spec = InteractionSpec(eps1=0.5, eps2=0.3, sigma_mode="stochastic")
        sr = segment(img, spec, seed=0)
        for cid in range(len(sr.cluster_intensity)):
            members = sr.labels == cid
            assert sr.cluster_intensity[cid] == pytest.approx(
                img.intensities[members].mean())
            np.testing.assert_allclose(sr.output.intensities[members],
                                       sr.cluster_intensity[cid])

    def test_peak_memory_does_not_grow_with_steps(self):
        """Only the end state is recorded.  With eps1 above the diameter and
        dt = 1, each half of the quadrant image collapses onto its mean in
        one step, so a run to t = 50 ends where one to t = 5 does; stop_tol
        = 0 runs every step.  A snapshot per step would add 45 of 16 KiB."""
        img = self.quadrant(32)
        spec = InteractionSpec(eps1=2.0, eps2=0.3, sigma_mode="stochastic")

        def peak(t_final):
            tracemalloc.start()
            try:
                segment(img, spec, method="euler", dt=1.0, t_final=t_final, stop_tol=0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5.0)  # first-call allocations
        assert peak(50.0) <= peak(5.0) + 16 * 2**10

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            segment(self.quadrant(), InteractionSpec(eps1=0.5, eps2=0.3),
                    method="verlet")

    def test_requires_positive_levels(self):
        with pytest.raises(ConfigError):
            segment(self.quadrant(), InteractionSpec(eps1=0.0, eps2=0.3))


class TestThreshold:
    def test_strictly_below_goes_black(self):
        img = GrayImage(2, 1, np.array([0.2, 0.8]))
        spec = InteractionSpec(eps1=0.3, eps2=0.1, sigma_mode="stochastic")
        sr = segment(img, spec, t_final=5.0)
        binary = threshold(sr, 0.5)
        np.testing.assert_allclose(sorted(binary.intensities), [0.0, 1.0])
        # a cluster exactly at the threshold stays white
        at = threshold(sr, float(min(sr.cluster_intensity)))
        assert np.all(at.intensities == 1.0)

    def test_theta_range(self):
        img = GrayImage(2, 1, np.array([0.2, 0.8]))
        spec = InteractionSpec(eps1=0.3, eps2=0.1, sigma_mode="stochastic")
        sr = segment(img, spec, t_final=5.0)
        with pytest.raises(ConfigError):
            threshold(sr, 1.5)
