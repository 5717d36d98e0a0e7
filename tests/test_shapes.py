"""Pattern sampling, noise injection, detection error, sweep plumbing."""

import os
import threading
import time
import tracemalloc
import warnings
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcclust import model, shapes
from bcclust.model import ConfigError, InteractionSpec, ParticleSet
from bcclust.dynamics import extract_clusters
from bcclust.shapes import (
    LETTER_A_SEGMENTS,
    NoiseSpec,
    Pattern,
    error_measure,
    generate_letter_A,
    load_segments,
    perturb,
    sample_segments,
    sweep,
)
from oracles import perturb_loop


def point_to_segment_distance(p, a, b):
    a, b = np.asarray(a), np.asarray(b)
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab))


class TestSampleSegments:
    @given(st.integers(3, 400))
    @settings(max_examples=40)
    def test_counts_and_containment(self, n):
        pat = generate_letter_A(n)
        assert pat.n == n
        assert np.all(pat.points >= 0) and np.all(pat.points <= 1)

    @given(st.integers(3, 200))
    @settings(max_examples=30)
    def test_points_lie_on_segments(self, n):
        pat = generate_letter_A(n)
        for p in pat.points:
            d = min(point_to_segment_distance(p, a, b)
                    for a, b in LETTER_A_SEGMENTS)
            assert d <= 1e-12

    def test_three_points_one_per_segment(self):
        pat = generate_letter_A(3)
        for (a, b), p in zip(LETTER_A_SEGMENTS, pat.points):
            assert point_to_segment_distance(p, a, b) <= 1e-12

    def test_allocation_proportional_to_length(self):
        segs = (((0.0, 0.0), (0.9, 0.0)), ((0.0, 0.5), (0.1, 0.5)))
        pat = sample_segments(segs, 100)
        on_long = sum(point_to_segment_distance(p, *segs[0]) <= 1e-12
                      for p in pat.points)
        assert on_long == 90

    def test_endpoints_included(self):
        pat = sample_segments((((0.1, 0.1), (0.9, 0.9)),), 5)
        assert any(np.allclose(p, [0.1, 0.1]) for p in pat.points)
        assert any(np.allclose(p, [0.9, 0.9]) for p in pat.points)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            generate_letter_A(2)

    def test_zero_length_pattern_rejected(self):
        with pytest.raises(ConfigError):
            sample_segments((((0.5, 0.5), (0.5, 0.5)),), 10)

    @pytest.mark.parametrize("end", [(1.5, 0.5), (0.5, -0.1), (np.nan, 0.5),
                                     (0.5, np.inf)], ids=["x>1", "y<0", "nan", "inf"])
    def test_endpoint_outside_unit_square_rejected(self, end):
        """The noise law is defined only for points in [0,1]^2."""
        with pytest.raises(ConfigError, match=r"\[0,1\]\^2"):
            sample_segments((((0.2, 0.2), end),), 10)


class TestLoadSegments:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "pat.txt"
        f.write_text("# comment line\n0.1 0.1 0.5 0.9\n0.9 0.1 0.5 0.9  # tail\n\n")
        segs = load_segments(f)
        assert segs == (((0.1, 0.1), (0.5, 0.9)), ((0.9, 0.1), (0.5, 0.9)))

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.1 0.2 0.3\n")
        with pytest.raises(ConfigError):
            load_segments(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing\n")
        with pytest.raises(ConfigError):
            load_segments(f)


class TestPerturb:
    def test_containment(self):
        pat = generate_letter_A(500)
        for dist in ("uniform", "gaussian"):
            pts = perturb(pat, NoiseSpec(alpha=0.2, dist=dist, seed=3))
            assert np.all(pts >= 0) and np.all(pts <= 1)

    def test_uniform_displacement_bound(self):
        pat = generate_letter_A(500)
        pts = perturb(pat, NoiseSpec(alpha=0.1, dist="uniform", seed=4))
        assert np.max(np.abs(pts - pat.points)) <= 0.1

    def test_seed_reproducible(self):
        pat = generate_letter_A(50)
        a = perturb(pat, NoiseSpec(0.05, "gaussian", seed=9))
        b = perturb(pat, NoiseSpec(0.05, "gaussian", seed=9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("dist", ["uniform"])
    def test_matches_point_loop(self, alpha, dist):
        """Where no candidate is rejected, as for uniform noise of amplitude
        0.1 or less on the letter A, each point keeps its first pair: the
        output equals the point loop's byte for byte."""
        for pat in (generate_letter_A(5000), generate_letter_A(5)):
            for seed in (0, 1, 17, 2**40 + 3):
                ns = NoiseSpec(alpha, dist, seed)
                np.testing.assert_array_equal(perturb(pat, ns), perturb_loop(pat, ns))

    @pytest.mark.parametrize("alpha", [0.3, 1000.0])
    @pytest.mark.parametrize("dist", ["uniform", "gaussian"])
    def test_conditional_law(self, alpha, dist):
        """A corner point's perturbed copies follow the law of an accepted
        candidate in each coordinate (KS test): uniform on its box within
        [0,1], or the normal N(x, alpha^2) truncated to [0,1].  Most of
        them are redrawn at alpha = 0.3 and nearly all at alpha = 1000."""
        stats = pytest.importorskip("scipy.stats")
        corner = np.array([0.0, 1.0])
        pts = perturb(Pattern((), np.tile(corner, (4000, 1))), NoiseSpec(alpha, dist, 11))
        assert np.all(pts >= 0) and np.all(pts <= 1)
        for x, y in zip(corner, pts.T):
            if dist == "uniform":
                lo, hi = max(x - alpha, 0.0), min(x + alpha, 1.0)
                law = stats.uniform(lo, hi - lo)
            else:
                law = stats.truncnorm(-x / alpha, (1 - x) / alpha, loc=x, scale=alpha)
            assert stats.kstest(y, law.cdf).pvalue > 1e-3

    def test_huge_gaussian_alpha_warns_nothing(self):
        """A normal candidate overflows to +-inf near the largest double; it
        is redrawn, so it raises no floating-point warning."""
        pat = Pattern((), np.tile([0.0, 1.0], (4000, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = perturb(pat, NoiseSpec(1.7e308, "gaussian", 5))
        assert np.all(pts >= 0) and np.all(pts <= 1)

    def test_no_slower_than_point_loop_when_rejecting(self):
        pat = generate_letter_A(5000)
        ns = NoiseSpec(0.6, "uniform", seed=2)

        def best_of_3(f):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                f(pat, ns)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of_3(perturb) <= best_of_3(perturb_loop)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            NoiseSpec(alpha=0.0)
        with pytest.raises(ConfigError):
            NoiseSpec(alpha=0.1, dist="poisson")


    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        """perturb would retry forever: no candidate lies inside."""
        with pytest.raises(ConfigError, match="finite"):
            NoiseSpec(alpha=alpha)


class TestErrorMeasure:
    def _cluster_set(self, centers):
        ps = ParticleSet(np.asarray(centers, dtype=float))
        return extract_clusters(ps, 1e-9, InteractionSpec(eps1=1))

    def test_zero_on_pattern(self):
        pat = generate_letter_A(10)
        cs = self._cluster_set(pat.points[:4])
        assert error_measure(cs, pat) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_distance(self):
        pat = sample_segments((((0.0, 0.0), (1.0, 0.0)),), 11)
        cs = self._cluster_set([[0.5, 0.25]])
        assert error_measure(cs, pat) == pytest.approx(0.25)

    def test_mean_of_two(self):
        pat = sample_segments((((0.0, 0.0), (1.0, 0.0)),), 101)
        cs = self._cluster_set([[0.2, 0.01], [0.8, 0.03]])
        assert error_measure(cs, pat) == pytest.approx(0.02)

    def test_translation_consistent(self):
        pat = generate_letter_A(20)
        shift = np.array([0.05, -0.03])
        moved = Pattern(pat.segments, pat.points + shift)
        cs1 = self._cluster_set(pat.points[:5] + 0.01)
        cs2 = self._cluster_set(pat.points[:5] + 0.01 + shift)
        assert error_measure(cs1, pat) == pytest.approx(
            error_measure(cs2, moved), abs=1e-12)

    def test_snapping_never_increases(self):
        rng = np.random.default_rng(5)
        pat = generate_letter_A(30)
        centers = rng.uniform(0, 1, (6, 2))
        cs = self._cluster_set(centers)
        base = error_measure(cs, pat)
        # snap the worst center onto its nearest pattern point
        d = np.linalg.norm(centers[:, None] - pat.points[None], axis=2)
        worst = int(d.min(axis=1).argmax())
        snapped = centers.copy()
        snapped[worst] = pat.points[d[worst].argmin()]
        assert error_measure(self._cluster_set(snapped), pat) <= base + 1e-12

    def test_memory_bounded_for_many_clusters(self):
        """5000 clusters against a 5000-point pattern are scored in row tiles,
        never as one (clusters, points, 2) array."""
        pat = generate_letter_A(5000)
        centers = np.random.default_rng(6).uniform(0, 1, (5000, 2))
        cs = self._cluster_set(centers)
        assert cs.n_clusters == 5000
        tracemalloc.start()
        try:
            e = error_measure(cs, pat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert 0 < e < 1

    @pytest.mark.parametrize("tile", [1, 7, 64, 2**17])
    def test_tiles_keep_bits(self, tile):
        """The score equals the untiled one bit for bit at any tile size."""
        pat = generate_letter_A(90)
        cs = self._cluster_set(np.random.default_rng(7).uniform(0, 1, (40, 2)))
        d = np.linalg.norm(cs.centers[:, None] - pat.points[None], axis=2)
        with mock.patch.object(model, "_TILE_PAIRS", tile):
            assert error_measure(cs, pat) == float(d.min(axis=1).mean())


class TestSweep:
    def test_deterministic_and_well_formed(self):
        pat = generate_letter_A(120)
        r1 = sweep(pat, [0.05], [0.1, 0.2], 2, master_seed=5, t_final=5.0)
        r2 = sweep(pat, [0.05], [0.1, 0.2], 2, master_seed=5, t_final=5.0)
        assert [(a.error, a.n_clusters) for a in r1.rows] == \
            [(b.error, b.n_clusters) for b in r2.rows]
        assert len(r1.rows) == 4
        assert len(r1.summary) == 2
        assert sum(s.best for s in r1.summary) == 1

    def test_empty_grid_rejected(self):
        pat = generate_letter_A(10)
        with pytest.raises(ConfigError):
            sweep(pat, [], [0.1], 1)

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0))
        assert shapes._worker_count(1) == 1
        assert shapes._worker_count(10**6) == cpus

    def test_same_result_with_one_and_two_workers(self, monkeypatch):
        pat = generate_letter_A(200)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(shapes, "_worker_count", lambda n, w=workers: w)
            results.append(sweep(pat, [0.05, 0.1], [0.1, 0.2], 2,
                                 master_seed=3, t_final=4.0))
        one, two = results
        assert one.summary == two.summary
        assert one.rows == two.rows
        for a, b in zip(one.rows, two.rows):
            np.testing.assert_array_equal(a.centers, b.centers)

    def test_workers_started_after_blas_ran_match_one_worker(self, monkeypatch):
        """Workers start by the platform's default method, fork on Linux
        before Python 3.14, from a process whose BLAS has already run: a
        two-worker sweep warns nothing and gives the rows of a one-worker
        sweep, centers included."""
        a = np.random.default_rng(0).uniform(size=(200, 200))
        assert np.isfinite(a @ a).all()
        pat = generate_letter_A(150)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(shapes, "_worker_count", lambda n, w=workers: w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results.append(sweep(pat, [0.05], [0.1, 0.2], 2, master_seed=8, t_final=3.0))
        one, two = results
        assert one.rows == two.rows
        for a, b in zip(one.rows, two.rows):
            np.testing.assert_array_equal(a.centers, b.centers)

    def test_workers_spawn_while_another_thread_runs(self, monkeypatch):
        """A forked child would hold only the forking thread, so a sweep
        called while another Python thread runs spawns its workers; called
        from one thread, it takes the platform's default method.  Both give
        the same rows."""
        methods = []
        pool_type = futures.ProcessPoolExecutor

        def recording(*args, mp_context=None, **kwargs):
            methods.append(mp_context and mp_context.get_start_method())
            return pool_type(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", recording)
        monkeypatch.setattr(shapes, "_worker_count", lambda n: 2)
        pat = generate_letter_A(150)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            threaded = sweep(pat, [0.05], [0.1, 0.2], 2, master_seed=8, t_final=3.0)
        finally:
            stop.set()
            other.join()
        alone = sweep(pat, [0.05], [0.1, 0.2], 2, master_seed=8, t_final=3.0)
        assert methods == ["spawn", None]
        assert threaded.rows == alone.rows
        for a, b in zip(threaded.rows, alone.rows):
            np.testing.assert_array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("merge_tol", [np.nan, 0.0, -1.0])
    def test_merge_tol_checked_before_any_run(self, monkeypatch, merge_tol):
        monkeypatch.setattr(shapes, "_worker_count", lambda n: 1)
        monkeypatch.setattr(shapes, "perturb", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ConfigError, match="merge_tol"):
            sweep(generate_letter_A(20), [0.05], [0.1], 1, merge_tol=merge_tol)

    def test_runs_record_only_the_end_state(self, monkeypatch):
        """A run keeps its start and its end state, nothing between."""
        times, mfi_simulate = [], shapes.mfi_simulate
        def integrate(ps0, spec, cfg):
            tr = mfi_simulate(ps0, spec, cfg)
            times.append([t for t, _ in tr.snapshots])
            return tr
        monkeypatch.setattr(shapes, "_worker_count", lambda n: 1)
        monkeypatch.setattr(shapes, "mfi_simulate", integrate)
        sweep(generate_letter_A(30), [0.05], [0.1, 0.2], 1, t_final=3.0)
        assert times == [[0.0, 3.0], [0.0, 3.0]]

    def test_config_error_in_a_worker(self, monkeypatch):
        """M >= n fails inside a run; the pool re-raises it as ConfigError."""
        monkeypatch.setattr(shapes, "_worker_count", lambda n: 2)
        with pytest.raises(ConfigError, match="exceeds"):
            sweep(generate_letter_A(5), [0.05], [0.1], 2, M=10, t_final=1.0)
