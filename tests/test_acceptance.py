"""Acceptance gate: end-to-end behavioral criteria for the package.

Each test prints exactly one PASS/FAIL line for its criterion (straight to
the terminal, bypassing capture) before asserting, so a full run always
yields a ten-line scoreboard.  Settings and tolerances are pinned here on
purpose; do not relax them to make a criterion go green.
"""

import collections
import time

import numpy as np
import pytest

import bcclust as b
from bcclust.cli import main as cli_main
from bcclust.imageseg import GrayImage, load_grayscale, segment, write_image
from bcclust.moments import analytic_global_moments, moment_drift_report
from bcclust.rng import derive_seed


def report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"CRITERION {num:2d}: {'PASS' if passed else 'FAIL'} — {detail}",
              flush=True)
    assert passed, f"criterion {num}: {detail}"


def mfi_run_1d(n, eps1, seed, t_final, stream):
    rng = np.random.default_rng(derive_seed(seed, stream))
    ps0 = b.ParticleSet(rng.uniform(0, 1, (n, 1)))
    spec = b.InteractionSpec(eps1=eps1, sigma_mode="stochastic")
    cfg = b.MfiConfig(M=10, dt=0.5, t_final=t_final, seed=seed)
    tr = b.mfi_simulate(ps0, spec, cfg)
    return b.extract_clusters(tr.final, b.default_merge_tol(ps0, spec), spec), spec


class TestCriterion1:
    def test_1d_consensus(self, capsys):
        """Uniform 1D, N=5e4, eps1=0.5, M=10, dt=0.5, T=20: one cluster at 0.5."""
        hits, times = 0, []
        for seed in range(10):
            t0 = time.perf_counter()
            cs, _ = mfi_run_1d(50_000, 0.5, seed, 20.0, stream=1)
            times.append(time.perf_counter() - t0)
            center = cs.centers[0, 0]
            if cs.n_clusters == 1 and abs(center - 0.5) <= 0.01:
                hits += 1
        med = float(np.median(times))
        ok = hits >= 9 and med < 10.0
        report(capsys, 1, ok,
               f"consensus in {hits}/10 seeds (need >= 9), median run "
               f"{med:.1f}s (need < 10s; max {max(times):.1f}s)")


class TestCriterion2:
    def test_1d_three_clusters(self, capsys):
        """Same setting with eps1=0.15: exactly 3 well-separated clusters."""
        hits, times = 0, []
        for seed in range(10):
            t0 = time.perf_counter()
            cs, _ = mfi_run_1d(50_000, 0.15, seed, 20.0, stream=1)
            times.append(time.perf_counter() - t0)
            centers = np.sort(cs.centers[:, 0])
            if cs.n_clusters == 3 and np.all(np.diff(centers) > 0.15):
                hits += 1
        med = float(np.median(times))
        ok = hits >= 8 and med < 10.0
        report(capsys, 2, ok,
               f"three clusters in {hits}/10 seeds (need >= 8), median run "
               f"{med:.1f}s (need < 10s; max {max(times):.1f}s)")


class TestCriterion3:
    def test_2d_eight_clusters(self, capsys):
        """Uniform 2D, N=1e4, eps1=0.15, M=10, dt=0.5, T=50: modal count 8."""
        counts, ss_ok = [], 0
        for seed in range(10):
            rng = np.random.default_rng(derive_seed(seed, 3))
            ps0 = b.ParticleSet(rng.uniform(0, 1, (10_000, 2)))
            spec = b.InteractionSpec(eps1=0.15, sigma_mode="stochastic")
            cfg = b.MfiConfig(M=10, dt=0.5, t_final=50.0, seed=seed)
            tr = b.mfi_simulate(ps0, spec, cfg)
            cs = b.extract_clusters(tr.final, b.default_merge_tol(ps0, spec), spec)
            counts.append(cs.n_clusters)
            ss_ok += b.verify_steady_state(cs, spec).passed
        modal = collections.Counter(counts).most_common(1)[0][0]
        ok = modal == 8 and ss_ok == 10
        report(capsys, 3, ok,
               f"modal cluster count {modal} (need 8), "
               f"steady-state check passed {ss_ok}/10 (need 10/10)")


class TestCriterion4:
    CASES = ((0.15, 0.025), (0.15, 0.1), (1.0, 0.025))

    def run_case(self, eps1, eps2, seed):
        rng = np.random.default_rng(derive_seed(seed, 2))
        x = rng.uniform(0, 1, (5000, 1))
        c = 0.5 + np.sqrt(0.3) * rng.standard_normal((5000, 1))
        ps0 = b.ParticleSet(x, c)
        spec = b.InteractionSpec(eps1=eps1, eps2=eps2, sigma_mode="stochastic")
        cfg = b.MfiConfig(M=10, dt=0.5, t_final=50.0, seed=seed)
        tr = b.mfi_simulate(ps0, spec, cfg)
        cs = b.extract_clusters(tr.final, b.default_merge_tol(ps0, spec), spec)
        return cs, b.verify_steady_state(cs, spec)

    def test_static_feature_clustering(self, capsys):
        """1D uniform positions x Normal(0.5, 0.3) features, N=5000."""
        t0 = time.perf_counter()
        modal, gaps_ok = [], 0
        for eps1, eps2 in self.CASES:
            counts = []
            for seed in range(10):
                cs, rep = self.run_case(eps1, eps2, seed)
                counts.append(cs.n_clusters)
                if (eps1, eps2) == (1.0, 0.025):
                    # position gaps cannot exceed eps1=1 on [0,1], so the
                    # steady-state check is exactly the feature-gap condition
                    gaps_ok += rep.passed
            modal.append(collections.Counter(counts).most_common(1)[0][0])
        wall = time.perf_counter() - t0
        ok = (modal[0] == 8 and modal[1] == 3
              and modal[2] > 1 and gaps_ok == 10 and wall < 30.0)
        report(capsys, 4, ok,
               f"modal counts {modal} (need [8, 3, >1]), feature gaps "
               f"> eps2 in {gaps_ok}/10 runs, wall {wall:.1f}s (need < 30s)")


class TestCriterion5:
    def test_moment_laws(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)

        # (a) symmetric deterministic run: first moment conserved
        ps = b.ParticleSet(rng.uniform(0, 1, (500, 2)))
        spec = b.InteractionSpec(eps1=0.3, sigma_mode="symmetric")
        tr = b.simulate(ps, spec, b.IntegratorConfig(dt=0.5, t_final=10.0))
        drift = moment_drift_report(tr).max_first_moment_drift

        # (b) dt=0.05 symmetric runs: per-step energy never increases
        increases = 0
        for _ in range(100):
            n = int(rng.integers(20, 80))
            ps_i = b.ParticleSet(rng.uniform(0, 1, (n, 2)))
            tr_i = b.simulate(ps_i, spec, b.IntegratorConfig(dt=0.05, t_final=1.0,
                                                             stop_tol=0.0))
            increases += len(moment_drift_report(tr_i).energy_increases)

        # (c) global interactions match the closed-form moment evolution
        ps_g = b.ParticleSet(rng.uniform(0, 1, (2000, 1)))
        spec_g = b.InteractionSpec(eps1=10.0, sigma_mode="symmetric")
        tr_g = b.simulate(ps_g, spec_g,
                          b.IntegratorConfig(dt=1e-3, t_final=5.0, stop_tol=0.0,
                                             record_every=500))
        rel = 0.0
        for k, t in enumerate(tr_g.moments.times):
            u_ref, E_ref = analytic_global_moments(tr_g.moments.u[0],
                                                   tr_g.moments.E[0], t)
            rel = max(rel,
                      np.max(np.abs(tr_g.moments.u[k] - u_ref))
                      / max(np.max(np.abs(u_ref)), 1e-30),
                      np.max(np.abs(tr_g.moments.E[k] - E_ref))
                      / max(np.max(np.abs(E_ref)), 1e-30))
        wall = time.perf_counter() - t0
        ok = drift <= 1e-10 and increases == 0 and rel <= 2e-2 and wall < 60.0
        report(capsys, 5, ok,
               f"first-moment drift {drift:.2e} (need <= 1e-10), "
               f"energy increases {increases}/100 runs (need 0), "
               f"closed-form rel err {rel:.2e} (need <= 2e-2), "
               f"wall {wall:.1f}s (need < 60s)")


class TestCriterion6:
    def test_full_subset_matches_deterministic_step(self, capsys):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 101))
            ps = b.ParticleSet(rng.uniform(0, 1, (n, 2)),
                               rng.uniform(0, 1, (n, 1)))
            spec = b.InteractionSpec(eps1=0.3, eps2=0.4, sigma_mode="symmetric")
            cfg = b.MfiConfig(M=n - 1, dt=0.5 * (n - 1) / n, t_final=1.0,
                              seed=int(rng.integers(1 << 30)))
            via_mfi = b.mfi_step(ps, spec, cfg, k=0)
            via_euler = b.euler_step(ps, spec, 0.5)
            worst = max(worst, float(np.max(np.abs(via_mfi.positions
                                                   - via_euler.positions))))
        ok = worst <= 1e-12
        report(capsys, 6, ok,
               f"max |mfi - euler| per coordinate {worst:.2e} (need <= 1e-12)")


def quadrant_image(side=64):
    half = side // 2
    g = np.zeros((side, side))
    g[:half, :half] = 1.0
    g[:half, half:] = 0.0
    g[half:, :half] = 0.75
    g[half:, half:] = 0.25
    return GrayImage(side, side, g.ravel())


class TestCriterion7:
    def test_quadrant_segmentation(self, capsys, tmp_path):
        t0 = time.perf_counter()
        img = quadrant_image(64)
        spec = b.InteractionSpec(eps1=0.5, eps2=0.3, sigma_mode="stochastic")
        sr = segment(img, spec, seed=0)
        out = tmp_path / "seg.pgm"
        write_image(sr.output, out, "P5")
        levels = sorted(int(v) for v in set(np.rint(load_grayscale(out).intensities
                                                    * 255).astype(int)))
        means = sorted(float(v) for v in sr.cluster_intensity)
        wall = time.perf_counter() - t0
        ok = (len(means) == 2
              and abs(means[0] - 0.125) <= 1e-9 and abs(means[1] - 0.875) <= 1e-9
              and levels == [32, 223] and wall < 20.0)
        report(capsys, 7, ok,
               f"{len(means)} clusters with means {means} "
               f"(need [0.125, 0.875] within 1e-9), levels {levels} "
               f"(need [32, 223]), wall {wall:.1f}s (need < 20s)")


class TestCriterion8:
    def test_letter_shape_statistics(self, capsys):
        t0 = time.perf_counter()
        pat = b.generate_letter_A(5000)
        res = b.sweep(pat, alphas=[0.1], eps1_list=[0.06, 0.08, 0.10],
                      runs_per_cell=10, noise_dist="uniform", master_seed=0,
                      M=10, dt=0.5, t_final=50.0)
        by_eps = {s.eps1: s for s in res.summary}
        e6, e8, e10 = (by_eps[e].mean_error for e in (0.06, 0.08, 0.10))
        n8 = by_eps[0.08].mean_clusters
        wall = time.perf_counter() - t0
        ref = 1.12e-2
        ok = (0.5 * ref <= e8 <= 2 * ref and 5 <= n8 <= 11
              and e8 < e6 and e8 < e10 and wall < 300.0)
        report(capsys, 8, ok,
               f"mean error {e8:.2e} (need in [{0.5 * ref:.2e}, {2 * ref:.2e}]), "
               f"mean clusters {n8:.1f} (need in [5, 11]), "
               f"ordering e(0.08) < e(0.06)={e8 < e6} and "
               f"< e(0.10)={e8 < e10}, wall {wall:.0f}s (need < 300s)")


class TestCriterion9:
    def test_step_cost_linear_in_M_and_N(self, capsys, tmp_path):
        out = tmp_path / "bench"
        code = cli_main(["bench", "--n-list", "50000 100000",
                         "--M-list", "10 20", "--steps", "15",
                         "--out-dir", str(out)])
        assert code == 0
        grid = {}
        for line in (out / "bench.csv").read_text().splitlines()[1:]:
            n, M, sec = line.split(",")
            grid[(int(n), int(M))] = float(sec)
        r_m = grid[(50000, 20)] / grid[(50000, 10)]
        r_n = grid[(100000, 10)] / grid[(50000, 10)]
        ok = 1.5 <= r_m <= 2.5 and 1.5 <= r_n <= 2.5
        report(capsys, 9, ok,
               f"doubling ratios M: {r_m:.2f}x, N: {r_n:.2f}x "
               f"(need both within 2x +/- 25%)")


class TestCriterion10:
    def test_reruns_bit_identical(self, capsys, tmp_path):
        quad = tmp_path / "quad.pgm"
        write_image(quadrant_image(16), quad, "P5")
        pipelines = {
            "simulate": ["simulate", "--n", "400", "--eps1", "0.15",
                         "--method", "mfi", "--M", "5",
                         "--mode", "stochastic", "--t-final", "5",
                         "--seed", "11"],
            "shape": ["shape", "--n", "200", "--alpha-list", "0.05",
                      "--eps1-list", "0.1", "--runs", "2",
                      "--t-final", "5", "--seed", "2"],
            "segment": ["segment", "--input", str(quad), "--eps1", "0.5",
                        "--eps2", "0.3", "--threshold", "0.5", "--seed", "3"],
        }
        mismatches = []
        for name, argv in pipelines.items():
            a, bdir = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            assert cli_main(argv + ["--out-dir", str(a)]) == 0
            assert cli_main(argv + ["--out-dir", str(bdir)]) == 0
            for f in sorted(a.iterdir()):
                if f.suffix in (".csv", ".pgm"):
                    if f.read_bytes() != (bdir / f.name).read_bytes():
                        mismatches.append(f"{name}/{f.name}")
        ok = not mismatches
        report(capsys, 10, ok,
               "all rerun CSVs and PGMs bit-identical" if ok
               else f"mismatched outputs: {mismatches}")
