"""CSV and manifest round trips."""

import csv
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcclust import cli, io as bio
from bcclust.model import ClusteringError, ConfigError, InteractionSpec, ParticleSet
from bcclust.dynamics import (ClusterSet, IntegratorConfig, SteadyStateReport,
                              extract_clusters, simulate, verify_steady_state)
from bcclust.imageseg import GrayImage, SegmentationResult
from bcclust.mfi import MfiConfig, mfi_simulate
from bcclust.moments import MomentRecord
from bcclust.shapes import (SweepResult, SweepRow, SweepSummary, generate_letter_A,
                            sweep)
from oracles import csv_table, density_csv, trajectory_csv

SPECIAL = [-0.0, 1.0, 5e-324, 1e-300, np.nan, np.inf, -np.inf, 0.1, 1 / 3]


def oracle_trajectory(tr, features) -> bytes:
    d1, d2 = tr.snapshots[0][1].shape[1], features.shape[1]
    header = (["t", "i"] + [f"x_{k + 1}" for k in range(d1)]
              + [f"c_{k + 1}" for k in range(d2)])
    return csv_table(header, ([t, i, *pos[i], *features[i]]
                              for t, pos in tr.snapshots
                              for i in range(pos.shape[0])))


def oracle_density(tr, bins) -> bytes:
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2
    if tr.snapshots[0][1].shape[1] == 1:
        rows = []
        for t, pos in tr.snapshots:
            counts, _ = np.histogram(pos[:, 0], bins=edges)
            rows += [[t, b, centers[b], int(counts[b])] for b in range(bins)]
        return csv_table(["t", "bin", "x_center", "count"], rows)
    rows = []
    for t, pos in tr.snapshots:
        counts, _, _ = np.histogram2d(pos[:, 0], pos[:, 1], bins=(edges, edges))
        rows += [[t, bx, by, centers[bx], centers[by], int(counts[bx, by])]
                 for bx in range(bins) for by in range(bins)]
    return csv_table(["t", "bin_x", "bin_y", "x_center", "y_center", "count"],
                     rows)


class Snapshots:
    def __init__(self, snapshots):
        self.snapshots = snapshots


@pytest.fixture
def small_run():
    rng = np.random.default_rng(0)
    ps = ParticleSet(rng.uniform(0, 1, (12, 2)), rng.uniform(0, 1, (12, 1)))
    spec = InteractionSpec(eps1=0.4, eps2=0.5, sigma_mode="stochastic")
    tr = simulate(ps, spec, IntegratorConfig(dt=0.5, t_final=2.0, stop_tol=0.0))
    return ps, spec, tr


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, small_run):
        ps, spec, tr = small_run
        path = tmp_path / "tr.csv"
        bio.write_trajectory_csv(path, tr, ps.features)
        times, sets = bio.read_trajectory_csv(path)
        assert len(times) == len(tr.snapshots)
        for (t, pos), back in zip(tr.snapshots, sets):
            np.testing.assert_array_equal(back.positions, pos)
            np.testing.assert_array_equal(back.features, ps.features)

    def test_header(self, tmp_path, small_run):
        ps, spec, tr = small_run
        path = tmp_path / "tr.csv"
        bio.write_trajectory_csv(path, tr, ps.features)
        header = path.read_text().splitlines()[0]
        assert header == "t,i,x_1,x_2,c_1"


class TestWritersMatchOracle:
    """The per-snapshot block writers give the row-at-a-time bytes."""

    def check(self, tmp_path, tr, features, bins=(1, 7)):
        path = tmp_path / "tr.csv"
        bio.write_trajectory_csv(path, tr, features)
        assert path.read_bytes() == oracle_trajectory(tr, features)
        if tr.snapshots[0][1].shape[1] <= 2:
            for b in bins:
                bio.write_density_csv(path, tr, bins=b)
                assert path.read_bytes() == oracle_density(tr, b)

    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("d2", [0, 1])
    def test_mfi_run(self, tmp_path, d1, d2):
        rng = np.random.default_rng(10 * d1 + d2)
        ps = ParticleSet(rng.uniform(0, 1, (23, d1)),
                         rng.uniform(0, 1, (23, d2)) if d2 else None)
        spec = InteractionSpec(eps1=0.3, sigma_mode="stochastic")
        tr = mfi_simulate(ps, spec, MfiConfig(M=3, dt=0.5, t_final=2.0, seed=4))
        self.check(tmp_path, tr, ps.features)

    def test_record_every_adds_final_snapshot(self, tmp_path):
        rng = np.random.default_rng(2)
        ps = ParticleSet(rng.uniform(0, 1, (15, 2)), rng.uniform(0, 1, (15, 1)))
        spec = InteractionSpec(eps1=0.4, sigma_mode="stochastic")
        tr = simulate(ps, spec, IntegratorConfig(dt=0.5, t_final=2.5,
                                                 stop_tol=0.0, record_every=2))
        assert [t for t, _ in tr.snapshots] == [0.0, 1.0, 2.0, 2.5]
        self.check(tmp_path, tr, ps.features)

    @pytest.mark.parametrize("d1", [1, 2])
    def test_one_particle(self, tmp_path, d1):
        ps = ParticleSet(np.full((1, d1), 0.25), np.array([[0.5]]))
        tr = simulate(ps, InteractionSpec(eps1=0.2, sigma_mode="stochastic"),
                      IntegratorConfig(dt=0.5, t_final=1.0, stop_tol=0.0))
        self.check(tmp_path, tr, ps.features)

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_special_values(self, tmp_path, d1):
        rng = np.random.default_rng(d1)
        pos = rng.choice(SPECIAL, size=(3 * len(SPECIAL), d1))
        pos[:len(SPECIAL), 0] = SPECIAL
        features = rng.choice(SPECIAL, size=(pos.shape[0], 2))
        tr = Snapshots([(0.0, pos), (1.0, pos[::-1].copy()), (1e-300, -pos)])
        self.check(tmp_path, tr, features)

    def test_unit_value_prints_as_1_in_last_bin(self, tmp_path):
        tr = Snapshots([(1.0, np.array([[1.0], [0.0], [-0.0], [0.5]]))])
        path = tmp_path / "d.csv"
        bio.write_density_csv(path, tr, bins=2)
        assert path.read_text() == ("t,bin,x_center,count\n"
                                    "1,0,0.25,2\n1,1,0.75,2\n")


def g17_texts(values) -> list:
    """The exact kernel's field of each value, NUL bytes dropped."""
    fields = bio._float_fields(np.asarray(values, dtype=float))
    return [bytes(f[f != 0]).decode() for f in fields]


def edge_values() -> list:
    """Each power of ten from 1e-11 to 1e17 and its neighbours one ulp
    away: the edges of the exact range (1e-10, 1e17), of fixed notation
    (E = -5/-4 and 16/17) and of every estimate of E from log10; with
    -0.0, 0.0 and both signs."""
    out = [0.0]
    for j in range(-11, 18):
        v = float(f"1e{j}")
        out += [float(np.nextafter(v, 0)), v, float(np.nextafter(v, np.inf))]
    return out + [-v for v in out]


class TestExactG17:
    """bio._g17 gives the bytes of '%.17g' % v for every double."""

    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    @example([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308])
    @example([2.0**51, 2.0**52 - 1, 2.0**53 + 2, 3 * 2.0**50, 0.5, 1 / 3])
    @settings(max_examples=300, deadline=None)
    def test_matches_percent_format(self, values):
        assert g17_texts(values) == ["," + "%.17g" % v for v in values]

    def test_edges_of_exponent_and_range(self):
        values = edge_values()
        assert g17_texts(values) == ["," + "%.17g" % v for v in values]

    def test_ties_round_to_even(self):
        """Doubles exactly halfway between two 17-digit decimals."""
        values = [1e15 + 0.25, 1e15 + 0.75, 123456789012345.125,
                  123456789012345.375, -2e15 - 0.25, 8e15 + 1.5]
        texts = g17_texts(values)
        assert texts == ["," + "%.17g" % v for v in values]
        assert texts[0] == ",1000000000000000.2"

    def test_random_doubles_in_one_call(self):
        """Values of every exponent, digit count and sign in blocks larger
        than one kernel call."""
        rng = np.random.default_rng(5)
        n = 3 * bio._CHUNK + 5
        few_digits = 10.0 ** rng.integers(1, 18, n)
        values = np.concatenate([
            rng.uniform(0, 1, n),
            rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, 17.5, n),
            np.floor(rng.uniform(0, 1, n) * few_digits) / few_digits
            * 10.0 ** rng.integers(-11, 18, n),
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)])
        assert g17_texts(values) == ["," + "%.17g" % v for v in values]


class TestSnapshotBlocks:
    """The snapshot writers match the %-template oracle on both sides of
    the kernel's block boundary."""

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193])
    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("d2", [0, 1])
    def test_trajectory(self, tmp_path, n, d1, d2):
        rng = np.random.default_rng(n + 10 * d1 + d2)
        pos = rng.uniform(0, 1, (n, d1))
        pos[::97] *= -1e-7
        features = rng.normal(0.5, 0.3, (n, d2))
        tr = Snapshots([(0.0, pos), (0.30000000000000004, pos[::-1] * 3e5)])
        path = tmp_path / "tr.csv"
        bio.write_trajectory_csv(path, tr, features)
        assert path.read_bytes() == trajectory_csv(tr, features)

    @pytest.mark.parametrize("d1, bins", [(1, 8193), (2, 91)])
    def test_density_over_one_block(self, tmp_path, d1, bins):
        """8193 and 91 * 91 = 8281 rows per snapshot."""
        rng = np.random.default_rng(bins)
        tr = Snapshots([(t, rng.uniform(0, 1, (5000, d1))) for t in (0.0, 2.5)])
        path = tmp_path / "d.csv"
        bio.write_density_csv(path, tr, bins=bins)
        assert path.read_bytes() == density_csv(tr, bins)


# The kernel's edges and the values it leaves to '%.17g' % v: nan, both
# infinities and zeros, subnormals, the ends of its exact range 1e-10 and
# 1e17 with their neighbours, and values past that range.
EDGE_DOUBLES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.225073858507201e-308, 1e-10, float(np.nextafter(1e-10, 0)), -1e-10,
                1e17, float(np.nextafter(1e17, 0)), -1e17, 1e-300, 1e300, 0.1, 1 / 3]
EDGE_SEEDS = [0, 9, 2**63 - 1, 2**63, 2**64 - 1]


def filled(values, cols) -> np.ndarray:
    """values repeated row-major into the fewest (rows, cols) that hold
    each of them once."""
    return np.resize(np.asarray(values, dtype=float), (-(-len(values) // cols), cols))


def cycled(ints, n) -> list:
    return [ints[i % len(ints)] for i in range(n)]


def moments_table(values, ints, d, tmp):
    t = filled(values, 1 + d + d * d)
    record = MomentRecord(list(t[:, 0]), list(t[:, 1:1 + d]),
                          list(t[:, 1 + d:].reshape(-1, d, d)))
    bio.write_moments_csv(tmp / "moments.csv", record)
    pairs = [(k, j) for k in range(d) for j in range(k, d)]
    return {"moments.csv": [[t, *u, *[E[k, j] for k, j in pairs]]
                            for t, u, E in zip(record.times, record.u, record.E)]}


def clusters_table(values, ints, d, tmp):
    d2 = d - 1
    t = filled(values, 1 + d + 3 * d2)
    f = t[:, 1 + d:].reshape(len(t), 3, d2)
    bio.write_clusters_csv(tmp / "clusters.csv", ClusterSet(
        np.zeros(1, int), t[:, 0], t[:, 1:1 + d], f[:, 0], f[:, 1], f[:, 2],
        np.zeros((1, d2))))
    return {"clusters.csv": [[cid, *row] for cid, row in enumerate(t.tolist())]}


def steady_state_table(values, ints, d, tmp):
    """len(ints) - 1 rows: an empty body for one int."""
    n = len(ints) - 1
    f = np.resize(np.asarray(values, dtype=float), (n, 2))
    ik = np.array([v % 2**31 for v in cycled(ints, 2 * n)], dtype=np.int64).reshape(n, 2)
    violations = np.rec.fromarrays([ik[:, 0], ik[:, 1], f[:, 0], f[:, 1]],
                                   names="i,k,center_distance,min_feature_gap")
    bio.write_steady_state_csv(tmp / "steady_state.csv",
                               SteadyStateReport(n == 0, violations))
    return {"steady_state.csv": violations.tolist()}


def sweep_tables(values, ints, d, tmp):
    t = filled(values, 4).tolist()
    seeds = cycled(ints, len(t))
    result = SweepResult(
        [SweepRow(a, e, run, seed, err, seed % 7) for run, ((a, e, err, _), seed)
         in enumerate(zip(t, seeds))],
        [SweepSummary(a, e, err, mean, seed % 2 == 0)
         for (a, e, err, mean), seed in zip(t, seeds)])
    bio.write_sweep_csv(tmp / "sweep.csv", result)
    bio.write_sweep_summary_csv(tmp / "summary.csv", result)
    return {"sweep.csv": [[r.alpha, r.eps1, r.run, r.seed, r.error, r.n_clusters]
                          for r in result.rows],
            "summary.csv": [[s.alpha, s.eps1, s.mean_error, s.mean_clusters, int(s.best)]
                            for s in result.summary]}


def labels_table(values, ints, d, tmp):
    w, h = len(values) % 7 + 1, d + 1
    labels = np.array([v % (w * h) for v in cycled(ints, w * h)])
    image = GrayImage(w, h, np.zeros(w * h))
    bio.write_labels_csv(tmp / "labels.csv", SegmentationResult(labels, None, image, None))
    return {"labels.csv": [[i // w, i % w, int(lab)] for i, lab in enumerate(labels)]}


def particles_table(values, ints, d, tmp):
    """The finite values only, as a ParticleSet holds no nan or inf."""
    d2 = d - 1
    t = filled([v for v in values if np.isfinite(v)] or [0.5], d + d2)
    ps = ParticleSet(t[:, :d], t[:, d:] if d2 else None)
    bio.write_particles_csv(tmp / "particles.csv", ps)
    return {"particles.csv": [[*ps.positions[i], *ps.features[i]] for i in range(ps.n)]}


def cli_centers_tables(values, ints, d, tmp):
    """cmd_shape's centers_*.csv, one per run, of a sweep result put in
    place of the sweep."""
    parts = np.array_split(filled(values, 2), min(d, -(-len(values) // 2)))
    result = SweepResult([SweepRow(0.1, 0.2, run, seed, 0.0, len(c), centers=c)
                          for run, (c, seed) in enumerate(zip(parts, cycled(ints, d)))],
                         [])
    p = dict(pattern="letterA", pattern_file=None, n=3, alpha_list=[0.1],
             eps1_list=[0.2], runs=len(parts), noise="uniform", seed=0, M=10,
             dt=0.5, t_final=1.0, mode="stochastic", merge_tol=None, out_dir=str(tmp))
    with mock.patch.object(cli, "sweep", return_value=result):
        cli.cmd_shape(p)
    return {f"centers_a0.1_e0.2_r{run}.csv": [[*x] for x in c]
            for run, c in enumerate(parts)}


def cli_bench_table(values, ints, d, tmp):
    """cmd_bench's bench.csv, with the step times put in place of the
    timings."""
    grid = [(n, M) for n in ints for M in (3, 10**6)]
    secs = np.resize(np.asarray(values, dtype=float), len(grid)).tolist()
    p = dict(n_list=ints, M_list=[3, 10**6], steps=1, eps1=0.15, seed=0,
             out_dir=str(tmp))
    with mock.patch.object(cli, "_time_grid", return_value=secs):
        cli.cmd_bench(p)
    return {"bench.csv": [[n, M, sec] for (n, M), sec in zip(grid, secs)]}


class TestTablesMatchOracle:
    """Every table writer, the CLI's included, writes the bytes of
    oracles.csv_table on its rows."""

    @pytest.mark.parametrize("tables", [
        moments_table, clusters_table, steady_state_table, sweep_tables,
        labels_table, particles_table, cli_centers_tables, cli_bench_table])
    @given(values=st.lists(st.one_of(st.sampled_from(EDGE_DOUBLES),
                                      st.floats(width=64)), min_size=1, max_size=30),
           ints=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                                   st.integers(0, 2**64 - 1)), min_size=1, max_size=6),
           d=st.integers(1, 3))
    @example(values=EDGE_DOUBLES, ints=EDGE_SEEDS, d=2)
    @example(values=EDGE_DOUBLES[::-1], ints=[2**63], d=3)
    @example(values=[0.5], ints=[2**64 - 1], d=1)
    @settings(max_examples=40, deadline=None)
    def test_bytes(self, tables, values, ints, d):
        with tempfile.TemporaryDirectory() as tmp:
            for name, rows in tables(values, ints, d, Path(tmp)).items():
                text = (Path(tmp) / name).read_bytes()
                header = text.split(b"\n", 1)[0].decode().split(",")
                assert text == csv_table(header, rows), name


class TestMomentsCsv:
    def test_round_trip(self, tmp_path, small_run):
        _, _, tr = small_run
        path = tmp_path / "m.csv"
        bio.write_moments_csv(path, tr.moments)
        times, u, E = bio.read_moments_csv(path)
        np.testing.assert_array_equal(times, tr.moments.times)
        for k in range(len(times)):
            np.testing.assert_array_equal(u[k], tr.moments.u[k])
            np.testing.assert_array_equal(E[k], tr.moments.E[k])
            np.testing.assert_array_equal(E[k], E[k].T)


class TestClustersCsv:
    def test_round_trip(self, tmp_path, small_run):
        ps, spec, tr = small_run
        cs = extract_clusters(tr.final, 0.05, spec)
        path = tmp_path / "c.csv"
        bio.write_clusters_csv(path, cs)
        weights, centers, fmeans = bio.read_clusters_csv(path)
        np.testing.assert_array_equal(weights, cs.weights)
        np.testing.assert_array_equal(centers, cs.centers)
        np.testing.assert_array_equal(fmeans, cs.feature_mean)


class TestReadersRejectBadFiles:
    @pytest.mark.parametrize("reader, header", [
        (bio.read_trajectory_csv, "t,i,x_1"),
        (bio.read_moments_csv, "t,u_1,E_11"),
        (bio.read_clusters_csv, "cluster_id,weight,center_1"),
    ])
    @pytest.mark.parametrize("body", ["", "0,1,abc\n", "0,1,0.5\n0,1\n"])
    def test_clustering_error_names_file(self, tmp_path, reader, header, body):
        """A header-only file, a non-numeric cell and a short row each raise
        ClusteringError naming the file, as read_particles_csv does."""
        path = tmp_path / "t.csv"
        path.write_text(header + "\n" + body)
        with pytest.raises(ClusteringError, match=re.escape(str(path))):
            reader(path)


class TestSteadyStateCsv:
    def test_violations_written(self, tmp_path):
        ps = ParticleSet(np.array([[0.1], [0.2]]))
        spec = InteractionSpec(eps1=0.5)
        cs = extract_clusters(ps, 1e-3, spec)
        rep = verify_steady_state(cs, spec)
        path = tmp_path / "ss.csv"
        bio.write_steady_state_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "cluster_i,cluster_k,center_distance,min_feature_gap"
        assert len(lines) == 1 + len(rep.violations) == 2


class TestDensityCsv:
    def test_1d_counts_sum_to_n(self, tmp_path, small_run):
        ps, spec, tr = small_run
        # rebuild a 1d trajectory from the x coordinate
        class T:
            snapshots = [(t, pos[:, :1]) for t, pos in tr.snapshots]
        path = tmp_path / "d.csv"
        bio.write_density_csv(path, T, bins=10)
        rows = path.read_text().splitlines()[1:]
        total = sum(int(r.split(",")[-1]) for r in rows)
        assert total == ps.n * len(T.snapshots)

    def test_rejects_3d(self, tmp_path):
        class T:
            snapshots = [(0.0, np.zeros((4, 3)))]
        with pytest.raises(ConfigError):
            bio.write_density_csv(tmp_path / "x.csv", T, bins=4)


class TestSweepCsv:
    def test_sweep_rows_carry_run(self, tmp_path):
        pat = generate_letter_A(60)
        res = sweep(pat, [0.05], [0.1], 2, master_seed=1, t_final=1.0)
        bio.write_sweep_csv(tmp_path / "s.csv", res)
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["alpha", "eps1", "run", "seed", "E", "n_clusters"]
        assert [int(r["run"]) for r in rows] == [0, 1]
        assert [int(r["seed"]) for r in rows] == [row.seed for row in res.rows]

    def test_summary_has_one_best_per_alpha(self, tmp_path):
        pat = generate_letter_A(60)
        res = sweep(pat, [0.05], [0.1, 0.2], 1, master_seed=1, t_final=2.0)
        bio.write_sweep_csv(tmp_path / "s.csv", res)
        bio.write_sweep_summary_csv(tmp_path / "sum.csv", res)
        lines = (tmp_path / "sum.csv").read_text().splitlines()
        assert lines[0] == "alpha,eps1,mean_E,mean_n_clusters,best"
        assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 1


class TestParticlesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ps = ParticleSet(rng.uniform(0, 1, (9, 2)), rng.uniform(0, 1, (9, 2)))
        path = tmp_path / "p.csv"
        bio.write_particles_csv(path, ps)
        back = bio.read_particles_csv(path)
        np.testing.assert_array_equal(back.positions, ps.positions)
        np.testing.assert_array_equal(back.features, ps.features)

    def test_featureless_round_trip(self, tmp_path):
        ps = ParticleSet(np.linspace(0, 1, 5)[:, None])
        path = tmp_path / "p.csv"
        bio.write_particles_csv(path, ps)
        back = bio.read_particles_csv(path)
        assert back.d2 == 0
        np.testing.assert_array_equal(back.positions, ps.positions)


class TestManifest:
    def test_round_trip(self, tmp_path):
        """Every value comes back as its string; an unset (None) one is left out."""
        path = tmp_path / "manifest.txt"
        bio.write_manifest(path, {"seed": 7, "dt": 0.5, "method": "mfi", "merge_tol": None})
        back = bio.read_manifest(path)
        assert back == {"seed": "7", "dt": "0.5", "method": "mfi"}

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n\n a = 1 # trailing\nb=two\n")
        assert bio.read_manifest(path) == {"a": "1", "b": "two"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        """'#' begins a comment only at the start of a line or after
        whitespace, so a path holding '#' reads back whole; a list is written
        space-separated."""
        path = tmp_path / "m.txt"
        bio.write_manifest(path, {"out_dir": "runs/bug#3/a", "n_list": [4, 8]})
        assert bio.read_manifest(path) == {"out_dir": "runs/bug#3/a",
                                           "n_list": "4 8"}
        path.write_text("#a = 1\nb = c#d\t# note\n")
        assert bio.read_manifest(path) == {"b": "c#d"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("not a pair\n")
        with pytest.raises(ConfigError):
            bio.read_manifest(path)

    def test_float_precision_survives(self, tmp_path):
        v = 0.1234567890123456789
        path = tmp_path / "f.csv"
        bio._write_rows(path, ["v"], [[bio._float_fields([v])]])
        got = float(path.read_text().splitlines()[1])
        assert got == v
