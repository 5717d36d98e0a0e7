"""End-to-end command-line runs on small problems."""

import contextlib
import os
import re
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from bcclust.cli import main
from bcclust.dynamics import IntegratorConfig, simulate
from bcclust.imageseg import GrayImage, load_grayscale, write_image
from bcclust.mfi import MfiConfig, mfi_simulate
from bcclust.model import ClusteringError, InteractionSpec, ParticleSet
from bcclust import io as bio
from oracles import density_csv, trajectory_csv


def run(argv):
    return main(argv)


class TestSimulateCommand:
    def test_small_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", "--n", "200", "--eps1", "0.5",
                    "--mode", "stochastic", "--t-final", "5",
                    "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "moments.csv", "clusters.csv",
                     "steady_state.csv", "density.csv", "manifest.txt"):
            assert (out / name).exists(), name

    def test_missing_eps1_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--mode", "stochastic",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "eps1" in capsys.readouterr().err

    def test_missing_mode_is_usage_error(self, tmp_path):
        assert run(["simulate", "--eps1", "0.5",
                    "--out-dir", str(tmp_path)]) == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 100\neps1 = 0.5\nmode = stochastic\n"
                       "t-final = 2\nseed = 1\n")
        out = tmp_path / "o1"
        assert run(["simulate", "--config", str(cfg),
                    "--out-dir", str(out)]) == 0
        manifest = bio.read_manifest(out / "manifest.txt")
        assert manifest["n"] == "100"
        # a flag overrides the same key in the config file
        out2 = tmp_path / "o2"
        assert run(["simulate", "--config", str(cfg), "--n", "64",
                    "--out-dir", str(out2)]) == 0
        assert bio.read_manifest(out2 / "manifest.txt")["n"] == "64"

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("cmd, line", [
        ("simulate", "n = abc"), ("simulate", "merge_tol = None"),
        ("simulate", "norm1 = l2"),
        ("shape", "alpha_list = ,"), ("segment", "eps2 = 0.3x"),
        ("segment", "format = P7"), ("bench", "n_list = 1 two")])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                             cmd, line):
        """A config value is checked against its flag's type and choices
        before anything runs; the error names the key."""
        text = line + "\n"
        if cmd == "segment":
            # a runnable segmentation, so only the bad line can stop it
            img = tmp_path / "img.pgm"
            write_image(GrayImage(4, 4, np.linspace(0, 1, 16)), img)
            text = f"input = {img}\neps1 = 0.5\neps2 = 0.3\n" + text
            monkeypatch.setattr("bcclust.cli.segment", mock.Mock(side_effect=AssertionError))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run([cmd, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err

    def test_init_file_round_trip(self, tmp_path):
        ps_path = tmp_path / "init.csv"
        rng = np.random.default_rng(0)
        from bcclust.model import ParticleSet
        bio.write_particles_csv(ps_path, ParticleSet(rng.uniform(0, 1, (40, 1))))
        out = tmp_path / "o"
        assert run(["simulate", "--init", "file", "--init-file", str(ps_path),
                    "--eps1", "0.5", "--mode", "stochastic",
                    "--t-final", "2", "--out-dir", str(out)]) == 0

    @pytest.mark.parametrize("body", ["x_1\n", "x_1\n0.5\nabc\n",
                                      "x_1,c_1\n0.5,1\n0.25\n", "x_1\n0.5\ninf\n",
                                      "x_1,c_1\n0.5,1\n0.25,nan\n"])
    def test_corrupt_init_file_is_runtime_error(self, tmp_path, capsys, body):
        """A header-only file, a malformed row or a nan or infinite entry
        exits 1 with one error line naming the file, not a traceback."""
        ps_path = tmp_path / "init.csv"
        ps_path.write_text(body)
        assert run(["simulate", "--init", "file", "--init-file", str(ps_path),
                    "--eps1", "0.5", "--mode", "stochastic",
                    "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ps_path}: ") and err.count("\n") == 1

    def test_gaussian_feature_draws_d1_positions(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--init", "gaussian-feature", "--d1", "2",
                    "--n", "100", "--eps1", "0.3", "--eps2", "0.5",
                    "--mode", "stochastic", "--t-final", "1",
                    "--out-dir", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,i,x_1,x_2,c_1"
        assert bio.read_manifest(out / "manifest.txt")["d1"] == "2"

    def test_density_left_out_above_two_dimensions(self, tmp_path):
        """density.csv is defined for d1 <= 2 only; a 3D run writes every
        other output, its manifest included."""
        out = tmp_path / "out"
        assert run(["simulate", "--d1", "3", "--n", "100", "--eps1", "0.5",
                    "--mode", "stochastic", "--t-final", "1",
                    "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "clusters.csv", "manifest.txt", "moments.csv", "steady_state.csv",
            "trajectory.csv"]

    def test_euler_run_stops_early_at_a_steady_state(self, tmp_path, capsys):
        """The exact integrator stops once the largest step displacement is
        below --stop-tol, long before --t-final, at a state that passes the
        steady-state check."""
        out = tmp_path / "out"
        assert run(["simulate", "--method", "euler", "--n", "200", "--eps1", "0.1",
                    "--mode", "stochastic", "--t-final", "100",
                    "--out-dir", str(out)]) == 0
        assert "steady state PASS" in capsys.readouterr().out
        t_end = float((out / "moments.csv").read_text().splitlines()[-1].split(",")[0])
        assert 0 < t_end < 100
        assert (out / "steady_state.csv").read_text().count("\n") == 1  # header only

    def test_symmetric_large_M_finishes(self, tmp_path):
        """M = 150 of n = 1000 in symmetric mode: the draw must not wait for
        M draws with replacement that hold no repeat."""
        assert run(["simulate", "--n", "1000", "--eps1", "0.3", "--mode",
                    "symmetric", "--method", "mfi", "--M", "150",
                    "--t-final", "1", "--out-dir", str(tmp_path)]) == 0


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def writer_mode(monkeypatch, forked):
    """Run the block with the snapshot writer forked, or in this process
    because another Python thread is alive, and check that it forked once
    or not at all."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if not forked:
        other.start()
    try:
        yield
    finally:
        stop.set()
        if not forked:
            other.join(timeout=10)
            assert not other.is_alive()
    assert len(forks) == forked


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
class TestSnapshotWriterProcess:
    """simulate writes trajectory.csv and density.csv through io.SnapshotSink:
    from a forked writer process, or in this process while another Python
    thread runs, with the bytes of the oracles' row-at-a-time writers of
    the same run, kept whole by the library.  No path leaves a child."""

    def particles(self, tmp_path, n, d1, d2, seed=0):
        rng = np.random.default_rng(seed)
        ps = ParticleSet(rng.uniform(0, 1, (n, d1)),
                         rng.uniform(0, 1, (n, d2)) if d2 else None)
        path = tmp_path / "init.csv"
        bio.write_particles_csv(path, ps)
        return ps, ["--init", "file", "--init-file", str(path)]

    def check(self, tmp_path, monkeypatch, forked, ps, init, flags, cfg, bins=7):
        out = tmp_path / "out"
        argv = ["simulate", *init, "--eps1", "0.3", "--mode", "stochastic",
                "--bins", str(bins), *flags, "--out-dir", str(out)]
        with writer_mode(monkeypatch, forked):
            assert main(argv) == 0
        assert_no_child_left()
        spec = InteractionSpec(eps1=0.3, sigma_mode="stochastic")
        tr = (simulate(ps, spec, cfg) if isinstance(cfg, IntegratorConfig)
              else mfi_simulate(ps, spec, cfg))
        assert (out / "trajectory.csv").read_bytes() == trajectory_csv(tr, ps.features)
        assert (out / "density.csv").read_bytes() == density_csv(tr, bins)
        assert not [f for f in os.listdir(out) if f.startswith(".tmp-out-")]
        return tr

    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("d2", [0, 1])
    def test_bytes_match_oracle(self, tmp_path, monkeypatch, forked, d1, d2):
        ps, init = self.particles(tmp_path, 23, d1, d2, seed=10 * d1 + d2)
        self.check(tmp_path, monkeypatch, forked, ps, init,
                   ["--M", "3", "--t-final", "2", "--seed", "4"],
                   MfiConfig(M=3, dt=0.5, t_final=2.0, seed=4))

    def test_record_every_adds_final_snapshot(self, tmp_path, monkeypatch, forked):
        ps, init = self.particles(tmp_path, 30, 2, 1)
        tr = self.check(tmp_path, monkeypatch, forked, ps, init,
                        ["--t-final", "2.5", "--record-every", "3"],
                        MfiConfig(M=10, dt=0.5, t_final=2.5, seed=0, record_every=3))
        assert [t for t, _ in tr.snapshots] == [0.0, 1.5, 2.5]

    def test_euler_early_stop(self, tmp_path, monkeypatch, forked):
        ps, init = self.particles(tmp_path, 40, 1, 0)
        tr = self.check(tmp_path, monkeypatch, forked, ps, init,
                        ["--method", "euler", "--t-final", "50", "--stop-tol", "1e-6"],
                        IntegratorConfig(dt=0.5, t_final=50.0, stop_tol=1e-6))
        assert tr.terminated_early and tr.final.t < 50.0

    def test_one_particle(self, tmp_path, monkeypatch, forked):
        ps, init = self.particles(tmp_path, 1, 2, 1)
        self.check(tmp_path, monkeypatch, forked, ps, init,
                   ["--method", "euler", "--t-final", "1.5", "--stop-tol", "0"],
                   IntegratorConfig(dt=0.5, t_final=1.5, stop_tol=0.0))

    def test_run_that_raises_leaves_no_snapshot_file(self, tmp_path, monkeypatch, forked):
        """A run that fails after some snapshots were written (the writer
        has made its temp files) leaves neither table, nor a temp file."""
        from bcclust import mfi

        real_step = mfi.mfi_step

        def failing_step(ps, spec, cfg, k, *rest):
            if k == 4:
                raise RuntimeError("step failed")
            return real_step(ps, spec, cfg, k, *rest)

        monkeypatch.setattr(mfi, "mfi_step", failing_step)
        out = tmp_path / "out"
        with writer_mode(monkeypatch, forked):
            with pytest.raises(RuntimeError, match="step failed"):
                main(["simulate", "--n", "500", "--eps1", "0.2", "--mode", "stochastic",
                      "--t-final", "5", "--out-dir", str(out)])
        assert_no_child_left()
        assert os.listdir(out) == []

    def test_writer_that_fails_is_runtime_error(self, tmp_path, monkeypatch, capsys, forked):
        """A trajectory.csv that is a directory fails the writer's rename, at
        the end of the run: exit 1 with one error line, and no temp file."""
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        with writer_mode(monkeypatch, forked):
            assert main(["simulate", "--n", "50", "--eps1", "0.2", "--mode", "stochastic",
                         "--t-final", "2", "--out-dir", str(out)]) == 1
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajectory.csv" in err
        assert err.count("\n") == 1
        assert not [f for f in os.listdir(out) if f.startswith(".tmp-out-")]
        assert not (out / "density.csv").exists()

    def test_writer_failing_mid_run_is_runtime_error(self, tmp_path, monkeypatch, capsys,
                                                      forked):
        """A writer that fails at its third snapshot, while the run still
        sends more (a broken pipe when forked), gives exit 1 with the
        writer's message, and no table or temp file."""
        real_writer = bio.snapshot_writer

        @contextlib.contextmanager
        def failing_writer(*args, **kwargs):
            with real_writer(*args, **kwargs) as write:
                count = []

                def wrapped(t, positions):
                    count.append(t)
                    if len(count) == 3:
                        raise ClusteringError("no space left for snapshot 3")
                    write(t, positions)
                yield wrapped

        monkeypatch.setattr(bio, "snapshot_writer", failing_writer)
        out = tmp_path / "out"
        with writer_mode(monkeypatch, forked):
            assert main(["simulate", "--n", "3000", "--eps1", "0.2", "--mode", "stochastic",
                         "--t-final", "10", "--out-dir", str(out)]) == 1
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no space left for snapshot 3" in err
        assert not [f for f in os.listdir(out)
                    if f.startswith(".tmp-out-") or f in ("trajectory.csv", "density.csv")]


class TestDeterminism:
    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--n", "300", "--eps1", "0.15", "--method", "mfi",
                "--M", "5", "--mode", "stochastic", "--t-final", "5",
                "--seed", "11"]
        assert run(argv + ["--out-dir", str(a)]) == 0
        assert run(argv + ["--out-dir", str(b)]) == 0
        for name in ("trajectory.csv", "moments.csv", "clusters.csv",
                     "steady_state.csv", "density.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_rerun_from_manifest_bit_identical(self, tmp_path):
        """A run's own manifest as --config reproduces every CSV, byte for
        byte; unset parameters are left out of it."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--n", "300", "--init", "gaussian-feature",
                    "--eps1", "0.15", "--eps2", "0.2", "--method", "mfi",
                    "--M", "5", "--mode", "symmetric", "--t-final", "3",
                    "--seed", "11", "--out-dir", str(a)]) == 0
        manifest = bio.read_manifest(a / "manifest.txt")
        assert "merge_tol" not in manifest and "init_file" not in manifest
        assert run(["simulate", "--config", str(a / "manifest.txt"),
                    "--out-dir", str(b)]) == 0
        for name in ("trajectory.csv", "moments.csv", "clusters.csv",
                     "steady_state.csv", "density.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert bio.read_manifest(b / "manifest.txt") == dict(manifest, out_dir=str(b))


def runnable_config(tmp_path, cmd) -> dict:
    """Config entries that run cmd on a problem small enough for a test."""
    if cmd == "simulate":
        return {"n": "200", "eps1": "0.5", "mode": "stochastic",
                "t_final": "2", "seed": "3"}
    if cmd == "shape":
        return {"n": "100", "alpha_list": "0.05", "eps1_list": "0.1 0.2",
                "t_final": "1"}
    if cmd == "segment":
        img = tmp_path / "img.pgm"
        write_image(GrayImage(4, 4, np.linspace(0, 1, 16)), img)
        return {"input": str(img), "eps1": "0.5", "eps2": "0.3",
                "threshold": "0.5"}
    return {"n_list": "64 128", "M_list": "3", "steps": "1"}


def write_config(path, entries: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


class TestConfig:
    @pytest.mark.parametrize("cmd", ["simulate", "shape", "segment", "bench"])
    def test_manifest_replays_every_output(self, tmp_path, monkeypatch, cmd):
        """A run's manifest through --config gives the same outputs byte for
        byte and the same manifest apart from out_dir; bench's timings vary,
        so only its manifest is compared."""
        from bcclust import shapes

        monkeypatch.setattr(shapes, "_worker_count", lambda n: 1)
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path / "run.cfg", runnable_config(tmp_path, cmd))
        assert run([cmd, "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert run([cmd, "--config", str(a / "manifest.txt"),
                    "--out-dir", str(b)]) == 0
        manifest = bio.read_manifest(a / "manifest.txt")
        assert manifest["command"] == cmd
        assert bio.read_manifest(b / "manifest.txt") == dict(manifest, out_dir=str(b))
        names = sorted(os.listdir(a))
        assert sorted(os.listdir(b)) == names
        for name in names:
            if name != "manifest.txt" and cmd != "bench":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_init_file_manifest_records_the_file(self, tmp_path):
        """With --init file the manifest gives the file's n and d1, not the
        defaults, and replays the run byte for byte."""
        from bcclust.model import ParticleSet

        ps_path = tmp_path / "p2d.csv"
        rng = np.random.default_rng(4)
        bio.write_particles_csv(ps_path, ParticleSet(rng.uniform(0, 1, (50, 2))))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--init", "file", "--init-file", str(ps_path),
                    "--eps1", "0.5", "--mode", "stochastic", "--t-final", "1",
                    "--out-dir", str(a)]) == 0
        manifest = bio.read_manifest(a / "manifest.txt")
        assert (manifest["n"], manifest["d1"]) == ("50", "2")
        assert run(["simulate", "--config", str(a / "manifest.txt"),
                    "--out-dir", str(b)]) == 0
        assert bio.read_manifest(b / "manifest.txt") == dict(manifest, out_dir=str(b))
        for name in sorted(os.listdir(a)):
            if name != "manifest.txt":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("value", ["sp #1/q.pgm", " q.pgm", "q.pgm ",
                                       "#q.pgm", "a\nb.pgm"])
    def test_text_the_manifest_cannot_keep_is_usage_error(
            self, tmp_path, capsys, monkeypatch, value):
        """A text value read_manifest would cut or strip exits 2 before any
        output is written, though the file it names exists."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sp #1").mkdir()
        write_image(GrayImage(4, 4, np.linspace(0, 1, 16)), tmp_path / value)
        assert run(["segment", "--input", value, "--eps1", "0.5",
                    "--eps2", "0.3", "--out-dir", "out"]) == 2
        assert "--input" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        """A '#' not after whitespace, as in runs/bug#3, is no comment: the
        run and its replay both work."""
        a, b = tmp_path / "runs" / "bug#3", tmp_path / "runs" / "bug#4"
        img = tmp_path / "img#1.pgm"
        write_image(GrayImage(4, 4, np.linspace(0, 1, 16)), img)
        assert run(["segment", "--input", str(img), "--eps1", "0.5",
                    "--eps2", "0.3", "--out-dir", str(a)]) == 0
        manifest = bio.read_manifest(a / "manifest.txt")
        assert (manifest["input"], manifest["out_dir"]) == (str(img), str(a))
        assert run(["segment", "--config", str(a / "manifest.txt"),
                    "--out-dir", str(b)]) == 0
        assert (a / "segmented.pgm").read_bytes() == (b / "segmented.pgm").read_bytes()

    @pytest.mark.parametrize("cmd, key", [
        ("simulate", "eps1"), ("simulate", "mode"),
        ("shape", "alpha_list"), ("shape", "eps1_list"),
        ("segment", "input"), ("segment", "eps1"), ("segment", "eps2"),
        ("bench", "n_list"), ("bench", "M_list")])
    def test_missing_required_is_usage_error(self, tmp_path, capsys, cmd, key):
        """Each required parameter left out of a runnable config stops the
        run with exit 2, naming its flag, before any output is written."""
        entries = runnable_config(tmp_path, cmd)
        del entries[key]
        cfg = write_config(tmp_path / "run.cfg", entries)
        out = tmp_path / "out"
        assert run([cmd, "--config", str(cfg), "--out-dir", str(out)]) == 2
        flag = "--" + key.replace("_", "-")
        assert re.search(f"{flag}(?![\\w-])", capsys.readouterr().err)
        assert not out.exists()


class TestShapeCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run(["shape", "--n", "150", "--alpha-list", "0.05",
                    "--eps1-list", "0.1 0.2", "--runs", "1",
                    "--t-final", "3", "--out-dir", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "summary.csv").exists()
        centers = [f for f in os.listdir(out) if f.startswith("centers_")]
        assert len(centers) == 2

    def test_centers_files_named_by_round_trip_values(self, tmp_path, monkeypatch):
        """Values that agree to six digits still name distinct files."""
        from bcclust import shapes

        monkeypatch.setattr(shapes, "_worker_count", lambda n: 1)
        out = tmp_path / "out"
        assert run(["shape", "--n", "100", "--alpha-list", "0.1 0.1000001",
                    "--eps1-list", "1", "--t-final", "1",
                    "--out-dir", str(out)]) == 0
        assert sorted(f for f in os.listdir(out) if f.startswith("centers_")) == [
            "centers_a0.1000001_e1.0_r0.csv", "centers_a0.1_e1.0_r0.csv"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("flag", ["--alpha-list", "--eps1-list"])
    def test_repeated_list_value_is_usage_error(self, tmp_path, capsys, flag):
        lists = {"--alpha-list": "0.05", "--eps1-list": "0.1"}
        lists[flag] = "0.1 0.2 0.1"
        assert run(["shape", "--n", "50", *(x for kv in lists.items() for x in kv),
                    "--t-final", "1", "--out-dir", str(tmp_path)]) == 2
        assert "repeat" in capsys.readouterr().err

    def test_pattern_file(self, tmp_path):
        pat = tmp_path / "seg.txt"
        pat.write_text("0.2 0.2 0.8 0.8\n")
        out = tmp_path / "out"
        assert run(["shape", "--pattern", "file", "--pattern-file", str(pat),
                    "--n", "80", "--alpha-list", "0.05",
                    "--eps1-list", "0.2", "--t-final", "2",
                    "--out-dir", str(out)]) == 0

    @pytest.mark.parametrize("line", ["0.2 0.2 1.5 0.5", "0.2 nan 0.8 0.8"])
    def test_pattern_outside_unit_square_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch, line):
        """An endpoint outside [0,1]^2, or not finite, exits 2 before any run."""
        from bcclust import shapes

        monkeypatch.setattr(shapes, "perturb",
                            mock.Mock(side_effect=AssertionError("a run started")))
        pat = tmp_path / "seg.txt"
        pat.write_text(line + "\n")
        out = tmp_path / "out"
        assert run(["shape", "--pattern", "file", "--pattern-file", str(pat),
                    "--n", "50", "--alpha-list", "0.05", "--eps1-list", "0.2",
                    "--t-final", "1", "--out-dir", str(out)]) == 2
        assert "[0,1]^2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["uniform", "gaussian"])
    def test_large_noise_fraction_finishes(self, tmp_path, noise):
        """At alpha = 1000 nearly every candidate leaves [0,1]^2, and each
        such point is redrawn once from its conditional law."""
        t0 = time.perf_counter()
        assert run(["shape", "--n", "50", "--alpha-list", "1000", "--eps1-list",
                    "0.1", "--t-final", "1", "--noise", noise,
                    "--out-dir", str(tmp_path)]) == 0
        assert time.perf_counter() - t0 < 5

    def test_missing_lists_usage_error(self, tmp_path):
        assert run(["shape", "--out-dir", str(tmp_path)]) == 2

    def test_config_error_in_a_worker_is_usage_error(self, tmp_path, monkeypatch):
        from bcclust import shapes

        monkeypatch.setattr(shapes, "_worker_count", lambda n: 2)
        assert run(["shape", "--n", "5", "--M", "10", "--alpha-list", "0.05",
                    "--eps1-list", "0.1", "--runs", "2", "--t-final", "1",
                    "--out-dir", str(tmp_path)]) == 2


class TestSegmentCommand:
    def make_quadrant(self, tmp_path, side=8):
        half = side // 2
        g = np.zeros((side, side))
        g[:half, :half] = 1.0
        g[half:, :half] = 0.75
        g[half:, half:] = 0.25
        img = GrayImage(side, side, g.ravel())
        path = tmp_path / "quad.pgm"
        write_image(img, path, "P5")
        return path

    def test_segment_quadrant(self, tmp_path):
        path = self.make_quadrant(tmp_path)
        out = tmp_path / "out"
        code = run(["segment", "--input", str(path), "--eps1", "0.5",
                    "--eps2", "0.3", "--threshold", "0.5",
                    "--out-dir", str(out)])
        assert code == 0
        seg = load_grayscale(out / "segmented.pgm")
        assert set(np.round(seg.intensities * 255).astype(int)) == {32, 223}
        binary = load_grayscale(out / "binary.pgm")
        assert set(binary.intensities) <= {0.0, 1.0}
        assert (out / "labels.csv").exists()
        assert (out / "clusters.csv").exists()

    def test_mfi_splits_quadrants_into_halves(self, tmp_path):
        """The subset integrator joins the quadrants whose intensities lie
        within eps2 (left 1.0 and 0.75, right 0.0 and 0.25) into the image's
        two halves, and a rerun gives the same bytes."""
        side = 16
        path = self.make_quadrant(tmp_path, side)
        argv = ["segment", "--input", str(path), "--eps1", "0.5", "--eps2", "0.3",
                "--method", "mfi", "--seed", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out-dir", str(a)]) == 0
        assert run(argv + ["--out-dir", str(b)]) == 0
        labels = np.loadtxt(a / "labels.csv", delimiter=",", skiprows=1, dtype=int)
        grid = labels[:, 2].reshape(side, side)
        left, right = grid[:, :side // 2], grid[:, side // 2:]
        assert len(set(left.ravel())) == len(set(right.ravel())) == 1
        assert left[0, 0] != right[0, 0]
        seg = load_grayscale(a / "segmented.pgm")
        assert set(np.round(seg.intensities * 255).astype(int)) == {32, 223}
        for name in ("segmented.pgm", "labels.csv", "clusters.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_input_runtime_error(self, tmp_path):
        assert run(["segment", "--input", str(tmp_path / "nope.pgm"),
                    "--eps1", "0.5", "--eps2", "0.3",
                    "--out-dir", str(tmp_path)]) == 1

    def test_corrupt_input_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        assert run(["segment", "--input", str(bad), "--eps1", "0.5",
                    "--eps2", "0.3", "--out-dir", str(tmp_path)]) == 1


class TestBenchCommand:
    def test_bench_writes_grid(self, tmp_path):
        out = tmp_path / "out"
        code = run(["bench", "--n-list", "256 512", "--M-list", "4 8",
                    "--steps", "3", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "n,M,seconds_per_step"
        assert len(lines) == 5

    def test_missing_lists(self, tmp_path):
        assert run(["bench", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("steps", ["1", "4"])
    def test_every_cell_timed(self, tmp_path, steps):
        """Cells take turns of up to three timed steps; a last, shorter turn
        still times every cell."""
        out = tmp_path / "out"
        assert run(["bench", "--n-list", "64 128", "--M-list", "3 6 200",
                    "--steps", steps, "--out-dir", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "bench.csv").read_text().splitlines()[1:]]
        assert [(int(n), int(M)) for n, M, _ in rows] == [
            (n, M) for n in (64, 128) for M in (3, 6, 200)]
        assert all(0 < float(sec) < 1 for _, _, sec in rows)

    def test_steps_must_be_positive(self, tmp_path):
        assert run(["bench", "--n-list", "64", "--M-list", "3", "--steps", "0",
                    "--out-dir", str(tmp_path)]) == 2


class TestUsageErrorsWriteNothing:
    """A parameter out of its range, nan or infinite is a usage error found
    before any run: exit 2, and no output directory."""

    BASE = {
        "simulate": ["--n", "40", "--eps1", "0.2", "--mode", "stochastic",
                     "--t-final", "1"],
        "segment": ["--eps1", "0.5", "--eps2", "0.3", "--t-final", "1"],
        "shape": ["--n", "40", "--alpha-list", "0.05", "--eps1-list", "0.1",
                  "--t-final", "1"],
    }

    @pytest.mark.parametrize("cmd, flag, value", [
        ("simulate", "--bins", "-3"), ("simulate", "--bins", "0"),
        ("simulate", "--t-final", "nan"), ("simulate", "--t-final", "inf"),
        ("simulate", "--eps2", "nan"), ("simulate", "--merge-tol", "nan"),
        ("segment", "--threshold", "2"), ("segment", "--threshold", "nan"),
        ("segment", "--eps1", "nan"), ("segment", "--eps2", "nan"),
        ("segment", "--merge-tol", "nan"),
        ("shape", "--alpha-list", "nan"), ("shape", "--alpha-list", "inf"),
        ("shape", "--eps1-list", "nan"), ("shape", "--t-final", "inf"),
        ("shape", "--merge-tol", "nan"), ("shape", "--merge-tol", "0"),
        ("shape", "--merge-tol", "-1"),
    ])
    def test_exit_2_and_no_output(self, tmp_path, monkeypatch, capsys,
                                  cmd, flag, value):
        from bcclust import shapes

        # every integration, and a sweep run in this process, fails the test:
        # the error must come before any run starts
        monkeypatch.setattr(shapes, "_worker_count", lambda n: 1)
        for name in ("bcclust.cli.simulate", "bcclust.cli.mfi_simulate",
                     "bcclust.imageseg.simulate", "bcclust.imageseg.mfi_simulate",
                     "bcclust.shapes.perturb"):
            monkeypatch.setattr(name, mock.Mock(side_effect=AssertionError("a run started")))
        argv = [cmd, *self.BASE[cmd], flag, value, "--out-dir", str(tmp_path / "out")]
        if cmd == "segment":
            path = tmp_path / "img.pgm"
            write_image(GrayImage(4, 4, np.linspace(0, 1, 16)), path, "P5")
            argv += ["--input", str(path)]
        assert run(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_steady_states_script_runs(tmp_path):
    """The survey script, which no test imports, starts and parses its flags
    in a fresh interpreter."""
    import bcclust

    src = os.path.dirname(os.path.dirname(bcclust.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", "steady_states.py")
    out = subprocess.run([sys.executable, script, "--help"], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "--seeds" in out.stdout


def modules_after_cli_import(*names):
    """Which of the given modules (and their submodules) a fresh interpreter
    has loaded after `import bcclust.cli`."""
    import bcclust

    src = os.path.dirname(os.path.dirname(bcclust.__file__))
    code = (f"import sys, bcclust.cli; names = {names!r}; "
            "print(sorted(m for m in sys.modules "
            "if any(m == n or m.startswith(n + '.') for n in names)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    return out.strip()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        """scipy is imported inside the functions that use it: loading it with
        the CLI would more than double the start-up time of every command."""
        assert modules_after_cli_import("scipy") == "[]"

    def test_cli_import_loads_no_process_pool(self):
        """The sweep imports its process pool when it runs: every command
        would otherwise pay for that import at start-up."""
        assert modules_after_cli_import(
            "multiprocessing", "concurrent.futures.process") == "[]"
