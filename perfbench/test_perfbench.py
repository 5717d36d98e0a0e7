"""Tests of the benchmark's own output checks and span recorder.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from bcclust.cli import main as cli_main  # noqa: E402


def _simulate(tmp_path, n=200):
    x0 = np.random.default_rng(5).uniform(0.0, 1.0, size=(n, 1))
    particles = tmp_path / "particles.csv"
    run.write_particles(particles, x0)
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--init", "file", "--init-file", str(particles),
                     "--eps1", "0.15", "--mode", "stochastic", "--method", "mfi",
                     "--M", "5", "--dt", "0.5", "--t-final", "2", "--seed", "3",
                     "--out-dir", str(out)]) == 0
    return out, x0


SHAPE_ARGS = ["shape", "--n", "200", "--alpha-list", "0.05", "--eps1-list",
              "0.1", "--runs", "2", "--t-final", "5", "--seed", "2"]


def test_simulate_check_rejects_truncated_trajectory(tmp_path):
    out, x0 = _simulate(tmp_path)
    assert checks.check_simulate(out, x0, snapshots=5) == []
    traj = out / "trajectory.csv"
    data = traj.read_bytes()
    traj.write_bytes(data[:len(data) // 2])
    assert checks.check_simulate(out, x0, snapshots=5)
    # a clean cut at a line end: the snapshot count no longer matches
    traj.write_bytes(data[:data.rindex(b"\n", 0, len(data) // 2) + 1])
    assert checks.check_simulate(out, x0, snapshots=5)


def test_shape_check_rejects_missing_row_and_bad_error(tmp_path):
    out = tmp_path / "shape"
    assert cli_main(SHAPE_ARGS + ["--out-dir", str(out)]) == 0
    assert checks.check_shape(out, runs=2) == []
    sweep = out / "sweep.csv"
    lines = sweep.read_text().splitlines(keepends=True)
    sweep.write_text("".join(lines[:-1]))
    assert checks.check_shape(out, runs=2)
    header = lines[0].rstrip("\n").split(",")
    row = lines[1].rstrip("\n").split(",")
    row[header.index("E")] = "nan"
    sweep.write_text("".join([lines[0], ",".join(row) + "\n", lines[2]]))
    assert checks.check_shape(out, runs=2)


def test_segment_check_rejects_changed_label_and_wrong_gray_level(tmp_path):
    image = run.write_quadrant_pgm(tmp_path / "quad.pgm", 16)
    out = tmp_path / "seg"
    assert cli_main(["segment", "--input", str(tmp_path / "quad.pgm"),
                     "--eps1", "0.5", "--eps2", "0.3", "--threshold", "0.5",
                     "--out-dir", str(out)]) == 0
    assert checks.check_segment(out, image) == []

    bad_label = tmp_path / "bad_label"
    shutil.copytree(out, bad_label)
    labels = bad_label / "labels.csv"
    lines = labels.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[-1] = str(1 - int(cells[-1]))
    labels.write_text("".join(lines[:-1]) + ",".join(cells) + "\n")
    assert checks.check_segment(bad_label, image)

    bad_gray = tmp_path / "bad_gray"
    shutil.copytree(out, bad_gray)
    pgm = bad_gray / "segmented.pgm"
    data = bytearray(pgm.read_bytes())
    data[-1] += 1
    pgm.write_bytes(bytes(data))
    assert checks.check_segment(bad_gray, image)


def test_self_times_sum_to_root_span():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    rec = tracer.Recorder("r", clock=lambda: next(ticks))
    with rec.span("root"):          # 0 .. 10
        with rec.span("a"):         # 1 .. 4
            with rec.span("a1"):    # 2 .. 3
                pass
        with rec.span("b"):         # 5 .. 9
            with rec.span("b1"):    # 6 .. 8
                pass
    selft = tracer.self_times(rec.spans)
    root = rec.spans[0]
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0, 3]
    assert all(s["run"] == "r" for s in rec.spans)
    assert selft == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0}
    assert sum(selft.values()) == root["end"] - root["start"]


def test_traced_call_writes_same_outputs_and_restores_names(tmp_path):
    import bcclust.mfi
    original = bcclust.mfi.mfi_step
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli_main(SHAPE_ARGS + ["--out-dir", str(plain)]) == 0
    spans_path = tmp_path / "spans.json"
    assert tracer.main(["--spans", str(spans_path), "--run-id", "t", "--",
                        *SHAPE_ARGS, "--out-dir", str(traced)]) == 0
    assert bcclust.mfi.mfi_step is original
    assert checks.digests(plain) == checks.digests(traced)
    trace = json.loads(spans_path.read_text())
    assert trace["missing_hooks"] == []
    m = tracer.layer_metrics(trace["spans"])
    assert m["mfi.steps"] == 20 and m["rng.subsets_calls"] == 20
    assert m["rng.subsets_rows"] == 20 * 200
    assert 0 < m["mfi.active_fraction"] <= 1
    assert m["dynamics.euler_steps"] == 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
