"""Tests of the benchmark itself: the gate must catch wrong output, and the
emitted metric names must be the ones BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest perfbench -q      (from the repository root)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gravcat_coding as gc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from reference import reference_chi  # noqa: E402
from workloads import CliCold, FiguresClosed, OptimizePoints, OracleNumeric  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, facts_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(facts_line)["facts"], json.loads(result_line)


@pytest.fixture(scope="module")
def figure_op():
    wl = FiguresClosed(7, ROOT)
    figure_id = wl.inputs(0)
    return wl, figure_id, wl.op(figure_id)


def test_figure_gate_accepts_the_program_output(figure_op):
    wl, figure_id, out = figure_op
    assert wl.check(figure_id, out, 0) == []


def test_figure_gate_catches_one_perturbed_cell(figure_op):
    wl, figure_id, (grid, _) = figure_op
    values = grid.values.copy()
    values[137, 61] += 1e-6
    bad = gc.SweepGrid(grid.x_axis, grid.y_axis, grid.fixed, values, grid.engine)
    fails = wl.check(figure_id, (bad, gc.render_csv(bad)), 0)
    assert any("vs reference" in f for f in fails)


def test_numeric_grid_gate_catches_one_perturbed_cell():
    wl = OracleNumeric(7, ROOT)
    inp = wl.inputs(0)
    report, grid, stages = wl.op(inp)
    assert wl.check(inp, (report, grid, stages), 0) == []
    values = grid.values.copy()
    values[3, 5] += 1e-6
    bad = gc.SweepGrid(grid.x_axis, grid.y_axis, grid.fixed, values, grid.engine)
    assert wl.check(inp, (report, bad, stages), 0)


def test_optimize_gate_catches_a_perturbed_capacity():
    wl = OptimizePoints(7, ROOT)
    points = wl.inputs(0)[:2]
    out = wl.op(points)
    assert wl.check(points, out, 0) == []
    (p_star, chi_star), second = out
    assert wl.check(points, [(p_star, chi_star + 1e-6), second], 0)


def test_nonzero_exit_counts_as_failure():
    wl = CliCold(7, ROOT)
    kind, point, _ = wl.inputs(1)
    bad = (kind, point, ["capacity", "--omega", "-1", "--gamma", "1", "--temp", "1"])
    out = wl.op(bad)
    assert out[0] == 2
    assert wl.check(bad, out, 1)
    tally = run.Tally()
    wl.inputs = lambda i: bad
    tally.run(wl, 1, lambda inp, i: wl.op(inp))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_reference_matches_the_closed_form_engine():
    omega, gamma, temperature = np.meshgrid([0.01, 0.7, 3.0], [0.0, 1.3, 3.0], [0.01, 0.4, 2.0])
    for strength in (None, 0.0, 0.5, 0.999):
        want = np.vectorize(lambda o, g, t: gc.cell_capacity("closed_form", o, g, t, strength))(
            omega, gamma, temperature
        )
        assert np.abs(reference_chi(omega, gamma, temperature, strength) - want).max() < 1e-11


def test_tail_has_ten_values_beyond_it():
    value, percentile = run.tail([float(v) for v in range(1, 41)])
    assert value == 30.0 and percentile == 75.0


def test_tracer_sees_every_binding_of_eigh():
    rec = tracing.Recorder()
    rec.install()
    try:
        rec.run_op(0, gc.verification_report, 1, 5)
    finally:
        rec.uninstall()
    totals = tracing.summarize(rec.names, rec.arrays())
    assert totals["linalg.eigh"]["calls"] == 7  # per verify sample
    assert gc.eigh is gc.linalg.eigh and not hasattr(gc.eigh, "__wrapped__")


def test_untraced_metrics_match_benchmark_json_on_two_seeds():
    for seed in (1, 2):
        facts, result = _run("optimize-points", seed, trace=0)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
        assert facts["seed"] == seed and facts["cpu_affinity"] >= 1
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_metrics_match_benchmark_json():
    _, result = _run("optimize-points", 1, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["linalg.eigh.calls"] == 0
    assert 1000 < metrics["weak_measurement.chi_evals_per_point"] < 1100


def test_run_refuses_a_directory_without_the_program():
    empty = ROOT / ".perfbench" / "empty"
    empty.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
