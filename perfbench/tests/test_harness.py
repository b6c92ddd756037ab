"""Smoke tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yamabeflow as yf  # noqa: E402
from yamabeflow import flow, spectral  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_units_match_benchmark_json():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric["name"]


def test_tracer_restores_the_package():
    originals = (flow.step, flow.run, spectral.cg, spectral.dirichlet_eigen)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert flow.step is not originals[0]
        grid = yf.GridSpec(3, (8, 8, 8), (1.0, 1.0, 1.0))
        bg = yf.Background(grid, yf.ScalarField.constant(grid, -2.0), yf.ScalarField.constant(grid, -1.0))
        flow.run(bg, yf.ScalarField.constant(grid, 1.0), yf.FlowConfig(t_max=1e-3, record_every=5))
    assert (flow.step, flow.run, spectral.cg, spectral.dirichlet_eigen) == originals
    counts, seconds, steps_ms = tracing.rep_layers(tracer)
    assert counts["flow.step.calls"] == len(steps_ms) > 0
    assert counts["flow.stable_dt.calls"] == counts["flow.step.calls"]
    assert seconds["flow.step.time_s"] > 0.0 and seconds["flow.run.self_s"] > 0.0


def test_dt_caps_cover_every_step():
    grid = yf.GridSpec(3, (8, 8, 8), (1.0, 1.0, 1.0))
    bg = yf.Background(grid, yf.ScalarField.constant(grid, -2.0), yf.ScalarField.constant(grid, -1.0))
    cfg = yf.FlowConfig(t_max=2e-3, record_every=5)
    traj = flow.run(bg, yf.ScalarField.constant(grid, 1.0), cfg)
    caps = workloads.dt_caps(bg, cfg.cfl_fraction, cfg.t_max, traj.step_t, traj.step_min_u, traj.step_dt[1:])
    assert sum(caps.values()) == traj.final.step
    assert caps["tmax_clip"] == 1 and caps["diffusion"] == traj.final.step - 1


def test_checks_continue_after_a_failure():
    checks = workloads.Checks()
    checks.add("raises", lambda: 1 / 0)
    checks.add("false", lambda: False)
    checks.add("true", lambda: True)
    assert [ok for _, ok, _ in checks.results] == [False, False, True]
    assert checks.failed[0].startswith("raises ZeroDivisionError")


@pytest.mark.parametrize(
    "workload, trace, section",
    [("cli-record-io", "0", "end_to_end"), ("trapped-flow", "1", "per_layer")],
)
def test_result_line_names_every_metric(workload, trace, section):
    out = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "trapped-flow", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
