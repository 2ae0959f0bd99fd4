"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

At smoke size every metric that BENCHMARK.json names is emitted with its
unit, and a run of the unmodified engine reports no failures.  A wrong
expectation, or a wrong engine, makes items fail instead of passing or
aborting the run.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from qsphere import algebra, cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def failures(units, count):
    verdicts = [ok for unit in itertools.islice(units, count) for _, ok in unit()]
    return sum(not ok for ok in verdicts), len(verdicts)


def test_wrong_engine_fails_hopf_items(monkeypatch):
    assert failures(workloads.hopf(1, False, None), 6)[0] == 0
    monkeypatch.setattr(algebra, "antipode", lambda x: x)
    failed, attempted = failures(workloads.hopf(1, False, None), 6)
    assert attempted == 6 and failed > 0


def test_wrong_report_fails_geometry_items(monkeypatch):
    monkeypatch.setattr(cli, "_SUITE_BUILDERS", dict(cli._SUITE_BUILDERS))
    expected = dict(workloads.EXPECTED_REPORTS)
    expected["metric"] = expected["metric"].replace("metric-invariance: pass", "metric-invariance: fail")
    monkeypatch.setattr(workloads, "EXPECTED_REPORTS", expected)
    suites = {}
    for unit, suite in zip(workloads.geometry(3, False, None), workloads.GEOMETRY_SUITES[:3]):
        suites[suite] = [ok for _, ok in unit()]
    assert all(suites["calculus"]) and all(suites["sphere"])
    assert suites["metric"] == [False, False, False]


def test_wrong_expectation_fails_cli_items(monkeypatch):
    assert failures(workloads.cli_workload(2, False, None), 2) == (0, 2)
    monkeypatch.setattr(workloads, "cli_expected", lambda expr: "not the output\n")
    assert failures(workloads.cli_workload(2, False, None), 2) == (2, 2)
    assert failures(workloads.cli_workload(2, True, None), 2) == (2, 2)


def test_tracer_reaches_every_kind_of_binding():
    # run apart: installing the tracer rewrites the engine's modules
    script = """
import tracer
from qsphere import algebra, calculus, riemann, spin
t = tracer.Tracer()
tracer.install(t)
assert calculus.coproduct is algebra.coproduct            # from-import
assert calculus._q is algebra.Scalar.q_power              # alias of a static method
assert riemann.LEVI_CIVITA.apply is riemann.nabla         # slot of a module-level instance
assert spin.transported_dirac.__wrapped__.__defaults__[0] is spin.canonical_coefficients
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=HERE,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
