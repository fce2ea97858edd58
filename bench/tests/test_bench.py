"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Bytes written are not counted: manifest.json records the run's wall time.
COUNT_UNITS = ("count/op", "ratio")


def bench(workload, *extra, trace=0, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload, *extra, trace=0):
    code, lines = bench(workload, *extra, trace=trace)
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_emits_every_metric_with_its_unit(workload, trace):
    res = result(workload, trace=trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in res["metrics"].values())


def test_forced_newton_failures_count_in_failed():
    res = result("forward_2d", "--newton-cap", "1")
    # the oracle still passes; every smoothed solve raises SolverError
    assert res["correct"] is True
    assert res["attempted"] == 9 and res["failed"] == 8
    assert res["metrics"]["passed_frac"]["value"] == pytest.approx(1 / 9)

    res = result("continuation_cli_2d", "--newton-cap", "1")
    assert res["failed"] == res["attempted"] == 2


@pytest.mark.parametrize("workload", ("forward_2d", "continuation_cli_2d"))
def test_traced_counts_repeat_exactly(workload):
    runs = [result(workload, trace=1)["metrics"] for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in m.items() if v["unit"] in COUNT_UNITS and not k.startswith("trace.")}
        for m in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["forward.factorizations"] > 0


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("forward_2d", cwd=tmp_path)
    assert code != 0 and lines == []


def test_wrappers_pass_results_and_errors_through():
    tracer = tracing.Tracer()

    def child(x):
        if x < 0:
            raise ValueError("negative")
        return [x]

    traced_child = tracer.wrap("child", child)
    traced_parent = tracer.wrap("parent", lambda x: traced_child(x), lambda r, a, k: len(r))
    tracer.current_op = 7
    out = traced_parent(2)
    assert out == [2]
    with pytest.raises(ValueError, match="negative"):
        traced_parent(-1)
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["parent", "child", "parent", "child"]
    assert list(spans["parent"]) == [-1, 0, -1, 2]
    assert list(spans["op"]) == [7] * 4
    assert list(spans["failed"]) == [False, False, True, True]
    assert spans["value"][0] == 1.0
    assert np.all(spans["end"] >= spans["start"])


def test_a_hook_that_no_longer_exists_records_zero():
    tracer = tracing.Tracer()
    tracer.install([("vi_ident.forward", "no_such_solver", "forward.oracle", None),
                    ("vi_ident.no_such_module", "f", "forward.splu", None)])
    try:
        assert tracer.missing == ["vi_ident.forward.no_such_solver", "vi_ident.no_such_module.f"]
        metrics = tracing.layer_metrics(tracer, n_ops=1, n_setups=1, solved=1, timed_s=1.0)
    finally:
        tracer.uninstall()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["forward.oracle_calls"] == 0 and metrics["forward.factorizations"] == 0


def test_checks_flag_a_perturbed_solution(tmp_path):
    inputs = workloads.forward_setup(0, "tiny", tmp_path)
    ops = next(workloads.forward_rounds(inputs))
    outcomes = [workloads.Outcome(label, 0.0, *workloads.call(fn)) for label, fn in ops]
    passed = [o for o in outcomes if o.error is None and o.label != "oracle"]
    victim = passed[0]
    u = victim.result.u.copy()
    u[inputs.mesh.free_nodes[0]] += 1e-3
    victim.result = type(victim.result)(u, victim.result.residual_norm, 0, victim.result.eps)
    workloads.forward_check(inputs, outcomes)
    assert outcomes[0].status == workloads.OK
    assert victim.status == workloads.WRONG
    assert all(o.status == workloads.OK for o in passed[1:])
