"""Smoke tests of the benchmark itself (not of regimehedge).

Run from the root of the repository:
    python3 -m pytest -q bench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_benchmark_json_lists_the_generated_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["workloads"]
    assert {w["name"]: w["why"] for w in declared} == workloads.WHY


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_bytes_repeat_for_a_seed(workload):
    first = workloads.config_bytes(workload, 7)
    assert workloads.config_bytes(workload, 7) == first
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "sys.stdout.buffer.write(workloads.config_bytes(sys.argv[2], 7))")
    other = subprocess.run([sys.executable, "-c", code, BENCH, workload],
                           capture_output=True, check=True).stdout
    assert other == first


def test_seed_moves_only_the_stochastic_inputs():
    a = workloads.make_config("demo_report", 1)
    b = workloads.make_config("demo_report", 2)
    for doc in (a, b):
        del doc["mc"]["seed"], doc["residual_risk"]["seed"]
        del doc["envelope_check_seed"]
    assert a == b
    assert workloads.config_bytes("demo_report", 1) \
        != workloads.config_bytes("demo_report", 2)


def test_wrappers_restore_original_bindings():
    originals = []
    for mod_name, attr, _ in spans.BINDINGS:
        owner = importlib.import_module(mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals.append((owner, name, vars(owner)[name]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for owner, name, fn in originals:
            assert vars(owner)[name] is not fn
            assert vars(owner)[name].__wrapped__ is fn
    finally:
        tracer.uninstall()
    for owner, name, fn in originals:
        assert vars(owner)[name] is fn


def test_self_time_subtracts_children():
    solve, step, grid = ("volterra_pricer.solve", "volterra_pricer.step",
                         "regime_bsm.price_grid")
    sp = [[solve, 0.0, 10.0, -1], [step, 1.0, 4.0, 0], [step, 2.0, 3.0, 1],
          [grid, 5.0, 6.0, 0], [grid, 11.0, 12.0, -1]]
    summ = spans.summarize(sp, 13.0)
    assert summ["self_s"][solve] == 6.0
    assert summ["total_s"][step] == 3.0     # the nested call counts once
    assert summ["self_s"][step] == 3.0
    assert summ["calls"][step] == 2
    assert summ["total_s"][grid] == 2.0
    assert summ["top_level_s"] == 11.0
    assert summ["unattributed_s"] == 2.0
    assert spans.ancestor_calls(sp, grid, solve) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_shrunk_workload_runs_end_to_end(workload):
    plain = run.run(ROOT, workload, 3, 0, trace=False, shrink=True)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = run.run(ROOT, workload, 3, 0, trace=True, shrink=True)
    assert traced["correct"] and traced["failed"] == 0
    assert traced["attempted"] == 2
    assert set(traced["metrics"]) == _declared("per_layer")
    m = traced["metrics"]
    assert m["volterra_pricer.solves"]["value"] >= 1
    assert m["volterra_pricer.sweeps"]["value"] >= 2
    assert m["volterra_pricer.solve_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "demo_report", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
