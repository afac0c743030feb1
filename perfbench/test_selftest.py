"""Self-tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench

They run every workload at its tiny size, show that a wrong reference or a
wrong estimate fails the run, that the tracer restores opgrowth exactly, and
that traced counts repeat between runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import opgrowth  # noqa: E402
import opgrowth.simulate  # noqa: E402
import opgrowth.states  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402
from references import free_fermion_z0  # noqa: E402


def _bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return proc.returncode, result


def _copy_checkout(name: str, with_src: bool = True) -> str:
    dest = os.path.join(SCRATCH, name)
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    code, result = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--size", "tiny")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in bench_run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails_the_run():
    dest = _copy_checkout("corrupt")
    path = os.path.join(dest, "perfbench", "recorded.json")
    with open(path) as fh:
        data = json.load(fh)
    data["sim_2d_tgrid/tiny"]["values"][0][2] += 1e-6
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, result = _bench("--workload", "sim_2d_tgrid", "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--size", "tiny", root=dest)
    assert code != 0
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("name", ["dominance_sweep", "oracle_1d_L18", "ssb_diagnostics"])
def test_injected_wrong_estimate_is_counted(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, "tiny", str(tmp_path))
    workload.setup()
    if name == "dominance_sweep":
        workload.outputs = [(1.0, 0.5, 0.5)]
    elif name == "oracle_1d_L18":
        os.makedirs(workload.out_dir)
        path = os.path.join(workload.out_dir, "oracle.csv")
        with open(path, "w") as fh:
            fh.write("t,exact\n" + "".join(f"{t},{v + 1e-9}\n"
                                           for t, v in workload.reference.items()))
        workload.outputs = [path]
    else:
        workload.outputs = [("identity", 0, 1e-6), ("ghz0", 6, 1e-3)]
    checks = workloads.Checks()
    workload.check(checks)
    assert checks.failed > 0


def test_bare_benchmark_directory_exits_nonzero_without_result():
    dest = _copy_checkout("bare", with_src=False)
    code, result = _bench("--workload", "sim_2d_tgrid", "--seed", "1", "--seconds", "1",
                          "--trace", "0", root=dest)
    assert code != 0 and result is None


def _snapshot() -> dict:
    import opgrowth.cli  # noqa: F401

    out = {}
    for mod in bench_tracer.opgrowth_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for attr, value in vars(opgrowth.states.ProductState).items():
        out[("ProductState", attr)] = value
    return out


def test_tracer_restores_every_attribute_after_an_exception():
    before = _snapshot()
    tracer = bench_tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert opgrowth.simulate.plan is not before[("opgrowth.simulate", "plan")]
            assert opgrowth.plan is opgrowth.simulate.plan
            raise RuntimeError("boom")
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.absent == []


def test_tracer_reports_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(opgrowth.simulate, "raw_cluster_expectation")
    tracer = bench_tracer.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["simulate.raw_cluster_expectation"]
    values = tracer.metrics()
    assert values["simulate.raw_cluster_expectation.calls"] == 0
    assert values["trace.absent"] == 1


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_counts_repeat(workload):
    results = []
    for _ in range(2):
        code, result = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                              "--trace", "1", "--size", "tiny")
        assert code == 0 and result["correct"]
        results.append(result["metrics"])
    assert set(results[0]) == {name for name, _ in bench_tracer.metric_names()}
    counts = [name for name in results[0] if name.endswith(bench_tracer.DETERMINISTIC_SUFFIXES)]
    assert counts
    assert {n: results[0][n] for n in counts} == {n: results[1][n] for n in counts}


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_tracer.metric_names()


@pytest.mark.parametrize("L", [2, 6, 9])
def test_free_fermion_reference_matches_the_oracle(L):
    from opgrowth.lattice import build_square_lattice
    from opgrowth.operators import build_named_hamiltonian, exact_expectation, pauli_operator
    from opgrowth.states import ProductState

    H = build_named_hamiltonian("tfim", build_square_lattice(1, L), {"J": 0.8, "g": 1.3})
    for t in (0.3, 1.1):
        exact = exact_expectation(H, pauli_operator("Z", (0,)), ProductState.all_zero(), t)
        assert abs(exact - free_fermion_z0(L, 0.8, 1.3, t)) < 1e-12
