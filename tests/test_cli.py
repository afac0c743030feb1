"""CLI contract: schemas, exit codes, determinism, golden headers."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opgrowth.bounds import BoundParams, path_sum_bound, truncation_error_bound, volume_bound
from opgrowth.cli import _fmt, fit_summary, main
from opgrowth.lattice import build_square_lattice
from opgrowth.operators import build_named_hamiltonian


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIM_CONFIG = {
    "command": "simulate",
    "seed": 7,
    "lattice": {"d": 1, "L": 8},
    "model": {"name": "tfim", "J": 1.0, "g": 0.9},
    "state": {"kind": "zero"},
    "observable": {"pauli": "Z", "sites": [0]},
    "plan": {"r": 2, "m_star": 3},
    "t_grid": [0.3, 0.6],
}


def test_simulate_csv_schema_and_rows(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ("t,m_star,estimate,exact,error,bound_value,clusters_evaluated,"
                        "classes_evaluated,wall_time")
    assert len(lines) == 1 + 2 * 3  # one row per (t, level)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == ["results.csv"]
    assert "config_sha256" in manifest and not manifest["truncated"]


SIM_2D_CONFIG = dict(SIM_CONFIG, lattice={"d": 2, "L": 4}, t_grid=[0.3, 0.6, 0.45])


def test_simulate_determinism_across_runs_and_threads(tmp_path):
    # the thread count is validated and recorded but changes no result; the 2D grid
    # run has several clusters per level, each evaluated in canonical order
    for label, config in (("chain", SIM_CONFIG), ("grid", SIM_2D_CONFIG)):
        cfg = write_config(tmp_path, config, name=f"{label}.json")
        outs = []
        for name, threads in (("a", None), ("b", None), ("c", 4)):
            out = tmp_path / label / name
            argv = ["--config", cfg, "--out", str(out)]
            if threads:
                argv += ["--threads", str(threads)]
            assert main(argv) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_simulate_clusters_evaluated_is_running_count(tmp_path):
    cfg = write_config(tmp_path, dict(SIM_2D_CONFIG, t_grid=[0.4]))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    # row m reports what a run with m_star = m evaluates: 1, 1+2, 1+2+3 clusters, as
    # the corner box shares no factor with the anchor box, and 1, 2, 4 classes: the
    # anchor box with its right or its lower neighbour is one class (the diagonal
    # mirror), and so are the two three-box clusters that hold the corner box
    assert [(r[1], r[6], r[7]) for r in rows] == [("1", "1", "1"), ("2", "3", "2"),
                                                  ("3", "6", "4")]


@pytest.mark.parametrize("config", [
    SIM_CONFIG,
    # with the default constants (box_offset = 0) the d = 2 bound decays as
    # exp(-M / vt), faster than the measured error at small t: 7 of 9 rows fail
    pytest.param(SIM_2D_CONFIG, marks=pytest.mark.xfail(
        strict=True, reason="default truncation-bound constants undercut the 2D error")),
], ids=["chain", "grid"])
def test_simulate_bound_value_per_level_dominates_error(tmp_path, config):
    d = config["lattice"]["d"]
    cfg = write_config(tmp_path, dict(config, params={"dimension": d}, oracle=True))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    r = config["plan"]["r"]
    valid = 0
    for row in rows:
        t, m, error, bound_value = float(row[0]), int(row[1]), float(row[4]), row[5]
        # row m carries the bound at volume m r^d, what a run with m_star = m reports
        assert float(bound_value) == truncation_error_bound(BoundParams(dimension=d), t, m * r**d)
        assert error <= float(bound_value)
        valid += 1
    assert valid == len(rows) == len(config["t_grid"]) * config["plan"]["m_star"]
    assert len({row[5] for row in rows}) == len(rows)  # no two levels share a bound


def test_paper_formula_grid_over_two_plans_matches_single_runs(tmp_path):
    base = {
        "command": "simulate",
        "mode": "paper-formula",
        "lattice": {"d": 1, "L": 6},
        "model": {"name": "tfim", "J": 1.0, "g": 0.9},
        "observable": {"pauli": "Z", "sites": [0]},
        "plan": {"epsilon": 0.05},
        "params": {"lr_velocity": 1.0, "decay_rate": 1.0, "sim_prefactor": 1.0,
                   "box_offset": 1e-9, "dimension": 1},
    }
    grid = [0.3, 0.1, 0.25, 0.2]  # box side 2, 1, 2, 1: two interleaved plans
    cfg = write_config(tmp_path, dict(base, t_grid=grid))
    assert main(["--config", cfg, "--out", str(tmp_path / "grid")]) == 0
    together = read_rows(tmp_path / "grid" / "results.csv")
    apart = []
    for i, t in enumerate(grid):
        cfg = write_config(tmp_path, dict(base, t_grid=[t]), name=f"t{i}.json")
        assert main(["--config", cfg, "--out", str(tmp_path / f"t{i}")]) == 0
        apart += read_rows(tmp_path / f"t{i}" / "results.csv")
    assert len(together) == len(apart)
    assert len({r[1] for r in together if r[0] == "0.3"}) != len(
        {r[1] for r in together if r[0] == "0.1"})  # the plans differ in m_star
    for row, ref in zip(together, apart):
        assert [row[i] for i in (0, 1, 5, 6, 7)] == [ref[i] for i in (0, 1, 5, 6, 7)]
        for i in (2, 3, 4):
            assert float(row[i]) == pytest.approx(float(ref[i]), abs=1e-12)


def test_simulate_cap_trip_keeps_header_and_exits_2(tmp_path, caplog):
    # t = 5 asks for 21-site boxes: one box covers the 21-site chain, above the cap
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "mode": "paper-formula",
        "lattice": {"d": 1, "L": 21},
        "model": {"name": "tfim", "J": 1.0, "g": 0.9},
        "plan": {"epsilon": 0.05},
        "params": {"lr_velocity": 1.0, "box_offset": 1e-9, "dimension": 1},
        "t_grid": [5.0, 6.0],
    })
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="opgrowth.simulate"):
        assert main(["--config", cfg, "--out", str(out)]) == 2
    assert "clamping" in caplog.text
    assert len((out / "results.csv").read_text().splitlines()) == 1
    assert json.loads((out / "manifest.json").read_text())["truncated"]


def test_invalid_epsilon_exits_2_without_csv(tmp_path):
    bad = dict(SIM_CONFIG, plan={"r": 2, "m_star": 3, "epsilon": -1.0})
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, bogus=1))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_command_rejected(tmp_path):
    cfg = write_config(tmp_path, {"command": "frobnicate"})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_lattice_command(tmp_path):
    cfg = write_config(tmp_path, {"command": "lattice", "lattice": {"d": 2, "L": 3}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "lattice.json").read_text())
    assert len(payload["factors"]) == 12


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_non_boolean_periodic_exits_2(tmp_path, value):
    # bool("false") is True: a string would silently build a ring
    cfg = write_config(tmp_path, {"command": "lattice",
                                  "lattice": {"d": 1, "L": 4, "periodic": value}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not (out / "lattice.json").exists()


@pytest.mark.parametrize("value", ["false", "true", 0, None])
def test_non_boolean_oracle_exits_2(tmp_path, value):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, oracle=value))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


def test_oracle_false_leaves_exact_empty(tmp_path):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, oracle=False))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert rows and all(r[3] == "" and r[4] == "" for r in rows)


def test_bound_sweep_window_flip(tmp_path):
    window = 5 / (2 * 1.0 * 4)  # r / (2 h degree)
    cfg = write_config(tmp_path, {
        "command": "bound",
        "params": {"term_norm_max": 1.0, "degree": 4, "dimension": 1},
        "sweeps": [
            {"bound": "combinatorial", "regions": [[20, 1, 5]],
             "t": [0.5 * window, 0.9 * window, 1.1 * window]},
            {"bound": "volume", "t": [2.0], "R": [3.0, 4.0, 5.0]},
        ],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "R,t,bound_name,value,valid_flag,exact"
    rows = [line.split(",") for line in lines[1:]]
    comb = [r for r in rows if r[2] == "combinatorial"]
    assert [r[4] for r in comb] == ["true", "true", "false"]
    assert comb[2][3] == ""  # no value outside the window
    vol = [float(r[3]) for r in rows if r[2] == "volume"]
    assert vol == sorted(vol, reverse=True)  # decreasing in R


def test_bound_evaluator_error_exits_1(tmp_path, monkeypatch):
    # only a validity-window miss becomes valid_flag=false; other errors are bugs
    import opgrowth.cli

    def broken(*args, **kwargs):
        raise ValueError("bug in the evaluator")

    monkeypatch.setattr(opgrowth.cli, "volume_bound", broken)
    cfg = write_config(tmp_path, {
        "command": "bound",
        "sweeps": [{"bound": "volume", "t": [2.0], "R": [3.0]}],
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_bound_dominance_sweep_pairs_oracle(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "bound",
        "lattice": {"d": 1, "L": 7},
        "model": {"name": "tfim", "J": 1.0, "g": 0.8},
        "params": {"term_norm_max": 1.0, "degree": 4, "dimension": 1},
        "sweeps": [
            {"bound": "dominance", "S": [[5]], "B": [[4, 5, 6]],
             "observable": {"pauli": "Z", "sites": [0]},
             "t": [0.05, 0.1]},
        ],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4  # two bounds per time point
    for r in rows:
        assert r[5] != ""  # oracle column populated
        if r[4] == "true":
            assert float(r[5]) <= float(r[3]) + 1e-12


def test_bound_path_sum_sweep_takes_r_outside_the_b_regions(tmp_path):
    # R = V minus the B_i, as in the dominance sweep: a smaller R could undercount
    config = {
        "command": "bound",
        "lattice": {"d": 1, "L": 8},
        "model": {"name": "tfim", "J": 1.0, "g": 0.7},
        "sweeps": [{"bound": "path_sum", "S": [[7]], "B": [[5, 6, 7]], "t": [1.0]}],
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    row = (out / "bounds.csv").read_text().splitlines()[1].split(",")
    graph = build_square_lattice(1, 8)
    model = build_named_hamiltonian("tfim", graph, {"J": 1.0, "g": 0.7})
    expected = path_sum_bound(graph, model, set(range(5)), [{7}], [{5, 6, 7}], 1.0)
    assert row[:5] == ["3.0", "1.0", "path_sum", repr(expected), "true"]
    assert expected > 1.0
    config["sweeps"][0]["R"] = [0]
    cfg = write_config(tmp_path, config, name="with_r.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "with_r")]) == 2


def test_bound_matrix_exp_sweep_reports_the_distance_from_r(tmp_path):
    # r is the distance from R = V minus the B_i to the S_i, never from B_i, which holds S_i
    regions = {"S": [[7]], "B": [[5, 6, 7]], "t": [1.0]}
    config = {
        "command": "bound",
        "lattice": {"d": 1, "L": 8},
        "model": {"name": "tfim", "J": 1.0, "g": 0.7},
        "sweeps": [dict(regions, bound="path_sum"), dict(regions, bound="matrix_exp")],
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[2]) for row in rows] == [("3.0", "path_sum"), ("3.0", "matrix_exp")]


def test_csv_floats_are_plain_reprs():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(np.float64(3.8e-15)) == "3.8e-15"
    assert _fmt(0.1) == repr(0.1) and _fmt(-2.5e-300) == "-2.5e-300"


def test_oracle_command(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "oracle",
        "lattice": {"d": 1, "L": 6},
        "model": {"name": "tfim", "J": 1.0, "g": 0.5},
        "observable": {"pauli": "Z", "sites": [0]},
        "t_grid": {"start": 0.0, "stop": 1.0, "num": 3},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "t,exact"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


def test_oracle_is_identical_across_blas_thread_counts(tmp_path):
    # 2^16 amplitudes: long enough for OpenBLAS to split a dot product across threads
    cfg = write_config(tmp_path, {
        "command": "oracle",
        "lattice": {"d": 1, "L": 16},
        "model": {"name": "tfim", "J": 1.0, "g": 1.05},
        "observable": {"pauli": "X", "sites": [7]},
        "t_grid": [0.25, 0.5, 1.0, 2.0],
    })
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"blas{blas}"
        subprocess.run([sys.executable, "-m", "opgrowth", "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append((out / "oracle.csv").read_bytes())
    assert len(outs[0].splitlines()) == 5
    assert outs[0] == outs[1]


def test_ssb_command_headers(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "ssb",
        "experiments": [
            {"kind": "rk", "lattice": {"d": 1, "L": 8, "periodic": True},
             "beta": [0.4], "region": "interval", "sizes": [2, 3]},
            {"kind": "ghz", "L": [4, 5], "g": 0.1},
        ],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rk = (out / "rk.csv").read_text().splitlines()
    assert rk[0] == "beta,R,boundary_bonds,disorder_value"
    assert len(rk) == 3
    ghz = (out / "ghz.csv").read_text().splitlines()
    assert ghz[0] == "L,g,delta"


def test_ssb_fit_summary(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "ssb",
        "experiments": [
            {"kind": "ghz", "L": [4, 5, 6, 7], "g": 0.1},
            {"kind": "rk", "lattice": {"d": 1, "L": 10, "periodic": True},
             "beta": [0.5], "region": "interval", "sizes": [2, 3, 4]},
        ],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    ghz_fit = fits["ghz_log_delta_vs_L"]
    assert ghz_fit["slope"] < 0 and ghz_fit["r_squared"] > 0.99
    (rk_key,) = [k for k in fits if k.startswith("rk_log_disorder")]
    # ring intervals share one boundary-bond count: reported as a plateau
    assert fits[rk_key]["relative_spread"] < 0.01


def test_ssb_compare_uses_params_dimension(tmp_path):
    params = {"prefactor": 1.0, "lr_velocity": 1.0, "volume_decay": 1.0, "dimension": 1}
    config = {
        "command": "ssb",
        "experiments": [
            {"kind": "rk", "lattice": {"d": 1, "L": 8, "periodic": True},
             "beta": [0.4], "region": "interval", "sizes": [2, 3]},
            {"kind": "compare", "params": params, "t": 1.05},
        ],
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    rows = json.loads((out / "compare.json").read_text())[0]["rows"]
    assert [row["R"] for row in rows] == [2.0, 3.0]
    for row in rows:
        assert row["bound"] == volume_bound(BoundParams(**params), row["R"], 1.05)
    # params.dimension is the one source of d
    config["experiments"][1]["d"] = 2
    cfg = write_config(tmp_path, config, name="with_d.json")
    assert main(["--config", cfg, "--out", str(tmp_path / "with_d")]) == 2


def test_fit_summary_values():
    fit = fit_summary([0, 1, 2], [0.0, 2.0, 1.0])
    assert fit["slope"] == pytest.approx(0.5) and fit["intercept"] == pytest.approx(0.5)
    assert fit["r_squared"] == pytest.approx(0.25)  # residual 1.5 over total 2
    assert fit["points"] == 3
    flat = fit_summary([0, 1, 2], [3.0, 3.0, 3.0])
    assert flat["slope"] == pytest.approx(0.0, abs=1e-12) and flat["r_squared"] == 1.0


def test_ssb_ghz_above_qubit_cap_exits_2(tmp_path):
    # refused before any 2^L x 2^L matrix is allocated
    cfg = write_config(tmp_path, {
        "command": "ssb",
        "experiments": [{"kind": "ghz", "L": [40]}],
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2


RING8 = {"d": 1, "L": 8, "periodic": True}


@pytest.mark.parametrize("experiment", [
    {"kind": "ghz", "L": [0]},
    {"kind": "ghz", "L": [4, -2]},
    {"kind": "rk", "lattice": RING8, "sizes": [0, -1]},
    {"kind": "rk", "lattice": RING8, "sizes": [2, 12]},
    {"kind": "rk", "lattice": {"d": 2, "L": 3, "periodic": True}, "region": "square",
     "sizes": [5]},
])
def test_ssb_sizes_outside_the_lattice_exit_2(tmp_path, experiment):
    # a valid experiment comes first; the bad one still leaves no row behind
    cfg = write_config(tmp_path, {
        "command": "ssb",
        "experiments": [{"kind": "rk", "lattice": RING8, "sizes": [2]},
                        {"kind": "ghz", "L": [4]}, experiment],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not (out / "rk.csv").exists() and not (out / "ghz.csv").exists()


def test_ssb_sizes_up_to_the_lattice_run(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "ssb",
        "experiments": [
            {"kind": "rk", "lattice": RING8, "beta": [0.4], "sizes": [1, 8]},
            {"kind": "rk", "lattice": {"d": 2, "L": 3, "periodic": True}, "beta": [0.4],
             "region": "square", "sizes": [3]},
            {"kind": "ghz", "L": [1]},
        ],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "rk.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1", "8", "3"]


def test_verify_default_suites_pass(tmp_path):
    cfg = write_config(tmp_path, {"command": "verify", "seed": 3})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"vanishing", "lemma73", "cluster_counts", "completeness"}
    assert all(entry["passed"] for entry in report.values())
    assert report["lemma73"]["worst_gap"] <= 1e-10


def test_verify_mutation_detected(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "verify", "seed": 3,
        "suites": ["completeness"], "mutate": "cluster_correction_sign",
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["completeness"]["passed"]


def test_verify_mutation_without_completeness_exits_2(tmp_path):
    # the mutation acts on the completeness suite only; without it the run proves nothing
    cfg = write_config(tmp_path, {
        "command": "verify", "suites": ["vanishing"], "mutate": "cluster_correction_sign",
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_non_integer_thread_count_exits_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"command": "lattice", "lattice": {"d": 1, "L": 4}})
    monkeypatch.setenv("OPGROWTH_THREADS", "abc")
    assert main(["--config", cfg, "--out", str(tmp_path / "o1")]) == 2
    monkeypatch.delenv("OPGROWTH_THREADS")
    for threads in ("abc", 2.5, True):
        cfg = write_config(tmp_path, {"command": "lattice", "threads": threads,
                                      "lattice": {"d": 1, "L": 4}})
        assert main(["--config", cfg, "--out", str(tmp_path / "o2")]) == 2


@pytest.mark.parametrize("seed", ["abc", 1.5, True])
def test_non_integer_seed_exits_2(tmp_path, seed):
    cfg = write_config(tmp_path, {"command": "verify", "seed": seed, "suites": ["vanishing"]})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_env_var_thread_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setenv("OPGROWTH_THREADS", "3")
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["threads"] == 3


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2


def test_paper_formula_mode_end_to_end(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "mode": "paper-formula",
        "lattice": {"d": 1, "L": 10},
        "model": {"name": "tfim", "J": 1.0, "g": 0.9},
        "observable": {"pauli": "Z", "sites": [0]},
        "plan": {"epsilon": 0.05},
        "params": {"lr_velocity": 1.0, "decay_rate": 1.0, "sim_prefactor": 1.0,
                   "box_offset": 1e-9, "dimension": 1},
        "t_grid": [0.3],
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    # box side 4(vt + c_box) -> 2; cutoff from the epsilon formula
    assert len(rows) == int(27 / 2 * math.log(2 / 0.05)) + 28
    final = rows[-1]
    assert abs(float(final[2]) - float(final[3])) < 1e-9  # estimate vs oracle


def test_paper_formula_mode_requires_params(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "simulate",
        "mode": "paper-formula",
        "lattice": {"d": 1, "L": 8},
        "model": {"name": "tfim", "J": 1.0, "g": 0.9},
        "plan": {"epsilon": 0.05},
        "t_grid": [0.3],
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2


BOUND_CONFIG = {"command": "bound", "sweeps": [{"bound": "volume", "t": [2.0], "R": [3.0]}]}
GHZ_CONFIG = {"command": "ssb", "experiments": [{"kind": "ghz", "L": [4]}]}
ORACLE4_CONFIG = {"command": "oracle", "lattice": {"d": 1, "L": 4},
                  "model": {"name": "tfim", "g": 1.0}, "t_grid": [0.5]}
CHAIN8_BOUND = dict(BOUND_CONFIG, lattice={"d": 1, "L": 8}, model={"name": "tfim", "g": 1.0})


def region_sweep(bound, S, B):
    return dict(CHAIN8_BOUND, sweeps=[{"bound": bound, "S": S, "B": B}])


@pytest.mark.parametrize("config", [
    dict(SIM_CONFIG, model={"name": "tfim", "h": 1.0}),
    dict(SIM_CONFIG, model={"name": "ising"}),
    dict(SIM_CONFIG, observable={"pauli": "Q", "sites": [0]}),
    dict(SIM_CONFIG, observable={"pauli": "ZZ", "sites": [0]}),
    dict(SIM_CONFIG, observable={"pauli": "Z", "sites": [99]}),
    dict(SIM_CONFIG, observable={"pauli": "Z", "sites": [5]}),
    dict(SIM_CONFIG, mode="paper"),
    dict(SIM_CONFIG, params={"degree": 0}),
    dict(SIM_CONFIG, lattice={"d": 1, "L": "x"}),
    dict(SIM_CONFIG, t_grid={"start": 0.1, "stop": 0.5}),
    dict(SIM_CONFIG, plan={"r": 2, "m_star": 3, "anchor_vertex": 99}),
    dict(SIM_CONFIG, lattice={"d": 1, "L": 8, "range": 2}, plan={"r": 1, "m_star": 3}),
    dict(SIM_CONFIG, state={"kind": "zero", "x": 1}),
    dict(BOUND_CONFIG, sweeps=[{"bound": "volume", "typo": 1}]),
    dict(GHZ_CONFIG, experiments=[{"kind": "ghz", "gg": 0.3}]),
    dict(SIM_CONFIG, model={"name": "tfim", "J": "x"}),
    dict(SIM_CONFIG, plan={"r": "x", "m_star": 3}),
    dict(SIM_CONFIG, t_grid=["x"]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "combinatorial"}]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "quasilocal_pair", "dB": "x"}]),
    dict(BOUND_CONFIG, sweeps={"bound": "volume"}),
    dict(GHZ_CONFIG, experiments=[{"kind": "rk"}]),
    dict(GHZ_CONFIG, experiments=[{"kind": "ghz", "L": [4], "g": "x"}]),
    dict(GHZ_CONFIG, experiments=[{"kind": "rk", "lattice": {"d": 1, "L": 6}, "sizes": ["x"]}]),
    dict(BOUND_CONFIG, lattice={"d": 1, "L": 8}, model={"name": "tfim"}, sweeps=[
        {"bound": "dominance", "S": [[7]], "B": [[6, 7]], "probes": [{"pauli": "Q", "sites": [7]}]}]),
    region_sweep("path_sum", [[4]], [[5, 6, 7]]),
    region_sweep("dominance", [[4]], [list(range(8))]),
    region_sweep("dominance", [[3], [6]], [[2, 3], [4, 5, 6]]),
    region_sweep("dominance", [[4]], [[9, 4]]),
    region_sweep("matrix_exp", [[4]], [[5, 6, 7]]),
    region_sweep("matrix_exp", [[4], [7]], [[3, 4]]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "combinatorial", "regions": [["x", 1, 3]]}]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "combinatorial", "regions": []}]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "quasilocal_nested", "regions": []}]),
    dict(BOUND_CONFIG, sweeps=[{"bound": "combinatorial", "regions": [[1, 1, 0]]}]),
    dict(SIM_CONFIG, observable={"pauli": "Z", "sites": 0}),
    dict(SIM_CONFIG, observable={"pauli": "Z", "sites": [[0]]}),
    dict(SIM_CONFIG, t_grid={"start": 0.1, "stop": 0.5, "num": -1}),
    {"command": "verify", "suites": 5},
    {"command": "verify", "suites": [{"completeness": True}]},
    dict(SIM_CONFIG, params=[1]),
    dict(GHZ_CONFIG, experiments=[{"kind": "rk", "lattice": {"d": 1, "L": 6}, "beta": [-1]}]),
    dict(ORACLE4_CONFIG, t_grid=[math.nan]),
    dict(ORACLE4_CONFIG, t_grid=[math.inf]),
    dict(SIM_CONFIG, t_grid=["inf"]),
], ids=["model-parameter", "model-name", "pauli-letter", "pauli-count", "site-off-lattice",
        "site-outside-anchor-box", "mode", "params-degree", "lattice-L", "grid-without-num",
        "anchor-vertex", "r-below-range", "state-key", "sweep-key", "ghz-key", "model-value",
        "plan-r", "grid-entry", "sweep-missing-key", "sweep-value", "sweeps-object",
        "experiment-missing-key", "ghz-value", "rk-size", "probe-letter",
        "path-sum-s-outside-b", "dominance-empty-r", "dominance-coupled-b",
        "dominance-site-off-lattice", "matrix-exp-s-outside-b", "matrix-exp-target-count",
        "regions-entry", "regions-empty", "nested-regions-empty", "regions-distance",
        "sites-not-a-list", "site-not-an-integer", "grid-num-negative", "suites-not-a-list",
        "suite-not-a-name", "params-not-an-object", "rk-beta-negative", "t-grid-nan",
        "t-grid-infinity", "t-grid-inf-string"])
def test_config_errors_exit_2(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("t", [1e308, -1e300, 1e6])
@pytest.mark.parametrize("config", [
    ORACLE4_CONFIG,
    dict(SIM_CONFIG, lattice={"d": 1, "L": 4}),
    dict(SIM_CONFIG, lattice={"d": 1, "L": 4}, oracle=False),
], ids=["oracle", "simulate", "simulate-without-oracle"])
def test_times_past_the_chebyshev_cap_exit_2(tmp_path, capsys, config, t):
    # radius * t on a 4-site tfim chain runs past the cap: refused before any degree is
    # taken, where 1e308 and -1e300 raised from the degree and 1e6 would sample 2^24
    # points; simulate keeps the grid prefix under its caps, here none of it
    cfg = write_config(tmp_path, dict(config, t_grid=[t]))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if config["command"] == "oracle":
        assert "exceeds the Chebyshev cap" in err
    else:
        assert json.loads((out / "manifest.json").read_text())["truncated"]
        assert len((out / "results.csv").read_text().splitlines()) == 1


def test_stray_imaginary_part_stays_exit_1(tmp_path, monkeypatch):
    # a non-Hermitian observable is a bug, not a configuration problem
    import opgrowth.cli
    from opgrowth.operators import LocalOperator

    sigma_plus = LocalOperator((0,), np.array([[0, 1], [0, 0]]))
    monkeypatch.setattr(opgrowth.cli, "pauli_operator", lambda label, sites: sigma_plus)
    cfg = write_config(tmp_path, SIM_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_oracle_guard_trips_before_any_cluster(tmp_path, monkeypatch):
    # 25 sites are above the oracle's vector cap: refuse before evaluating clusters
    import opgrowth.cli

    calls = []
    monkeypatch.setattr(opgrowth.cli, "simulate_expectation",
                        lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, dict(SIM_CONFIG, lattice={"d": 2, "L": 5}))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert len((out / "results.csv").read_text().splitlines()) == 1
    assert json.loads((out / "manifest.json").read_text())["truncated"]
