"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line on success; pytest -v gives the
per-criterion verdicts.  The randomized suites are fully seeded.
"""

import json
import math
import time

import numpy as np
import pytest

from opgrowth.bounds import (
    BoundParams,
    combinatorial_bound,
    path_sum_bound,
)
from opgrowth.cli import (
    check_cluster_counts,
    check_completeness,
    check_flip_identity,
    check_vanishing,
    fit_summary,
)
from opgrowth.cli import main as cli_main
from opgrowth.lattice import (
    ball_and_boundary,
    boundary_size,
    build_rectangular_lattice,
    build_square_lattice,
    factor_distance,
)
from opgrowth.operators import (
    LocalOperator,
    build_named_hamiltonian,
    exact_expectation,
    nested_commutator_norm,
    pauli_operator,
)
from opgrowth.simulate import SimPlan, simulate_expectation
from opgrowth.ssb import (
    DisorderRegion,
    RKState,
    disorder_bound_compare,
    ghz_splitting,
    rk_disorder_parameter,
    square_region,
)
from opgrowth.states import ProductState

ERROR_FLOOR = 1e-13  # double-precision floor for log-error fits


def _random_unit_site_op(site, rng) -> LocalOperator:
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    M = G + G.conj().T
    M /= np.linalg.norm(M, 2)
    return LocalOperator((site,), M)


def _dominance_instance(rng):
    """Random lattice, model, probe regions and a time inside every window."""
    kind = rng.choice(["chain", "grid"], p=[0.75, 0.25])
    if kind == "chain":
        L = int(rng.choice([5, 6, 7, 8, 9, 10, 11], p=[0.2, 0.2, 0.2, 0.17, 0.12, 0.08, 0.03]))
        g = build_square_lattice(1, L)
    else:
        shape = [(2, 3), (2, 4), (3, 3)][int(rng.integers(0, 3))]
        g = build_rectangular_lattice(shape)
    if rng.random() < 0.5:
        H = build_named_hamiltonian("tfim", g, {
            "J": float(rng.uniform(0.5, 1.5)), "g": float(rng.uniform(0.2, 1.2))})
    else:
        H = build_named_hamiltonian("random2local", g, {
            "seed": int(rng.integers(0, 2**31)), "scale": float(rng.uniform(0.5, 1.5))})
    gH = H.factor_graph()
    n = len(g.vertices)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        S_sites, B_list = [], []
        for cand in rng.permutation(n):
            ball, _ = ball_and_boundary(g, int(cand), 1)
            if any(any(X & ball and X & B for X in gH.factors) for B in B_list):
                continue
            S_sites.append(int(cand))
            B_list.append(ball)
            if len(S_sites) == m:
                break
        if len(S_sites) < m:
            continue
        R = set(g.vertices) - set().union(*B_list)
        if not R:
            continue
        a_site = int(rng.choice(sorted(R)))
        return g, H, R, a_site, S_sites, B_list
    raise AssertionError("instance generation failed")


def test_criterion_1_oracle_dominance():
    """Exact nested commutators never exceed the path-sum or counting bounds."""
    rng = np.random.default_rng(20240817)
    start = time.time()
    n_instances = 208
    checked = 0
    worst_path_margin = math.inf
    for _ in range(n_instances):
        g, H, R, a_site, S_sites, B_list = _dominance_instance(rng)
        gH = H.factor_graph()
        degree = gH.degree_bound
        h = max(t.norm for t in H.terms if any(t.support & B for B in B_list))
        r_list = [factor_distance(g, R, {s}) for s in S_sites]
        window = min(r_list) / (2 * h * degree)
        t = float(rng.uniform(0.2, 0.9)) * window
        A = _random_unit_site_op(a_site, rng)
        O_list = [_random_unit_site_op(s, rng) for s in S_sites]
        exact = nested_commutator_norm(H, A, O_list, t, tuple(g.vertices))
        ps = path_sum_bound(g, H, R, [{s} for s in S_sites], B_list, t)
        params = BoundParams(term_norm_max=h, degree=degree, dimension=g.dimension)
        regions = [(boundary_size(g, B), 1, r) for B, r in zip(B_list, r_list)]
        comb = combinatorial_bound(params, regions, t)
        assert exact <= ps + 1e-12, (exact, ps)
        assert exact <= comb + 1e-12, (exact, comb)
        if exact > 0:
            worst_path_margin = min(worst_path_margin, ps / exact)
        checked += 1
    elapsed = time.time() - start
    assert checked >= 200
    assert elapsed < 600
    print(f"ACCEPTANCE 1: PASS - dominance on {checked} instances, zero violations, "
          f"tightest path-sum margin {worst_path_margin:.2f}x, {elapsed:.0f}s")


def test_criterion_2_vanishing_property_exhaustive():
    """Every empty-forest factor sequence of length <= 4 gives a zero term."""
    start = time.time()
    result = check_vanishing(42)
    elapsed = time.time() - start
    assert result["passed"], result
    assert elapsed < 60
    print(f"ACCEPTANCE 2: PASS - {result['sequences_checked']} vanishing sequences, "
          f"worst term norm {result['worst_gap']:.2e}, {elapsed:.1f}s")


def test_criterion_3_cluster_expansion_convergence():
    """L=12 chain: estimate within 1e-6 at the top level, exponential error decay."""
    start = time.time()
    g = build_square_lattice(1, 12)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 1.05})
    A = pauli_operator("Z", (0,))
    state = ProductState.all_zero()
    summary = []
    sim_plan = SimPlan.tiled(g, 2, 6)
    for t in (0.25, 0.5, 1.0):
        _, diag = simulate_expectation(H, A, state, t, sim_plan)
        exact = exact_expectation(H, A, state, t)
        errors = [abs(est - exact) for est in diag["running_estimates"]]
        assert errors[-1] < 1e-6, (t, errors[-1])
        # fit the decay over informative levels: once the error reaches the
        # double-precision floor it carries no rate information
        kept = []
        for m, err in enumerate(errors, start=1):
            kept.append((m, err))
            if err <= ERROR_FLOOR:
                break
        assert len(kept) >= 2
        fit = fit_summary([m for m, _ in kept], np.log([max(e, 1e-300) for _, e in kept]))
        slope, r2 = fit["slope"], fit["r_squared"]
        assert slope < 0 and r2 >= 0.9, (t, slope, r2)
        summary.append(f"t={t}: err(m*=6)={errors[-1]:.1e}, slope={slope:.1f}, R2={r2:.3f}")
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 3: PASS - {'; '.join(summary)}, {elapsed:.0f}s")


def test_criterion_4_operator_expansion_completeness():
    """Six qubits, two boxes: the cluster pieces re-sum to the exact operator."""
    result = check_completeness()
    assert result["passed"], result
    print(f"ACCEPTANCE 4: PASS - completeness gap {result['worst_gap']:.2e} for t <= 1")


def test_criterion_5_nested_identity():
    """Flip/commutator identity across 50 random symmetric evolutions."""
    result = check_flip_identity(73)
    assert result["passed"], result
    print(f"ACCEPTANCE 5: PASS - 50 symmetric evolutions, "
          f"worst identity gap {result['worst_gap']:.2e}")


def test_criterion_6_rk_diagnostics():
    """RK evaluator agreement, 1d plateau, 2d perimeter law vs volume envelope."""
    ring = build_square_lattice(1, 12, periodic=True)
    state = RKState(0.5, ring)
    worst_gap = 0.0
    plateau = []
    for ell in range(2, 10):
        region = DisorderRegion.from_graph(ring, range(ell))
        a = rk_disorder_parameter(state, region, method="enumerate")
        b = rk_disorder_parameter(state, region, method="transfer")
        worst_gap = max(worst_gap, abs(a - b))
        if ell >= 3:  # beyond the beta=0.5 correlation length (~1.3 sites)
            plateau.append(a)
    assert worst_gap <= 1e-12
    mean = float(np.mean(plateau))
    assert all(abs(v - mean) / mean < 0.01 for v in plateau)

    g2 = build_square_lattice(2, 4, periodic=True)
    state2 = RKState(0.3, g2)
    rows, bonds, logs = [], [], []
    for side in (1, 2, 3):
        region = square_region(g2, (0, 0), side)
        value = rk_disorder_parameter(state2, region)
        rows.append({"R": float(side), "value": value})
        bonds.append(region.boundary_bonds)
        logs.append(math.log(value))
    fit = fit_summary(bonds, logs)
    slope, r2 = fit["slope"], fit["r_squared"]
    assert slope < 0 and r2 >= 0.95
    params = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    report = disorder_bound_compare(rows, params, t=1.05)
    assert report["violates_volume_law"]
    print(f"ACCEPTANCE 6: PASS - evaluator gap {worst_gap:.2e}, perimeter fit "
          f"R2={r2:.4f}, volume-law violation flagged")


def test_criterion_7_ghz_splitting():
    """Splitting shrinks exponentially with chain length; exact degeneracy at g=0."""
    assert ghz_splitting("tfim", 6, 0.0) <= 1e-12
    deltas = {L: ghz_splitting("tfim", L, 0.1) for L in range(4, 11)}
    fit = fit_summary(list(deltas), np.log(list(deltas.values())))
    slope, r2 = fit["slope"], fit["r_squared"]
    assert slope < 0 and r2 >= 0.95
    print(f"ACCEPTANCE 7: PASS - log-delta slope {slope:.3f} (log g = {math.log(0.1):.3f}), "
          f"R2={r2:.5f}, delta(g=0)={ghz_splitting('tfim', 6, 0.0):.1e}")


def test_criterion_8_combinatorics():
    """Cluster counts vs brute force, count cap, simplex and hockey-stick identities."""
    result = check_cluster_counts()
    assert result["passed"], result
    # ordered-cell volume identity via nested quadrature
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(5)

    def volume(k, upper):
        if k == 0:
            return 1.0
        return float(sum(0.5 * upper * w * volume(k - 1, 0.5 * upper * (x + 1))
                         for w, x in zip(ws, xs)))

    for n in range(1, 7):
        want = 1.3**n / math.factorial(n)
        assert volume(n, 1.3) == pytest.approx(want, rel=1e-8)
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert sum(math.comb(m, k) for m in range(k, n + 1)) == math.comb(n + 1, k + 1)
    print("ACCEPTANCE 8: PASS - counts exact on graphs <= 20 nodes, cap respected, "
          "simplex and hockey-stick identities hold")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical result files at any thread count."""
    config = {
        "command": "simulate",
        "seed": 99,
        "lattice": {"d": 1, "L": 10},
        "model": {"name": "random2local", "scale": 1.0},
        "state": {"kind": "zero"},
        "observable": {"pauli": "Z", "sites": [0]},
        "plan": {"r": 2, "m_star": 4},
        "t_grid": [0.3, 0.7],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    payloads = []
    for name, extra in (("r1", []), ("r2", []), ("r3", ["--threads", "4"]),
                        ("r4", ["--threads", "2"])):
        out = tmp_path / name
        assert cli_main(["--config", str(cfg), "--out", str(out)] + extra) == 0
        payloads.append((out / "results.csv").read_bytes())
    assert all(p == payloads[0] for p in payloads)
    print("ACCEPTANCE 9: PASS - byte-identical results across repeats and "
          "thread counts 1/2/4")
