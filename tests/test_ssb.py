"""Symmetry-breaking diagnostics: identity, splitting, disorder parameter."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import opgrowth.bounds
from opgrowth.bounds import BoundParams
from opgrowth.cli import check_flip_identity, fit_summary
from opgrowth.lattice import build_rectangular_lattice, build_square_lattice
from opgrowth.operators import build_named_hamiltonian, pauli_operator
from opgrowth.ssb import (
    DisorderRegion,
    RK_ENUM_CAP,
    RKState,
    disorder_bound_compare,
    ghz_splitting,
    nested_identity_check,
    parity_sectors,
    rk_disorder_parameter,
    square_region,
    symmetric_unitary,
)

RING12 = build_square_lattice(1, 12, periodic=True)


def _spin_table(n: int) -> np.ndarray:
    """(2^n, n) array of +-1 spins, vertex v mapped to bit n-1-v."""
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> (n - 1 - np.arange(n))) & 1
    return 1 - 2 * bits


def _rk_direct(state: RKState, region: DisorderRegion) -> float:
    """<psi| D_R |psi> evaluated on the explicit state vector: the RK reference."""
    g = state.graph
    n = len(g.vertices)
    spins = _spin_table(n)
    energy = np.zeros(2**n)
    for (u, v) in state.bonds:
        energy += spins[:, u] * spins[:, v]
    amp = np.exp(state.beta * (energy - energy.max()) / 2)
    amp /= np.linalg.norm(amp)
    flip_mask = 0
    for v in region.vertices:
        flip_mask |= 1 << (n - 1 - v)
    codes = np.arange(2**n, dtype=np.int64)
    return float(np.dot(amp, amp[codes ^ flip_mask]))


def test_identity_trivial_single_qubit():
    U = np.eye(2, dtype=complex)
    lhs, rhs, gap = nested_identity_check(U, pauli_operator("Z", (0,)), [0], (0,))
    assert abs(lhs) < 1e-12 and gap < 1e-12
    lhs, rhs, gap = nested_identity_check(U, pauli_operator("X", (0,)), [0], (0,))
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)


def test_identity_symmetric_evolution_m2():
    g = build_square_lattice(1, 6)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.7})
    U = symmetric_unitary(H, 0.6, tuple(range(6)))
    rng = np.random.default_rng(2)
    for _ in range(5):
        site = int(rng.integers(0, 6))
        O = pauli_operator(str(rng.choice(["X", "Y", "Z"])), (site,))
        v_list = [int(v) for v in rng.choice(6, size=2, replace=False)]
        _, _, gap = nested_identity_check(U, O, v_list, tuple(range(6)))
        assert gap <= 1e-10


def test_identity_property_suite_small():
    # criterion 5's check on other random evolutions
    result = check_flip_identity(7)
    assert result["passed"], result


def test_identity_rejects_asymmetric_evolution(monkeypatch):
    g = build_square_lattice(1, 3)
    # a Z field breaks the flip symmetry, which is checked before anything is diagonalized
    from opgrowth.operators import HamTerm, HamiltonianSpec, PAULI

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran before the flip check")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    H = HamiltonianSpec((HamTerm(frozenset((0,)), PAULI["Z"], 1.0),), graph=g)
    with pytest.raises(ValueError, match="global flip"):
        symmetric_unitary(H, 0.5, (0, 1, 2))


def _random_flip_symmetric(n, rng):
    """Random Hermitian G plus its flip conjugate X^n G X^n, built from Pauli X."""
    from opgrowth.operators import PAULI, kron_all

    dim = 2**n
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    G = G + G.conj().T
    D = kron_all([PAULI["X"]] * n)
    return G + D @ G @ D


def test_parity_sectors_match_isometry_construction():
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        H = _random_flip_symmetric(n, rng)
        dim, mask = 2**n, 2**n - 1
        reps = [x for x in range(dim) if x <= (~x) & mask]
        iso_even = np.zeros((dim, len(reps)), dtype=complex)
        iso_odd = np.zeros((dim, len(reps)), dtype=complex)
        for j, x in enumerate(reps):
            xb = (~x) & mask
            iso_even[x, j] = iso_even[xb, j] = 1 / np.sqrt(2)
            iso_odd[x, j] = 1 / np.sqrt(2)
            iso_odd[xb, j] = -1 / np.sqrt(2)
        He, Ho = parity_sectors(H, n)
        assert np.max(np.abs(He - iso_even.conj().T @ H @ iso_even)) <= 1e-12
        assert np.max(np.abs(Ho - iso_odd.conj().T @ H @ iso_odd)) <= 1e-12


def _yz_chain(n, rng):
    """sum_i a_i Y_i Z_{i+1} + b_i X_i on the open chain: flip-symmetric, with imaginary entries."""
    from opgrowth.operators import HamTerm, HamiltonianSpec, PAULI

    terms = []
    for i in range(n - 1):
        a = float(rng.uniform(0.4, 1.4))
        terms.append(HamTerm(frozenset((i, i + 1)), a * np.kron(PAULI["Y"], PAULI["Z"]), a))
    for i in range(n):
        b = float(rng.uniform(0.2, 1.1))
        terms.append(HamTerm(frozenset((i,)), b * PAULI["X"], b))
    return HamiltonianSpec(tuple(terms), graph=build_square_lattice(1, n))


def test_symmetric_unitary_matches_expm(monkeypatch):
    # each flip sector is evolved on its own: eigh sees only 2^{n-1} x 2^{n-1} matrices,
    # real ones for tfim and complex ones for the Y Z chain
    from opgrowth.operators import hamiltonian_matrix

    eigh, seen = np.linalg.eigh, []

    def sector_eigh(mat, *args, **kwargs):
        seen.append((np.shape(mat), np.iscomplexobj(mat)))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", sector_eigh)
    rng = np.random.default_rng(5)
    for model, n in itertools.product(("tfim", "yz"), (2, 3, 4, 6)):
        if model == "tfim":
            H = build_named_hamiltonian("tfim", build_square_lattice(1, n), {
                "J": float(rng.uniform(0.4, 1.4)), "g": float(rng.uniform(0.2, 1.1))})
        else:
            H = _yz_chain(n, rng)
        t = float(rng.uniform(0.1, 1.5))
        seen.clear()
        U = symmetric_unitary(H, t, tuple(range(n)))
        assert seen == [((2 ** (n - 1),) * 2, model == "yz")] * 2
        reference = expm(-1j * t * hamiltonian_matrix(H, tuple(range(n))))
        assert np.max(np.abs(U - reference)) <= 1e-12, (model, n)
        assert np.array_equal(U, U[::-1, ::-1])


def test_flip_check_rejects_asymmetric_input():
    from opgrowth.operators import PAULI, kron_all

    rng = np.random.default_rng(3)
    H = _random_flip_symmetric(3, rng) + kron_all([PAULI["Z"], PAULI["I"], PAULI["I"]])
    with pytest.raises(ValueError, match="global flip"):
        parity_sectors(H, 3)
    with pytest.raises(ValueError, match="at least one qubit"):
        parity_sectors(np.eye(1), 0)
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-0.4j * w)) @ V.conj().T
    with pytest.raises(ValueError, match="global flip"):
        nested_identity_check(U, pauli_operator("X", (1,)), [0], (0, 1, 2))


def _embedded_identity_sides(U, O, v_list, region):
    """The flip identity's two sides from embedded O and Z_v and dense products only."""
    from opgrowth.operators import PAULI, embed

    O_emb = embed(O.matrix, O.support, region)
    psi = U[:, 0]
    lhs = np.vdot(psi, (O_emb @ psi)[::-1])
    C = U.conj().T @ O_emb @ U
    for v in v_list:
        Z_emb = embed(PAULI["Z"], (v,), region)
        C = C @ Z_emb - Z_emb @ C
    return lhs, C[-1, 0] / 2 ** len(v_list)


def test_identity_matches_embedded_reference():
    from opgrowth.operators import LocalOperator

    rng = np.random.default_rng(16)
    for n in (3, 4, 6):
        region = tuple(range(n))
        w, V = np.linalg.eigh(_random_flip_symmetric(n, rng))
        U = (V * np.exp(-1j * float(rng.uniform(0.1, 1.5)) * w)) @ V.conj().T
        for m in range(4):
            for sites in ((int(rng.integers(n)),), (n - 1, 0)):
                dim = 2 ** len(sites)
                M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                O = LocalOperator(sites, M / np.linalg.norm(M, 2))
                v_list = [int(v) for v in rng.choice(n, size=m, replace=False)]
                lhs, rhs, gap = nested_identity_check(U, O, v_list, region)
                want_lhs, want_rhs = _embedded_identity_sides(U, O, v_list, region)
                assert abs(lhs - want_lhs) <= 1e-14 and abs(rhs - want_rhs) <= 1e-14
                assert gap <= 1e-12


def test_identity_takes_no_dense_product():
    # only the flip check's half of M - DMD and the vector O U|0...0> are made
    from opgrowth.operators import LocalOperator

    n, rng = 8, np.random.default_rng(9)
    H = build_named_hamiltonian("tfim", build_square_lattice(1, n), {"J": 1.0, "g": 0.8})
    U = symmetric_unitary(H, 0.7, tuple(range(n)))
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    O = LocalOperator((2, 5), M / np.linalg.norm(M, 2))
    tracemalloc.start()
    try:
        _, _, gap = nested_identity_check(U, O, [0, 3, 7], tuple(range(n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap <= 1e-12
    assert peak < U.nbytes

@pytest.mark.parametrize("case", ["shape", "operator", "site"])
def test_identity_rejects_bad_arguments_before_any_product(monkeypatch, case):
    import opgrowth.ssb

    def no_product(*args, **kwargs):
        raise AssertionError("a product was taken before the arguments were checked")

    monkeypatch.setattr(opgrowth.ssb, "apply_local", no_product)
    U, O, v_list = np.eye(8, dtype=complex), pauli_operator("X", (1,)), [0, 2]
    if case == "shape":
        U, match = np.eye(16, dtype=complex), "does not act on 3 qubits"
    elif case == "operator":
        O, match = pauli_operator("XZ", (0, 3)), r"sites \[3\] of O or v_list leave"
    else:
        v_list, match = [0, 5], r"sites \[5\] of O or v_list leave"
    with pytest.raises(ValueError, match=match):
        nested_identity_check(U, O, v_list, (0, 1, 2))


def test_parity_sector_dimensions():
    g = build_square_lattice(1, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.3})
    from opgrowth.operators import hamiltonian_matrix

    He, Ho = parity_sectors(hamiltonian_matrix(H, (0, 1, 2, 3)), 4)
    assert He.shape == Ho.shape == (8, 8)
    # sector energies together reproduce the full spectrum
    full = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(H, (0, 1, 2, 3))))
    merged = np.sort(np.concatenate([np.linalg.eigvalsh(He), np.linalg.eigvalsh(Ho)]))
    assert np.allclose(full, merged, atol=1e-10)


def test_ghz_splitting_examples():
    assert ghz_splitting("tfim", 4, 0.0) <= 1e-12
    assert ghz_splitting("tfim", 1, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert ghz_splitting("tfim", 6, 0.1) == pytest.approx(1.9799999924074996e-06, rel=1e-6)


def _sector_splitting(L, g, J):
    """|E_even - E_odd| by dense diagonalization of the two real parity sectors."""
    from opgrowth.operators import PAULI, hamiltonian_matrix

    if L == 1:
        H_mat = -g * PAULI["X"].real
    else:
        spec = build_named_hamiltonian("tfim", build_square_lattice(1, L), {"J": J, "g": g})
        H_mat = hamiltonian_matrix(spec, tuple(range(L)), sparse=True).toarray().real
    H_even, H_odd = parity_sectors(H_mat, L)
    return abs(np.linalg.eigvalsh(H_even)[0] - np.linalg.eigvalsh(H_odd)[0])


@pytest.mark.parametrize("g, J", [(0.1, 1), (0.3, -1), (1, 1), (1.5, 1), (-0.4, 0.8),
                                  (0, 1), (0.7, 0)])
def test_ghz_splitting_matches_sector_diagonalization(g, J):
    for L in range(1, 11):
        assert ghz_splitting("tfim", L, g, J) == pytest.approx(_sector_splitting(L, g, J), abs=1e-12)


def test_ghz_splitting_below_diagonalization_floor():
    # 2(1 - g^2) g^L is the lowest quasiparticle energy up to O(g^{2L}) relative;
    # dense diagonalization already misses it by 9% at L = 13
    g = 0.1
    for L in (12, 13, 14):
        for J in (1.0, -1.0):
            want = 2 * (1 - g**2) * g**L
            assert ghz_splitting("tfim", L, g, J) == pytest.approx(want, rel=1e-9)


def test_ghz_splitting_rejects_empty_chain():
    for L in (0, -2):
        with pytest.raises(ValueError, match="need L >= 1"):
            ghz_splitting("tfim", L, 0.1)


def test_ghz_splitting_exponential_in_length():
    deltas = {L: ghz_splitting("tfim", L, 0.1) for L in range(4, 11)}
    fit = fit_summary(list(deltas), np.log(list(deltas.values())))
    slope, r2 = fit["slope"], fit["r_squared"]
    assert slope < 0 and r2 >= 0.95
    assert slope == pytest.approx(math.log(0.1), rel=0.05)


def test_ghz_splitting_spin_relabeling_invariance():
    # global flip conjugation and J -> -J (sublattice relabeling) leave it fixed
    for L in (4, 6):
        base = ghz_splitting("tfim", L, 0.3, J=1.0)
        assert ghz_splitting("tfim", L, 0.3, J=-1.0) == pytest.approx(base, abs=1e-10)


def test_rk_evaluators_agree():
    state = RKState(0.5, RING12)
    for ell in range(2, 10):
        region = DisorderRegion.from_graph(RING12, range(ell))
        a = rk_disorder_parameter(state, region, method="enumerate")
        b = rk_disorder_parameter(state, region, method="transfer")
        c = _rk_direct(state, region)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)


def _rk_enumerate_per_bond(state: RKState, region: DisorderRegion) -> float:
    """The enumeration with each bond's +-1 product summed in int64, one bond at a time."""
    n = len(state.graph.vertices)
    codes = np.arange(2**n, dtype=np.int64)
    energy = np.zeros(2**n)
    crossing = np.zeros(2**n)
    for (u, v) in state.bonds:
        prod = codes >> (n - 1 - u)
        prod ^= codes >> (n - 1 - v)
        prod &= 1
        prod *= -2
        prod += 1
        energy += prod
        if (u in region.vertices) != (v in region.vertices):
            crossing += prod
    energy *= state.beta
    energy -= energy.max()
    np.exp(energy, out=energy)
    crossing *= -state.beta
    np.exp(crossing, out=crossing)
    crossing *= energy
    return float(np.sum(crossing) / np.sum(energy))


@pytest.mark.parametrize("graph, beta, members", [
    (RING12, 0.5, [range(k) for k in range(13)] + [{0, 2, 4}]),
    (build_square_lattice(1, 10), 0.7, [range(k) for k in range(11)] + [{1, 5, 6}]),
    (build_square_lattice(2, 4, periodic=True), 0.3, None),
    (build_rectangular_lattice((2, 3)), 1.1, [range(k) for k in range(7)] + [{0, 4}]),
], ids=["ring12", "chain10", "torus4x4", "grid2x3"])
def test_rk_enumeration_matches_per_bond_sums(graph, beta, members):
    # bit planes and unlike-bond counters give the same exact integers, so the same bits
    state = RKState(beta, graph)
    if members is None:
        regions = [square_region(graph, (0, 0), side) for side in (1, 2, 3, 4)]
    else:
        regions = [DisorderRegion.from_graph(graph, m) for m in members]
    for region in regions:
        assert (rk_disorder_parameter(state, region, method="enumerate")
                == _rk_enumerate_per_bond(state, region))

def test_rk_enumeration_on_the_cap_ring_without_spin_table():
    # the enumeration holds a few 2^n vectors, never a 2^n x n spin table
    ring = build_square_lattice(1, RK_ENUM_CAP, periodic=True)
    state = RKState(0.5, ring)
    region = DisorderRegion.from_graph(ring, range(7))
    tracemalloc.start()
    try:
        value = rk_disorder_parameter(state, region, method="enumerate")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(rk_disorder_parameter(state, region, method="transfer"), abs=1e-12)
    assert peak < 8 * 8 * 2**RK_ENUM_CAP


def test_rk_fixture_value():
    state = RKState(0.5, RING12)
    region = DisorderRegion.from_graph(RING12, range(4))
    assert rk_disorder_parameter(state, region) == pytest.approx(0.7863731475712415, rel=1e-10)


def test_rk_beta_zero_is_one():
    state = RKState(0.0, RING12)
    region = DisorderRegion.from_graph(RING12, range(5))
    assert rk_disorder_parameter(state, region) == pytest.approx(1.0, abs=1e-12)


def test_rk_1d_plateau():
    state = RKState(0.5, RING12)
    values = []
    for ell in range(3, 10):
        region = DisorderRegion.from_graph(RING12, range(ell))
        values.append(rk_disorder_parameter(state, region))
    mean = float(np.mean(values))
    assert all(abs(v - mean) / mean < 0.01 for v in values)


def test_rk_2d_perimeter_law():
    g = build_square_lattice(2, 4, periodic=True)
    state = RKState(0.3, g)
    bonds, logs = [], []
    for side in (1, 2, 3):
        region = square_region(g, (0, 0), side)
        assert region.boundary_bonds == 4 * side
        value = rk_disorder_parameter(state, region)
        assert value == pytest.approx(_rk_direct(state, region), abs=1e-12)
        bonds.append(region.boundary_bonds)
        logs.append(math.log(value))
    fit = fit_summary(bonds, logs)
    assert fit["slope"] < 0 and fit["r_squared"] >= 0.95


def test_rk_region_boundary_census():
    g = build_square_lattice(2, 4, periodic=True)
    region = square_region(g, (0, 0), 2)
    direct = sum(1 for X in g.factors if len(X & region.vertices) == 1)
    assert region.boundary_bonds == direct == 8


def test_rk_transfer_requires_ring_interval():
    state = RKState(0.4, RING12)
    scattered = DisorderRegion.from_graph(RING12, {0, 2, 4})
    with pytest.raises(ValueError):
        rk_disorder_parameter(state, scattered, method="transfer")


def test_disorder_compare_flags_rk_violation():
    g = build_square_lattice(2, 4, periodic=True)
    state = RKState(0.3, g)
    rows = []
    for side in (2, 3):
        region = square_region(g, (0, 0), side)
        rows.append({"R": side, "value": rk_disorder_parameter(state, region)})
    params = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    report = disorder_bound_compare(rows, params, t=1.05)
    assert report["violates_volume_law"]
    assert any(r["violates_bound"] for r in report["rows"])


def test_disorder_compare_product_state_consistent():
    # <D_R> of the fully polarized state vanishes, safely below any bound
    rows = [{"R": 2.0, "value": 0.0}, {"R": 3.0, "value": 0.0}]
    params = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    report = disorder_bound_compare(rows, params, t=1.05)
    assert not report["violates_volume_law"]


def test_disorder_compare_short_time_evolved_state():
    # shallow symmetric evolution keeps the measured value under the envelope
    n = 9
    g = build_square_lattice(2, 3)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.4})
    t = 0.21
    U = symmetric_unitary(H, t, tuple(range(n)))
    psi = U @ np.eye(2**n, dtype=complex)[:, 0]
    from opgrowth.operators import PAULI, kron_all

    rows = []
    for side in (2, 3):
        region = square_region(g, (0, 0), side)
        mats = [PAULI["X"] if v in region.vertices else np.eye(2) for v in range(n)]
        D = kron_all(mats)
        rows.append({"R": side, "value": abs(float(np.real(np.vdot(psi, D @ psi))))})
    params = BoundParams(prefactor=1.0, lr_velocity=5.0, volume_decay=1.0, dimension=2)
    report = disorder_bound_compare(rows, params, t=t)
    assert all(not r["violates_bound"] for r in report["rows"] if r["valid"])
    assert any(r["valid"] for r in report["rows"])


def test_disorder_compare_window_miss_is_invalid():
    # R below lr_velocity * t lies outside the volume bound's window
    params = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    report = disorder_bound_compare([{"R": 1.5, "value": 0.5}], params, t=2.0)
    assert report["rows"][0]["valid"] is False and report["rows"][0]["bound"] is None
    assert not report["violates_volume_law"]


def test_disorder_compare_propagates_other_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the bound")

    monkeypatch.setattr(opgrowth.bounds, "volume_bound", broken)
    params = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    with pytest.raises(RuntimeError, match="bug in the bound"):
        disorder_bound_compare([{"R": 3.0, "value": 0.1}], params, t=1.05)
