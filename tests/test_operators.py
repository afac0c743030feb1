"""Dense operator algebra: evolution, norms, models, expectation values."""

import math
import os
import re

import numpy as np
import pytest
import scipy.sparse as sp

from opgrowth import operators
from opgrowth.errors import CapExceededError
from opgrowth.lattice import build_rectangular_lattice, build_square_lattice, tile_boxes
from opgrowth.operators import (
    PAULI,
    HamTerm,
    HamiltonianSpec,
    LocalOperator,
    build_named_hamiltonian,
    check_quasilocal,
    embed,
    exact_expectation,
    hamiltonian_matrix,
    heisenberg_evolve,
    kron_all,
    nested_commutator_norm,
    operator_norm,
    pauli_operator,
)
from opgrowth.states import ProductState

CHAIN5 = build_square_lattice(1, 5)
TFIM5 = build_named_hamiltonian("tfim", CHAIN5, {"J": 1.0, "g": 1.0})
REGION5 = tuple(range(5))


def test_operator_norm_examples():
    assert operator_norm(pauli_operator("I", (0,))) == pytest.approx(1.0)
    assert operator_norm(pauli_operator("ZZ", (0, 1))) == pytest.approx(1.0)
    xz = LocalOperator((0,), PAULI["X"] + PAULI["Z"])
    assert operator_norm(xz) == pytest.approx(math.sqrt(2), abs=1e-10)


def test_operator_norm_is_exact_above_1024_dims():
    # max |eigenvalue| of a normal matrix is its spectral norm
    rng = np.random.default_rng(5)
    G = rng.normal(size=(1100, 1100)) + 1j * rng.normal(size=(1100, 1100))
    herm = G + G.conj().T
    anti = G - G.conj().T
    assert operator_norm(herm) == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(herm))), rel=1e-12)
    assert operator_norm(anti) == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(1j * anti))), rel=1e-12)



def test_operator_norm_matches_svd():
    rng = np.random.default_rng(17)

    def complex_normal(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    G = complex_normal(40, 40)
    u, v = complex_normal(30, 1), complex_normal(1, 25)
    cases = {
        "tall": complex_normal(60, 17),
        "wide": complex_normal(9, 70),
        "square": complex_normal(33, 33),
        "hermitian": G + G.conj().T,
        "anti-hermitian": G - G.conj().T,
        "rank one": u @ v,
        "real": rng.normal(size=(23, 41)),
        "tiny": 1e-200 * complex_normal(12, 20),
        "huge": 1e150 * complex_normal(20, 12),
        "huger": 1e154 * complex_normal(20, 12),
    }
    for name, mat in cases.items():
        want = np.linalg.norm(mat, 2)
        assert operator_norm(mat) == pytest.approx(want, rel=1e-13), name
    # unscaled, these Gram matrices would underflow to 0 and overflow to inf
    with np.errstate(under="ignore", over="ignore"):
        assert not np.any(np.abs(cases["tiny"]) ** 2)
        assert np.isinf(np.sum(np.abs(cases["huger"]) ** 2))
    assert operator_norm(np.zeros((5, 3), dtype=complex)) == 0.0
    bad = complex_normal(4, 4)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        operator_norm(bad)

def test_embed_matches_kron():
    assert np.allclose(embed(PAULI["X"], (1,), (0, 1)), np.kron(np.eye(2), PAULI["X"]))
    assert np.allclose(embed(PAULI["X"], (0,), (0, 1)), np.kron(PAULI["X"], np.eye(2)))
    got = embed(np.kron(PAULI["X"], PAULI["Z"]), (0, 2), (0, 1, 2))
    want = np.kron(PAULI["X"], np.kron(np.eye(2), PAULI["Z"]))
    assert np.allclose(got, want)


def test_commutator_matches_embedded_product():
    rng = np.random.default_rng(16)
    n = 5
    dim = 2**n
    C = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))  # not Hermitian
    before = C.copy()
    # one site, two adjacent sites, and unsorted non-adjacent sites
    for positions in ([0], [2], [4], [1, 2], [3, 0], [4, 1, 2]):
        k = len(positions)
        M = rng.normal(size=(2**k,) * 2) + 1j * rng.normal(size=(2**k,) * 2)
        M_emb = embed(M, tuple(positions), tuple(range(n)))
        got = operators.commutator(M, positions, C, n)
        assert np.max(np.abs(got - (M_emb @ C - C @ M_emb))) <= 1e-12, positions
        assert np.array_equal(C, before)


def test_bloch_precession():
    Hz = HamiltonianSpec((HamTerm(frozenset((0,)), PAULI["Z"], 1.0),))
    t = 0.41
    At = heisenberg_evolve(Hz, pauli_operator("X", (0,)), t, (0,))
    want = math.cos(2 * t) * PAULI["X"] - math.sin(2 * t) * PAULI["Y"]
    assert np.allclose(At.matrix, want, atol=1e-12)


def test_evolution_t0_identity():
    A = pauli_operator("Z", (2,))
    At = heisenberg_evolve(TFIM5, A, 0.0, REGION5)
    assert At.support == REGION5
    assert np.allclose(At.matrix, embed(A.matrix, A.support, REGION5))


def test_commuting_hamiltonian_leaves_operator_fixed():
    g = build_square_lattice(1, 3)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.0})  # only ZZ terms
    A = pauli_operator("Z", (1,))
    At = heisenberg_evolve(H, A, 1.3, (0, 1, 2))
    assert At.support == (0, 1, 2)
    assert np.allclose(At.matrix, embed(A.matrix, A.support, (0, 1, 2)), atol=1e-12)


def test_evolution_norm_and_hermiticity_preserved():
    A = pauli_operator("Y", (1,))
    At = heisenberg_evolve(TFIM5, A, 0.9, REGION5)
    assert abs(operator_norm(At) - 1.0) <= 1e-9
    assert np.max(np.abs(At.matrix - At.matrix.conj().T)) <= 1e-12


def test_evolution_group_law():
    A = pauli_operator("Z", (0,))
    t1, t2 = 0.3, 0.5
    once = heisenberg_evolve(TFIM5, A, t1 + t2, REGION5)
    first = heisenberg_evolve(TFIM5, A, t1, REGION5)
    second = heisenberg_evolve(TFIM5, first, t2, REGION5)
    assert np.max(np.abs(once.matrix - second.matrix)) <= 1e-9


def test_evolution_caps_and_region_check(trips_before_allocating):
    A = pauli_operator("Z", (0,))
    # one site above each cap; the guards trip before any 2^n array exists
    chain15 = build_named_hamiltonian("tfim", build_square_lattice(1, 15), {"g": 1.0})
    trips_before_allocating(lambda: heisenberg_evolve(chain15, A, 0.1, tuple(range(15))))
    chain21 = build_named_hamiltonian("tfim", build_square_lattice(1, 21), {"g": 1.0})
    trips_before_allocating(lambda: exact_expectation(chain21, A, ProductState.all_zero(), 0.1))

    trips_before_allocating(lambda: nested_commutator_norm(
        chain15, A, [pauli_operator("X", (14,))], 0.1, tuple(range(15))))
    with pytest.raises(ValueError):
        heisenberg_evolve(TFIM5, A, 0.1, (1, 2))


def test_dense_guard_trips_in_eigh(trips_before_allocating, monkeypatch):
    # the one dense evolution, evolution_unitary, checks the cap before its eigh
    # and before the region Hamiltonian is assembled
    from opgrowth.ssb import symmetric_unitary

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly started before the dense cap check")

    monkeypatch.setattr(operators, "hamiltonian_matrix", no_assembly)
    chain15 = build_named_hamiltonian("tfim", build_square_lattice(1, 15), {"g": 1.0})
    region = tuple(range(15))
    trips_before_allocating(lambda: operators.evolution_unitary(chain15, region, 0.1))
    trips_before_allocating(lambda: symmetric_unitary(chain15, 0.1, region))


def test_local_operator_permutes_factors_with_support():
    X, Y, Z = PAULI["X"], PAULI["Y"], PAULI["Z"]
    op = LocalOperator((1, 0), np.kron(X, Z))  # X on site 1, Z on site 0
    assert op.support == (0, 1)
    assert np.array_equal(op.matrix, np.kron(Z, X))
    op = LocalOperator((5, 2, 9), kron_all([X, Y, Z]))
    assert op.support == (2, 5, 9)
    assert np.array_equal(op.matrix, kron_all([Y, X, Z]))
    assert np.array_equal(pauli_operator("XYZ", (5, 2, 9)).matrix, op.matrix)
    with pytest.raises(ValueError, match="repeated site"):
        LocalOperator((3, 3), np.kron(X, Z))
    # a sorted support keeps the given array
    big = np.zeros((2**8, 2**8), dtype=complex)
    assert LocalOperator(tuple(range(8)), big).matrix is big


def test_non_hermitian_term_rejected():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        HamiltonianSpec((HamTerm(frozenset((0,)), bad, 1.0),))


def test_nested_commutator_trivial_cases():
    A = pauli_operator("Z", (0,))
    assert nested_commutator_norm(TFIM5, A, [pauli_operator("X", (2,))], 0.0, REGION5) <= 1e-12
    assert nested_commutator_norm(TFIM5, A, [], 0.8, REGION5) == pytest.approx(1.0, abs=1e-9)
    assert nested_commutator_norm(TFIM5, A, [pauli_operator("I", (2,))], 0.8, REGION5) == 0.0


def test_nested_commutator_regression_fixtures():
    A = pauli_operator("Z", (0,))
    # X probes annihilate the evolved boundary operator of this model exactly
    xx = nested_commutator_norm(
        TFIM5, A, [pauli_operator("X", (2,)), pauli_operator("X", (4,))], 0.5, REGION5)
    assert xx <= 1e-13
    yy = nested_commutator_norm(
        TFIM5, A, [pauli_operator("Y", (2,)), pauli_operator("Y", (4,))], 0.5, REGION5)
    assert yy == pytest.approx(2.242914749314819e-05, rel=1e-9)
    H2 = build_named_hamiltonian("random2local", CHAIN5, {"seed": 11})
    rr = nested_commutator_norm(
        H2, A, [pauli_operator("X", (2,)), pauli_operator("X", (4,))], 0.5, REGION5)
    assert rr == pytest.approx(0.00023252323816707823, rel=1e-9)


def test_nested_commutator_bounded_by_operator_norm():
    rng = np.random.default_rng(4)
    A = pauli_operator("Z", (0,))
    for _ in range(5):
        t = float(rng.uniform(0.0, 2.0))
        val = nested_commutator_norm(
            TFIM5, A, [pauli_operator("X", (2,)), pauli_operator("Y", (4,))], t, REGION5)
        assert val <= 1.0 + 1e-9


def test_nested_commutator_input_validation():
    A = pauli_operator("Z", (0,))
    with pytest.raises(ValueError):
        nested_commutator_norm(TFIM5, A, [pauli_operator("X", (0,))], 0.1, REGION5)
    with pytest.raises(ValueError):
        nested_commutator_norm(
            TFIM5, A, [LocalOperator((2,), 2.0 * PAULI["X"])], 0.1, REGION5)
    sigma_plus = LocalOperator((0,), np.array([[0, 1], [0, 0]]))  # unit norm, not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        nested_commutator_norm(TFIM5, sigma_plus, [pauli_operator("X", (2,))], 0.1, REGION5)
    with pytest.raises(ValueError, match="not Hermitian"):
        nested_commutator_norm(
            TFIM5, A, [LocalOperator((2,), sigma_plus.matrix), pauli_operator("X", (4,))],
            0.1, REGION5)
    three_levels = LocalOperator((2, 3), np.diag([1.0, 0.5, 0.5, -1.0]))
    with pytest.raises(ValueError, match="distinct eigenvalues"):
        nested_commutator_norm(TFIM5, A, [three_levels], 0.1, REGION5)
    # three levels are fine on an inner probe; the commutator with Z_4 is exact either way
    assert isinstance(nested_commutator_norm(
        TFIM5, A, [three_levels, pauli_operator("Z", (4,))], 0.1, REGION5), float)


def _reference_nested_norm(H, A, O_list, t, region):
    """The embed-based computation: complex eigh, dense products, full SVD."""
    w, V = np.linalg.eigh(hamiltonian_matrix(H, region))
    U = (V * np.exp(1j * w * t)) @ V.conj().T
    C = U @ embed(A.matrix, A.support, region) @ U.conj().T
    for O in O_list:
        O_emb = embed(O.matrix, O.support, region)
        C = O_emb @ C - C @ O_emb
    return np.linalg.norm(C, 2) / 2 ** len(O_list)


def _random_unit_hermitian(site, rng):
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    M = G + G.conj().T
    return LocalOperator((site,), M / np.linalg.norm(M, 2))


def test_nested_commutator_matches_embed_reference():
    rng = np.random.default_rng(2025)
    # unit norm, eigenvalues -1 (three times) and +1: unequal projector ranks
    projector = LocalOperator((1, 3), 2 * np.diag([1.0, 0, 0, 0]) - np.eye(4))
    extra = np.random.default_rng(2026)  # the three-probe cases draw from their own stream
    V = np.linalg.qr(extra.normal(size=(4, 4)) + 1j * extra.normal(size=(4, 4)))[0]
    four_levels = LocalOperator((1, 2), (V * [1.0, 0.4, -0.3, -1.0]) @ V.conj().T)
    # one column of nonzero weight: the factor stays within 2^n columns for m = 3
    thin = LocalOperator((0, 1), 2 * np.diag([1.0, 0, 0, 0]) - np.eye(4))
    checked = 0
    for n in range(4, 9):
        g = build_square_lattice(1, n)
        region = tuple(range(n))
        models = [
            build_named_hamiltonian("tfim", g, {"J": rng.uniform(0.5, 1.5),
                                                "g": rng.uniform(0.2, 1.2)}),
            build_named_hamiltonian("heisenberg", g, {"Jz": rng.uniform(0.2, 1.5)}),
            build_named_hamiltonian("random2local", g, {"seed": int(rng.integers(2**31))}),
        ]
        for H in models:
            A = _random_unit_hermitian(0, rng)
            far = _random_unit_hermitian(n - 1, rng)
            mid = _random_unit_hermitian(n // 2, rng)
            cases = [(A, O_list) for O_list in [[], [far], [mid, far],
                                                [pauli_operator("XZ", (1, 3))], [projector]]]
            if n > 4:  # site n - 1 is free of the two-site probes
                cases += [(A, [pauli_operator("XZ", (1, 3)), far]),
                          (A, [far, pauli_operator("YX", (1, 3))]), (A, [far, projector])]
            if n > 5:  # three probes: sites 1, 2, mid and n - 1 are distinct
                near = _random_unit_hermitian(1, extra)
                cases += [(A, [near, mid, far]), (A, [four_levels, far, mid]),
                          (thin, [_random_unit_hermitian(2, extra), mid, far])]
            for op, O_list in cases:
                t = float(rng.uniform(0.2, 1.5))
                got = nested_commutator_norm(H, op, O_list, t, region)
                want = _reference_nested_norm(H, op, O_list, t, region)
                assert type(got) is float
                # both round at about 1e-15 absolute, so small values are held to 1e-14
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14), (n, O_list, t)
                checked += 1
    assert checked == 3 * (5 + 4 * 8 + 3 * 3)



def test_nested_commutator_memory_stays_below_three_blocks():
    import tracemalloc

    n = 10
    H = build_named_hamiltonian("random2local", build_square_lattice(1, n), {"seed": 3})
    A, probe = pauli_operator("Z", (0,)), pauli_operator("X", (n - 1,))
    block = 2**n * 2 ** (n - 1) * 16  # the evolved factor Z of a one-site A
    tracemalloc.start()
    try:
        nested_commutator_norm(H, A, [probe], 0.5, tuple(range(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Z, its two row projections and one projection's scratch (measured: 2.52 blocks);
    # a dense 2^n x 2^n A(t) next to Z alone takes three
    assert peak < 3 * block, peak / block

def _reference_evolved(H, A, t, region):
    """exp(iHt) A exp(-iHt) from a dense eigh of the region Hamiltonian."""
    w, V = np.linalg.eigh(hamiltonian_matrix(H, region))
    U = (V * np.exp(1j * w * t)) @ V.conj().T
    return U @ embed(A.matrix, A.support, region) @ U.conj().T


def test_heisenberg_evolve_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(15)
    n = 6
    g = build_square_lattice(1, n)
    region = tuple(range(n))
    G = rng.normal(size=(2**n,) * 2) + 1j * rng.normal(size=(2**n,) * 2)
    # (A, columns of the evolved block): r 2^{n-k} with r the nonzero weights of A - lam_min
    cases = [
        (_random_unit_hermitian(2, rng), 2 ** (n - 1)),
        (pauli_operator("XY", (1, 4)), 2 * 2 ** (n - 2)),
        # eigenvalues -1 (three times) and +1: one column of nonzero weight
        (LocalOperator((1, 3), 2 * np.diag([1.0, 0, 0, 0]) - np.eye(4)), 2 ** (n - 2)),
        (LocalOperator(region, G + G.conj().T), 2**n - 1),
        (LocalOperator((3,), -0.7 * np.eye(2)), 0),
    ]
    widths = []
    expm_multiply = operators.expm_multiply

    def recording(H_sp, psi, *args, **kwargs):
        widths.append(psi.shape[1])
        return expm_multiply(H_sp, psi, *args, **kwargs)

    monkeypatch.setattr(operators, "expm_multiply", recording)
    models = [("tfim", {"J": 1.0, "g": 0.8}), ("heisenberg", {"Jz": 0.5}),
              ("random2local", {"seed": 6}), ("quasilocal", {"s_max": 3, "seed": 2})]
    for name, params in models:
        H = build_named_hamiltonian(name, g, params)
        for A, columns in cases:
            for t in (0.0, -0.9, 1.4):
                widths.clear()
                got = heisenberg_evolve(H, A, t, region)
                assert widths == [columns], (name, A.support)
                assert got.support == region
                want = _reference_evolved(H, A, t, region)
                assert np.max(np.abs(got.matrix - want)) <= 1e-12, (name, A.support, t)
                assert np.array_equal(got.matrix, got.matrix.conj().T)


def test_heisenberg_evolve_rejects_non_hermitian_before_allocating(trips_before_allocating):
    # the 2^10 x 2^9 block alone would take 8 MB, the region Hamiltonian 0.2 MB
    chain10 = build_named_hamiltonian("tfim", build_square_lattice(1, 10), {"g": 1.0})
    # upper triangular: eigh would read only its diagonal and go on
    skew = LocalOperator((3,), np.array([[1, 1], [0, -1]]))
    trips_before_allocating(
        lambda: heisenberg_evolve(chain10, skew, 0.1, tuple(range(10))), ValueError)


def test_heisenberg_evolution_never_diagonalizes(monkeypatch):
    H = build_named_hamiltonian("random2local", CHAIN5, {"seed": 11})
    A = pauli_operator("Z", (0,))
    probes = [pauli_operator("X", (2,)), pauli_operator("X", (4,))]
    want_evolved = _reference_evolved(H, A, 0.5, REGION5)
    want_norm = _reference_nested_norm(H, A, probes, 0.5, REGION5)

    def no_dense_evolution(*args, **kwargs):
        raise AssertionError("a region Hamiltonian was diagonalized")

    eigh = np.linalg.eigh

    def local_eigh(mat, *args, **kwargs):
        # only A's and the last probe's own one-site matrices are diagonalized
        assert np.shape(mat)[0] <= 2, f"eigh of a {np.shape(mat)} matrix"
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(operators, "evolution_unitary", no_dense_evolution)
    monkeypatch.setattr(np.linalg, "eigh", local_eigh)
    got = heisenberg_evolve(H, A, 0.5, REGION5)
    assert np.max(np.abs(got.matrix - want_evolved)) <= 1e-12
    assert nested_commutator_norm(H, A, probes, 0.5, REGION5) == pytest.approx(
        want_norm, rel=1e-10, abs=1e-14)


def test_tfim_term_pruning_and_norms():
    chain3 = build_square_lattice(1, 3)
    H0 = build_named_hamiltonian("tfim", chain3, {"J": 1, "g": 0})
    assert len(H0.terms) == 2
    H = build_named_hamiltonian("tfim", chain3, {"J": 1, "g": 0.5})
    assert len(H.terms) == 5
    assert max(t.norm for t in H.terms) == pytest.approx(1.0)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        build_named_hamiltonian("nope", CHAIN5)
    with pytest.raises(ValueError):
        build_named_hamiltonian("tfim", CHAIN5, {"J": 1, "bogus": 2})


def test_heisenberg_model_terms():
    H = build_named_hamiltonian("heisenberg", build_square_lattice(1, 3), {})
    assert len(H.terms) == 2
    assert all(len(t.support) == 2 for t in H.terms)


def test_exact_expectation_examples():
    assert exact_expectation(
        TFIM5, pauli_operator("Z", (0,)), ProductState.all_zero(), 0.0) == pytest.approx(1.0)
    Hx = HamiltonianSpec((HamTerm(frozenset((0,)), PAULI["X"], 1.0),))
    for t in (0.0, 0.31, 1.2):
        val = exact_expectation(Hx, pauli_operator("Z", (0,)), ProductState.all_zero(), t)
        assert val == pytest.approx(math.cos(2 * t), abs=1e-10)


def _vector_reference(H, A, state, t, region):
    """<psi|A(t)|psi> with A(t) from the dense Heisenberg evolution."""
    psi = state.state_vector(region)
    A_t = heisenberg_evolve(H, A, t, region)
    return np.vdot(psi, embed(A_t.matrix, A_t.support, region) @ psi).real


def test_exact_expectation_vector_and_dense_paths_agree():
    # a real (tfim) and a complex (random2local) Hamiltonian, each evolved in both
    # pictures: the state vector and the Heisenberg block
    chain6 = build_square_lattice(1, 6)
    region = tuple(range(6))
    state = ProductState.all_plus(region)
    A = pauli_operator("X", (2,))
    for name, params in (("tfim", {"J": 1.0, "g": 1.0}), ("random2local", {"seed": 3})):
        H = build_named_hamiltonian(name, chain6, params)
        for t in (0.0, 0.7, 1.6):
            value = exact_expectation(H, A, state, t)
            assert value == pytest.approx(_vector_reference(H, A, state, t, region), abs=1e-12)


def test_sparse_assembly_matches_dense():
    grid = build_square_lattice(2, 3)
    box = tile_boxes(grid, 2, 0)
    regions = [
        tuple(grid.vertices),                  # full lattice
        (0, 1, 3, 4, 8),                       # non-contiguous, one isolated site
        box.box_vertices[box.anchor_box],      # a single box
    ]
    models = [("tfim", {"J": 1.0, "g": 0.7}), ("heisenberg", {"Jz": 0.5}),
              ("random2local", {"seed": 4}), ("quasilocal", {"s_max": 3, "seed": 1})]
    for name, params in models:
        H = build_named_hamiltonian(name, grid, params)
        # heisenberg's Y (x) Y is real; the quasilocal draw has terms with an odd number of Ys
        real = name in ("tfim", "heisenberg")
        assert any(np.any(t.matrix.imag) for t in H.terms) != real, name
        for region in regions:
            # reference: one embedded term at a time, summed in term order
            reference = np.zeros((2 ** len(region),) * 2, dtype=complex)
            for term in [t for t in H.terms if t.support <= set(region)]:
                reference += embed(term.matrix, tuple(sorted(term.support)), region)
            sparse = hamiltonian_matrix(H, region, sparse=True)
            dense = hamiltonian_matrix(H, region)
            assert sparse.dtype == dense.dtype == (np.float64 if real else complex), name
            assert np.array_equal(sparse.toarray(), reference), (name, region)
            assert np.array_equal(dense, reference), (name, region)
            # no explicit zeros, e.g. Heisenberg XX+YY on parallel spins
            assert sparse.nnz == np.count_nonzero(reference), (name, region)
            # sorted column indices, recomputed from the arrays, not the flag alone
            fresh = sp.csr_matrix((sparse.data, sparse.indices, sparse.indptr), shape=sparse.shape)
            assert sparse.has_sorted_indices and fresh.has_sorted_indices, (name, region)


def test_assembly_drops_terms_leaving_the_region():
    # a three-site term over 0..2 and a pair term on 2, 3: a term that leaves the
    # region is not part of its Hamiltonian, so it joins none of the region's sites
    g = build_square_lattice(1, 4)
    zzz = HamTerm(frozenset({0, 1, 2}), kron_all([PAULI["Z"]] * 3), 1.0)
    xx = HamTerm(frozenset({2, 3}), kron_all([PAULI["X"]] * 2), 1.0)
    H = HamiltonianSpec((zzz, xx), graph=g)
    assert [t.support for t in H.terms if t.support <= {0, 1, 2, 3}] == [zzz.support, xx.support]
    assert [t for t in H.terms if t.support <= {0, 1, 3}] == []
    assert [t.support for t in H.terms if t.support <= {1, 2, 3}] == [xx.support]
    assert not np.any(hamiltonian_matrix(H, (0, 1, 3)))
    assert np.array_equal(hamiltonian_matrix(H, (1, 2, 3)), embed(xx.matrix, (2, 3), (1, 2, 3)))
    assert np.array_equal(hamiltonian_matrix(H, (0, 1, 2, 3)),
                          embed(zzz.matrix, (0, 1, 2), (0, 1, 2, 3))
                          + embed(xx.matrix, (2, 3), (0, 1, 2, 3)))


def test_sparse_assembly_peak_stays_under_the_estimate(monkeypatch):
    import tracemalloc

    chain = build_square_lattice(1, 14)
    region = tuple(chain.vertices)
    cases = [  # every entry stored, and half of each XX+YY mask's row dropped as zero
        ("tfim", {"J": 1.0, "g": 1.05}, True),
        ("heisenberg", {"Jz": 0.5}, False),
    ]
    for name, params, all_stored in cases:
        H = build_named_hamiltonian(name, chain, params)
        monkeypatch.setattr(operators, "SPARSE_BYTES_CAP", 0)
        with pytest.raises(CapExceededError) as caught:
            hamiltonian_matrix(H, region, sparse=True)
        monkeypatch.undo()
        message = str(caught.value)
        estimate = int(re.search(r"about (\d+) bytes", message).group(1))
        masks = int(re.search(r"with (\d+) flip masks", message).group(1))
        tracemalloc.start()
        try:
            out = hamiltonian_matrix(H, region, sparse=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.nnz == masks << len(region)) == all_stored, name
        assert peak <= estimate, (name, peak, estimate)


def test_shift_and_radius_bounds_the_spectrum():
    grid = build_square_lattice(2, 3)
    box = tile_boxes(grid, 2, 0)
    regions = [
        tuple(grid.vertices),                  # full lattice
        (0, 1, 3, 4, 8),                       # non-contiguous, one isolated site
        box.box_vertices[box.anchor_box],      # a single box: terms leave it at its boundary
    ]
    models = [("tfim", {"J": 1.0, "g": 0.7}), ("heisenberg", {"Jz": 0.5}),
              ("random2local", {"seed": 4}), ("quasilocal", {"s_max": 3, "seed": 1})]
    for name, params in models:
        H = build_named_hamiltonian(name, grid, params)
        for region in regions:
            mu, radius = operators.shift_and_radius(H, region)
            dense = hamiltonian_matrix(H, region)
            dim = len(dense)
            assert mu == pytest.approx(np.trace(dense).real / dim, abs=1e-14), (name, region)
            w = np.linalg.eigvalsh(dense)
            assert mu - radius - 1e-12 <= w[0] and w[-1] <= mu + radius + 1e-12, (name, region)
            if name in ("tfim", "quasilocal"):
                one_norm = np.abs(dense - mu * np.eye(dim)).sum(axis=0).max()
                assert radius <= one_norm, (name, region, radius, one_norm)
        if name in ("tfim", "heisenberg"):
            assert operators.shift_and_radius(H, regions[0])[0] == 0.0  # real split path


def test_shift_and_radius_takes_eigenvalues_once_per_hamiltonian(monkeypatch):
    H = build_named_hamiltonian("quasilocal", build_square_lattice(2, 3), {"s_max": 3})
    calls = []
    radius_of = operators._centered_radius

    def counting(h):
        calls.append(len(h))
        return radius_of(h)

    monkeypatch.setattr(operators, "_centered_radius", counting)
    first = operators.shift_and_radius(H, (0, 1, 3, 4))
    taken = len(calls)
    assert taken > 0
    operators.shift_and_radius(H, tuple(range(9)))
    assert operators.shift_and_radius(H, (0, 1, 3, 4)) == first
    assert len(calls) == taken

    # and once per distinct matrix: the norm SVDs, the group radii and the flip pieces
    svds, flips = [], []
    norm_of, flips_of = np.linalg.norm, operators._flip_pieces

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(operators.exact_bytes(x))
        return norm_of(x, ord, *args, **kwargs)

    def counting_flips(matrix):
        flips.append(matrix)
        return flips_of(matrix)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(operators, "_flip_pieces", counting_flips)
    for name, side, params in (("tfim", 6, {"J": 1.0, "g": 1.05}),
                               ("random2local", 3, {"seed": 4})):
        for log in (svds, calls, flips):
            log.clear()
        grid = build_square_lattice(2, side)
        H = build_named_hamiltonian(name, grid, params)
        # random2local also takes one SVD per term to scale its draw, of a matrix no term has
        kinds = {operators.exact_bytes(m) for m in H.kinds}
        assert len([x for x in svds if x in kinds]) == len(H.kinds)
        # a group is fixed by its term's kind and, per site, the site's single-site kinds
        # and its count of multi-site terms; a lone site by its single-site kinds
        single, degree = {}, {}
        for term, kind in zip(H.terms, H.term_kinds):
            for v in term.support:
                if len(term.support) == 1:
                    single[v] = single.get(v, ()) + (kind,)
                else:
                    degree[v] = degree.get(v, 0) + 1
        groups = {(kind, tuple((single.get(v), degree[v]) for v in sorted(term.support)))
                  for term, kind in zip(H.terms, H.term_kinds) if len(term.support) > 1}
        operators.shift_and_radius(H, tuple(grid.vertices))
        assert len(calls) == len(groups) + len(set(single.values()))
        for region in (tuple(range(2 * side)), (0, 1, side, side + 1), tuple(range(side))):
            hamiltonian_matrix(H, region, sparse=True)
        assert len(flips) == len(H.kinds)
        if name == "tfim":  # bonds by the degrees of their two sites, and one X
            assert (len(H.terms), len(H.kinds), len(groups), len(calls)) == (96, 2, 6, 7)
        else:  # nothing is wrongly merged
            assert len(H.kinds) == len(groups) == len(calls) == len(H.terms) == 12


def test_distinct_kinds_share_one_read_only_matrix():
    H = build_named_hamiltonian("tfim", build_square_lattice(2, 6), {"J": 1.0, "g": 1.05})
    assert len(H.kinds) == 2
    for term, kind in zip(H.terms, H.term_kinds):
        assert term.matrix is H.kinds[kind]
    for matrix in H.kinds:
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        H.terms[0].matrix[0, 0] += 1.0


def test_distinct_kinds_clear_the_sign_of_zero_only():
    z = PAULI["Z"].copy()
    signed = z.copy()
    signed[0, 1] = complex(-0.0, -0.0)  # equal entries, other bytes
    ulp = z.copy()
    ulp[0, 0] = np.nextafter(1.0, 2.0)  # one ulp apart
    terms = tuple(HamTerm(frozenset((v,)), m, 1.0) for v, m in enumerate((z, signed, ulp, z)))
    H = HamiltonianSpec(terms)
    assert H.term_kinds == (0, 0, 1, 0)
    assert len(H.kinds) == 2
    assert H.terms[1].matrix is H.terms[0].matrix
    assert np.array_equal(H.kinds[1], ulp) and not np.array_equal(H.kinds[0], ulp)
    # the kinds are copies: the caller's arrays stay writable, and edits to them stay out
    z[1, 1] = 7.0
    assert H.kinds[0][1, 1] == -1.0 and z.flags.writeable
    assert [t.norm for t in H.terms] == [1.0] * 4


def _reference_spectral_groups(H):
    """``spectral_groups`` term by term: one embed and eigvalsh per multi-site term."""
    single, degree = {}, {}
    for term in H.terms:
        if len(term.support) == 1:
            (v,) = term.support
            single[v] = single[v] + term.matrix if v in single else term.matrix
        elif len(term.support) > 1:
            for v in term.support:
                degree[v] = degree.get(v, 0) + 1

    def radius(h):
        w = np.linalg.eigvalsh(h)
        center = float(np.trace(h).real) / len(h)
        return float(max(w[-1] - center, center - w[0]))

    centers, radii = [], []
    for term in H.terms:
        centers.append(float(np.trace(term.matrix).real) / len(term.matrix))
        if len(term.support) > 1:
            sites = tuple(sorted(term.support))
            group = term.matrix.copy()
            for v in sites:
                if v in single:
                    group += embed(single[v] / degree[v], (v,), sites)
            radii.append(radius(group))
        else:
            radii.append(0.0)
    shares = {}
    for v, h in single.items():
        count = max(degree.get(v, 0), 1)
        shares[v] = (count, radius(h) / count)
    return tuple(centers), tuple(radii), shares


def test_distinct_kinds_keep_norms_groups_and_assembly_bits():
    models = [("tfim", {"J": 1.0, "g": 0.7}), ("heisenberg", {"Jz": 0.5}),
              ("random2local", {"seed": 4}), ("quasilocal", {"s_max": 3, "seed": 1})]
    for g in (build_square_lattice(2, 3), build_square_lattice(1, 6)):
        vertices = tuple(g.vertices)
        for name, params in models:
            H = build_named_hamiltonian(name, g, params)
            assert [t.norm for t in H.terms] == [
                float(np.linalg.norm(t.matrix, 2)) for t in H.terms], name
            assert H.spectral_groups == _reference_spectral_groups(H), name
            for region in (vertices, vertices[1:5], vertices[::2]):
                terms = [t for t in H.terms if t.support <= set(region)]
                reference = np.zeros((2 ** len(region),) * 2, dtype=complex)
                for term in terms:  # one embedded term at a time, in term order
                    reference += embed(term.matrix, tuple(sorted(term.support)), region)
                if not any(np.any(t.matrix.imag) for t in terms):
                    reference = reference.real
                want = sp.csr_matrix(reference)
                got = hamiltonian_matrix(H, region, sparse=True)
                assert got.dtype == want.dtype, (name, region)
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), (
                        name, region, part)


def test_shift_and_radius_lowers_the_l18_degree():
    # tfim, J = 1, g = 1.05 on the open 18-site chain: the CSR 1-norm is
    # 17 J + 18 g = 35.9, degree 76 at t = 1; the group bound is 25.5
    chain = build_square_lattice(1, 18)
    H = build_named_hamiltonian("tfim", chain, {"J": 1.0, "g": 1.05})
    mu, radius = operators.shift_and_radius(H, tuple(chain.vertices))
    assert mu == 0.0
    assert radius == pytest.approx(25.48, abs=0.01)
    assert operators._chebyshev_degree(radius * 1.0) == 61
    assert operators._chebyshev_degree(17 + 18 * 1.05) == 76


class CountingCSR:
    """A CSR matrix that counts its products and records each operand's dtype and shape."""

    def __init__(self, matrix):
        self.matrix, self.products, self.operands = matrix, 0, []

    def __getattr__(self, name):
        return getattr(self.matrix, name)

    def __matmul__(self, vec):
        self.products += 1
        self.operands.append((vec.dtype, vec.shape))
        return self.matrix @ vec


def test_expm_multiply_matches_scipy():
    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

    rng = np.random.default_rng(8)
    grid = build_square_lattice(2, 3)
    models = [
        ("tfim", {"J": 1.0, "g": 1.05}, build_square_lattice(1, 12)),
        ("heisenberg", {"Jz": 0.5}, build_square_lattice(1, 10)),
        ("random2local", {"seed": 3}, build_square_lattice(1, 8)),  # tr(H) != 0
        ("quasilocal", {"s_max": 3, "seed": 1}, grid),
        ("tfim", {"g": 0.7}, build_square_lattice(1, 4)),
    ]
    points = 0
    for name, params, g in models:
        H = build_named_hamiltonian(name, g, params)
        region = tuple(g.vertices)
        H_sp = hamiltonian_matrix(H, region, sparse=True)
        mu, norm = operators.shift_and_radius(H, region)
        shifted = H_sp.toarray() - mu * np.eye(H_sp.shape[0])
        assert mu == pytest.approx(np.trace(H_sp.toarray()).real / H_sp.shape[0], abs=1e-15)
        assert np.max(np.abs(np.linalg.eigvalsh(shifted))) <= norm + 1e-12
        # R t = 70 below puts ||t H||_1 past scipy's switch to onenormest at 63.4
        assert 70.0 / norm * np.abs(H_sp).sum(axis=0).max() > 63.4
        if name == "random2local":
            assert abs(mu) > 0.1
        psi = rng.normal(size=H_sp.shape[0]) + 1j * rng.normal(size=H_sp.shape[0])
        psi /= np.linalg.norm(psi)
        # unsorted, repeated, zero, negative and non-dyadic times, and R t = 70
        times = [1.9, 0.3, -0.7, 0.0, 70.0 / norm, 0.3]
        got = operators.expm_multiply(H_sp, psi, times, mu, norm)
        assert len(got) == len(times)
        for t, vec in zip(times, got):
            want = scipy_expm_multiply(-1j * t * H_sp, psi)
            assert np.max(np.abs(vec - want)) <= 1e-12, (name, t)
            points += 1
        single = operators.expm_multiply(H_sp, psi, -0.7, mu, norm)
        assert np.max(np.abs(single - got[2])) <= 1e-12
    assert points == 30

    # no terms: a zero norm, and the state comes back unchanged
    empty = hamiltonian_matrix(HamiltonianSpec(()), (0, 1, 2), sparse=True)
    assert operators.shift_and_radius(HamiltonianSpec(()), (0, 1, 2)) == (0.0, 0.0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.array_equal(operators.expm_multiply(empty, psi, 0.7, 0.0, 0.0), psi)
    # a multiple of the identity: zero norm after the shift, only the phase
    identity = HamiltonianSpec((HamTerm(frozenset((0,)), 0.5 * np.eye(2, dtype=complex), 0.5),))
    H_sp = hamiltonian_matrix(identity, (0, 1, 2), sparse=True)
    mu, norm = operators.shift_and_radius(identity, (0, 1, 2))
    assert (mu, norm) == (0.5, 0.0)
    for t, vec in zip((0.7, -1.2), operators.expm_multiply(H_sp, psi, [0.7, -1.2], mu, norm)):
        assert np.max(np.abs(vec - np.exp(-0.5j * t) * psi)) <= 1e-15


def test_expm_multiply_runs_in_the_matrix_arithmetic():
    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

    g = build_square_lattice(1, 10)
    region = tuple(g.vertices)
    times = [0.4, 1.3, -0.6]
    tilted = ProductState({v: np.array([1.0, 1j]) / math.sqrt(2) for v in region})
    for name, params in (("tfim", {"J": 1.0, "g": 1.05}), ("heisenberg", {"Jz": 0.5}),
                         ("random2local", {"seed": 3})):
        H = build_named_hamiltonian(name, g, params)
        H_sp = hamiltonian_matrix(H, region, sparse=True)
        mu, norm = operators.shift_and_radius(H, region)
        for state in (ProductState.all_zero(), ProductState.all_plus(region), tilted):
            psi = state.state_vector(region)
            counting = CountingCSR(H_sp)
            got = operators.expm_multiply(counting, psi, times, mu, norm)
            assert counting.products == operators._chebyshev_degree(norm * 1.3)
            dim = H_sp.shape[0]
            if name == "random2local":  # a complex H: complex vectors, as before
                operand = (np.dtype(complex), (dim,))
            elif state is tilted:  # a complex state under a real H: its (re, im) pairs
                operand = (np.dtype(np.float64), (dim, 2))
            else:  # a real H and a real state: real vectors
                operand = (np.dtype(np.float64), (dim,))
            assert set(counting.operands) == {operand}, (name, state)
            for t, vec in zip(times, got):
                want = scipy_expm_multiply(-1j * t * H_sp, psi)
                assert np.max(np.abs(vec - want)) <= 1e-12, (name, t)


def test_expm_multiply_long_time_matches_dense_evolution():
    # R t = 300 on 10 qubits: a degree in the hundreds, against exp(-itH) by diagonalization
    g = build_square_lattice(1, 10)
    H = build_named_hamiltonian("random2local", g, {"seed": 2})
    region = tuple(g.vertices)
    H_sp = hamiltonian_matrix(H, region, sparse=True)
    mu, norm = operators.shift_and_radius(H, region)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    psi /= np.linalg.norm(psi)
    t = 300.0 / norm
    assert operators._chebyshev_degree(norm * t) > 300
    got = operators.expm_multiply(H_sp, psi, t, mu, norm)
    want = operators.evolution_unitary(H, region, -t) @ psi
    assert np.max(np.abs(got - want)) <= 1e-12


def test_expm_multiply_grid_costs_one_recurrence():
    g = build_square_lattice(1, 12)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 1.05})
    region = tuple(g.vertices)
    H_sp = hamiltonian_matrix(H, region, sparse=True)
    mu, norm = operators.shift_and_radius(H, region)
    psi = ProductState.all_zero().state_vector(region)
    times = [0.5, 1.0, 0.25]
    counting = CountingCSR(H_sp)
    got = operators.expm_multiply(counting, psi, times, mu, norm)
    assert counting.products == operators._chebyshev_degree(norm * 1.0)
    apart = 0
    for t, vec in zip(times, got):
        alone = CountingCSR(H_sp)
        assert np.max(np.abs(operators.expm_multiply(alone, psi, t, mu, norm) - vec)) <= 1e-13
        assert alone.products == operators._chebyshev_degree(norm * t)
        apart += alone.products
    assert apart > 1.5 * counting.products


def test_expm_multiply_step_copies_no_matrix():
    import tracemalloc

    H = build_named_hamiltonian("tfim", build_square_lattice(1, 14), {"J": 1.0, "g": 1.05})
    H_sp = hamiltonian_matrix(H, tuple(range(14)), sparse=True)
    mu, norm = operators.shift_and_radius(H, tuple(range(14)))
    psi = ProductState.all_plus(range(14)).state_vector(tuple(range(14)))
    tracemalloc.start()
    try:
        operators.expm_multiply(H_sp, psi, 0.3, mu, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 2^14 vectors; any scaled or shifted copy of H alone would exceed this
    assert peak < H_sp.data.nbytes, (peak, H_sp.data.nbytes)


def test_expm_multiply_long_grid_runs_in_segments():
    import tracemalloc

    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

    H = build_named_hamiltonian("tfim", build_square_lattice(1, 14), {"J": 1.0, "g": 1.05})
    H_sp = hamiltonian_matrix(H, tuple(range(14)), sparse=True)
    mu, norm = operators.shift_and_radius(H, tuple(range(14)))
    psi = ProductState.all_plus(range(14)).state_vector(tuple(range(14)))
    times = list(np.linspace(0.05, 3.2, 64))
    csr_bytes = H_sp.data.nbytes + H_sp.indices.nbytes + H_sp.indptr.nbytes
    vector = psi.nbytes
    per_segment = csr_bytes // vector
    assert per_segment < 20  # so the grid takes several segments
    counting = CountingCSR(H_sp)
    tracemalloc.start()
    try:
        got = operators.expm_multiply(counting, psi, times[::-1], mu, norm,
                                      observe=lambda vec: np.vdot(psi, vec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one segment's accumulators, the restart state and the recurrence's few vectors;
    # all 64 accumulators at once would take three times the CSR
    assert peak < csr_bytes + 6 * vector, (peak, csr_bytes, vector)
    starts = [0.0] + times[per_segment - 1::per_segment]
    ends = times[per_segment - 1::per_segment] + [times[-1]]
    assert len(ends) == -(-len(times) // per_segment) > 1
    assert counting.products == sum(operators._chebyshev_degree(norm * (end - start))
                                    for start, end in zip(starts, ends))
    want = scipy_expm_multiply(-1j * H_sp, psi, start=times[0], stop=times[-1], num=64)
    assert np.max(np.abs(np.array(got[::-1]) - want @ psi.conj())) <= 1e-12


def test_expm_multiply_refuses_a_step_past_the_cap(trips_before_allocating):
    cap = operators.CHEBYSHEV_ARGUMENT_CAP
    # at the cap, the coefficients' FFT samples take 4 MiB
    degree = operators._chebyshev_degree(cap)
    assert 16 << (2 * degree + 1).bit_length() == 4 << 20
    _, region, H_sp, mu, radius = _chain("tfim", 4, {"J": 1.0, "g": 1.0})
    psi = ProductState.all_zero().state_vector(region)
    block = np.ones((16, 3))
    for t in (1e6, 1e308, -1e300, 1.01 * cap / radius, math.nan, math.inf, [0.3, 1e6]):
        for start in (psi, block):
            trips_before_allocating(
                lambda: operators.expm_multiply(H_sp, start, t, mu, radius))
    # a zero radius does not excuse a time that is not finite
    trips_before_allocating(lambda: operators.expm_multiply(H_sp, psi, math.nan, mu, 0.0))


def test_expm_multiply_block_matches_columns():
    rng = np.random.default_rng(21)
    g = build_square_lattice(1, 8)
    region = tuple(g.vertices)
    times = [0.4, -0.9]
    for name, params in (("tfim", {"J": 1.0, "g": 1.05}), ("random2local", {"seed": 4})):
        H = build_named_hamiltonian(name, g, params)
        H_sp = hamiltonian_matrix(H, region, sparse=True)
        mu, norm = operators.shift_and_radius(H, region)
        dim = H_sp.shape[0]
        csr_bytes = H_sp.data.nbytes + H_sp.indices.nbytes + H_sp.indptr.nbytes
        fit = max(csr_bytes, operators.CHUNK_FLOOR) // (16 * dim)
        for columns in (3, 3 * fit + 1):  # one chunk, and chunks narrower than the block
            real = rng.normal(size=(dim, columns))
            for block in (real, real + 1j * rng.normal(size=(dim, columns))):
                counting = CountingCSR(H_sp)
                got = operators.expm_multiply(counting, block, times, mu, norm)
                if name == "tfim":  # a real H meets no complex operand
                    assert {dtype for dtype, _ in counting.operands} == {np.dtype(np.float64)}
                assert max(shape[1] for _, shape in counting.operands) <= 2 * fit
                for j in range(columns):
                    alone = operators.expm_multiply(H_sp, block[:, j], times, mu, norm)
                    for vec, want in zip(got, alone):
                        assert np.max(np.abs(vec[:, j] - want)) <= 1e-13, (name, columns, j)
                single = operators.expm_multiply(H_sp, block, -0.9, mu, norm)
                assert np.max(np.abs(single - got[1])) <= 1e-13


def _fresh_pools(monkeypatch, workers):
    """Each w of ``workers`` in turn, ``_workers`` giving w, on a fresh pool of w - 1 threads."""
    for w in workers:
        monkeypatch.setattr(operators, "_workers", lambda w=w: w)
        monkeypatch.setattr(operators, "_POOL", None)
        try:
            yield w
        finally:
            if operators._POOL is not None:
                operators._POOL.shutdown(wait=True)


def _block_peak(H_sp, block, t, mu, radius):
    import tracemalloc

    tracemalloc.start()
    try:
        got = operators.expm_multiply(H_sp, block, t, mu, radius)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expm_multiply_block_memory_stays_flat(monkeypatch):
    H = build_named_hamiltonian("tfim", build_square_lattice(1, 12), {"J": 1.0, "g": 1.05})
    H_sp = hamiltonian_matrix(H, tuple(range(12)), sparse=True)
    mu, norm = operators.shift_and_radius(H, tuple(range(12)))
    dim = H_sp.shape[0]
    csr_bytes = H_sp.data.nbytes + H_sp.indices.nbytes + H_sp.indptr.nbytes
    assert csr_bytes > operators.CHUNK_FLOOR  # so the CSR sizes the chunks
    chunk = csr_bytes // (16 * dim)
    columns = 96
    assert chunk < columns / 4  # so the block takes several chunks
    rng = np.random.default_rng(9)
    block = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
    for w in _fresh_pools(monkeypatch, (1, 2, 3, 4)):
        got, peak = _block_peak(H_sp, block, 0.6, mu, norm)
        # the output, and one chunk's input, accumulator, scratch and three recurrence
        # vectors (measured: 4.9 to 6.0 chunks over the output at w = 1 to 4, the chunks in
        # flight together as wide as one); the whole block at once would take six outputs
        assert peak < got.nbytes + csr_bytes + 6 * 16 * dim * chunk, (w, peak, got.nbytes)


def test_expm_multiply_block_memory_stays_flat_at_the_floor(monkeypatch):
    # a 9-qubit tfim CSR of 63 KiB: the floor, not the CSR, sizes the chunks in flight
    H = build_named_hamiltonian("tfim", build_square_lattice(1, 9), {"J": 1.0, "g": 1.05})
    H_sp = hamiltonian_matrix(H, tuple(range(9)), sparse=True)
    mu, norm = operators.shift_and_radius(H, tuple(range(9)))
    dim = H_sp.shape[0]
    csr_bytes = H_sp.data.nbytes + H_sp.indices.nbytes + H_sp.indptr.nbytes
    assert 8 * csr_bytes < operators.CHUNK_FLOOR
    rng = np.random.default_rng(10)
    block = rng.normal(size=(dim, 256)) + 1j * rng.normal(size=(dim, 256))
    for w in _fresh_pools(monkeypatch, (1, 2, 3, 4)):
        got, peak = _block_peak(H_sp, block, 0.6, mu, norm)
        assert got.nbytes == 4 * operators.CHUNK_FLOOR  # so the block takes several chunks
        # measured: 5.7 to 6.1 floors over the output
        assert peak < got.nbytes + csr_bytes + 7 * operators.CHUNK_FLOOR, (w, peak, got.nbytes)


def _chain(name, n, params):
    g = build_square_lattice(1, n)
    H = build_named_hamiltonian(name, g, params)
    region = tuple(g.vertices)
    H_sp = hamiltonian_matrix(H, region, sparse=True)
    return H, region, H_sp, *operators.shift_and_radius(H, region)


def _at_each_split(monkeypatch, run, workers=(1, 2, 3)):
    """run() at each CPU count w on a fresh pool, and per w the sets of the row-block
    counts asked of ``_row_blocks`` and of the task counts handed to ``_each``."""
    made, handed = [], []
    row_blocks, each = operators._row_blocks, operators._each

    def recorded(H_sp, bounds):
        made.append(len(bounds) - 1)
        return row_blocks(H_sp, bounds)

    def counted(task, count):
        handed.append(count)
        each(task, count)

    monkeypatch.setattr(operators, "_row_blocks", recorded)
    monkeypatch.setattr(operators, "_each", counted)
    results, seen, tasks = [], [], []
    for _ in _fresh_pools(monkeypatch, workers):
        made.clear()
        handed.clear()
        results.append(run())
        seen.append(set(made))
        tasks.append(set(handed))
    return results, seen, tasks


def _assert_same_bits(results):
    for other in results[1:]:
        for a, b in zip(results[0], other, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_expm_multiply_row_split_keeps_the_bits(monkeypatch):
    # a 16-qubit tfim vector over a grid (entries x columns = 1.1M), and an 11-qubit
    # random2local block in chunks of 27 columns (45k x 27 = 1.2M): both above the grain;
    # three blocks split the rows unevenly
    _, region, H_sp, mu, radius = _chain("tfim", 16, {"J": 1.0, "g": 1.05})
    assert H_sp.nnz >= operators.SPLIT_GRAIN
    for state in (ProductState.all_plus(region),
                  ProductState({v: np.array([1.0, 1j]) / math.sqrt(2) for v in region})):
        psi = state.state_vector(region)
        results, seen, _ = _at_each_split(
            monkeypatch, lambda: operators.expm_multiply(H_sp, psi, [0.9, 0.2, -0.4], mu, radius))
        assert seen == [{1}, {2}, {3}]
        _assert_same_bits(results)

    # the block's chunks of 27, 12, 9 and 6 columns (3, 7, 9 and 14 of them) run as
    # min(w, chunks) tasks, each chunk on one thread with its rows unsplit
    _, _, H_sp, mu, radius = _chain("random2local", 11, {"seed": 5})
    assert H_sp.nnz * 27 >= operators.SPLIT_GRAIN  # a chunk at w = 1
    rng = np.random.default_rng(12)
    block = rng.normal(size=(2048, 81)) + 1j * rng.normal(size=(2048, 81))
    results, seen, tasks = _at_each_split(
        monkeypatch, lambda: operators.expm_multiply(H_sp, block, [0.3, -0.5], mu, radius),
        workers=(1, 2, 3, 4))
    assert seen == [{1}] * 4
    assert tasks == [{1}, {2}, {3}, {4}]
    _assert_same_bits(results)


def test_expm_multiply_chunks_take_the_arithmetic_of_the_whole_block(monkeypatch):
    # a 9-qubit tfim block whose first 100 columns are real, in chunks of 64, 32, 20
    # and 16 columns at w = 1 to 4: column 64 is in a mixed chunk at w = 1 and in a
    # real one at w = 2 to 4, and the whole block runs as (re, im) pairs at every w
    _, _, H_sp, mu, radius = _chain("tfim", 9, {"J": 1.0, "g": 1.05})
    assert mu == 0.0  # so a real chunk would halve its accumulations
    rng = np.random.default_rng(13)
    block = rng.normal(size=(512, 256)) + 1j * rng.normal(size=(512, 256))
    block[:, :100] = block[:, :100].real
    counting = CountingCSR(H_sp)
    operators.expm_multiply(counting, block, 0.3, mu, radius)
    assert {shape[1] % 2 for _, shape in counting.operands} == {0}  # column pairs only
    results, seen, tasks = _at_each_split(
        monkeypatch, lambda: operators.expm_multiply(H_sp, block, [0.3, -0.5], mu, radius),
        workers=(1, 2, 3, 4))
    assert tasks == [{1}, {2}, {3}, {4}]
    _assert_same_bits(results)


def test_exact_expectation_row_split_keeps_the_bits(monkeypatch):
    chain = build_square_lattice(1, 18)
    H = build_named_hamiltonian("tfim", chain, {"J": 1.0, "g": 1.05})
    A = pauli_operator("Z", (9,))
    results, seen, _ = _at_each_split(
        monkeypatch, lambda: exact_expectation(H, A, ProductState.all_zero(), [0.25, 0.5]))
    assert seen == [{1}, {2}, {3}]
    assert results[0] == results[1] == results[2]


def test_nested_commutator_row_split_keeps_the_bits(monkeypatch):
    H = build_named_hamiltonian("random2local", build_square_lattice(1, 11), {"seed": 7})
    A = pauli_operator("Z", (5,))
    probes = [pauli_operator("X", (0,)), pauli_operator("Y", (10,))]
    # the 2048 x 1024 block in chunks of 27, 13 and 9 columns: min(w, chunks) tasks,
    # each chunk's rows unsplit
    results, seen, tasks = _at_each_split(
        monkeypatch, lambda: nested_commutator_norm(H, A, probes, 0.1, tuple(range(11))))
    assert seen == [{1}] * 3
    assert tasks == [{1}, {2}, {3}]
    assert results[0] == results[1] == results[2]


def test_expm_multiply_row_split_keeps_the_bits_under_contention(monkeypatch):
    # five row blocks of a vector, and five tasks taking a block's 25 chunks of 12
    # columns (a chunk lost or taken twice would leave or overwrite its columns), on a
    # fresh pool, more than the CPUs, with the interpreter switching threads every
    # microsecond
    import sys

    _, region, H_sp, mu, radius = _chain("tfim", 16, {"J": 1.0, "g": 1.05})
    psi = ProductState({v: np.array([1.0, 1j]) / math.sqrt(2) for v in region}).state_vector(region)
    _, _, H_9, mu_9, radius_9 = _chain("tfim", 9, {"J": 1.0, "g": 1.05})
    block = np.random.default_rng(16).normal(size=(512, 300))
    for matrix, start, shift, scale in ((H_sp, psi, mu, radius), (H_9, block, mu_9, radius_9)):
        monkeypatch.setattr(operators, "_workers", lambda: 1)
        want = operators.expm_multiply(matrix, start, [0.2, 0.7], shift, scale)
        monkeypatch.setattr(operators, "_workers", lambda: 5)
        monkeypatch.setattr(operators, "_POOL", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = operators.expm_multiply(matrix, start, [0.2, 0.7], shift, scale)
        finally:
            sys.setswitchinterval(interval)
            operators._POOL.shutdown(wait=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_expm_multiply_row_split_blocks_are_the_matrix_rows():
    # leading rows without entries: the second block starts at entry 0 too
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(12, 12)) * (rng.random((12, 12)) < 0.4)
    dense[:5] = 0
    H_sp = sp.csr_matrix(dense)
    x = rng.normal(size=(12, 3))
    bounds = [0, 4, 8, 12]
    blocks = operators._row_blocks(H_sp, bounds)
    for block, r0, r1 in zip(blocks, bounds, bounds[1:]):
        assert block.shape == (r1 - r0, 12)
        assert np.array_equal(block.toarray(), dense[r0:r1])
        assert np.array_equal(block @ x, H_sp[r0:r1] @ x)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_expm_multiply_row_split_runs_in_a_forked_child(monkeypatch):
    # the child inherits the pool object but none of its threads; a task it
    # submitted to that pool would never run
    import signal

    _, region, H_sp, mu, radius = _chain("tfim", 16, {"J": 1.0, "g": 1.05})
    psi = ProductState.all_plus(region).state_vector(region)
    monkeypatch.setattr(operators, "_workers", lambda: 2)
    want = operators.expm_multiply(H_sp, psi, 0.3, mu, radius)
    assert operators._POOL is not None
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if the split evolution finishes and agrees
        code = 1
        try:
            signal.alarm(30)
            got = operators.expm_multiply(H_sp, psi, 0.3, mu, radius)
            code = 0 if np.array_equal(got, want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_expm_multiply_chunks_at_the_grain_leave_their_rows_unsplit(monkeypatch):
    # a 14-qubit tfim block in four chunks of 5 real columns at w = 2: each chunk's
    # products reach the grain, but a pool thread that split them would wait on the
    # pool it runs on; the child exits 0 only if the block finishes in time, asks for
    # whole-matrix blocks only and agrees with w = 1
    import signal

    _, _, H_sp, mu, radius = _chain("tfim", 14, {"J": 1.0, "g": 1.05})
    assert H_sp.nnz * 5 >= operators.SPLIT_GRAIN
    block = np.random.default_rng(14).normal(size=(H_sp.shape[0], 20))
    monkeypatch.setattr(operators, "_workers", lambda: 1)
    want = operators.expm_multiply(H_sp, block, 0.3, mu, radius)
    made = []
    row_blocks = operators._row_blocks

    def recorded(matrix, bounds):
        made.append(len(bounds) - 1)
        return row_blocks(matrix, bounds)

    monkeypatch.setattr(operators, "_row_blocks", recorded)
    monkeypatch.setattr(operators, "_workers", lambda: 2)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(30)
            got = operators.expm_multiply(H_sp, block, 0.3, mu, radius)
            code = 0 if np.array_equal(got, want) and made == [1] * 4 else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_expm_multiply_row_split_takes_one_product_per_block_per_degree(monkeypatch):
    _, region, H_sp, mu, radius = _chain("tfim", 16, {"J": 1.0, "g": 1.05})
    psi = ProductState.all_plus(region).state_vector(region)
    blocks = []
    row_blocks = operators._row_blocks

    def counted(matrix, bounds):
        blocks[:] = [CountingCSR(block) for block in row_blocks(matrix, bounds)]
        return blocks

    monkeypatch.setattr(operators, "_row_blocks", counted)
    monkeypatch.setattr(operators, "_workers", lambda: 3)
    operators.expm_multiply(H_sp, psi, [0.2, 0.7], mu, radius)
    assert len(blocks) == 3
    degree = operators._chebyshev_degree(radius * 0.7)
    assert [block.products for block in blocks] == [degree] * 3
    assert sum(block.shape[0] for block in blocks) == H_sp.shape[0]
    for block in blocks:  # views of the matrix's entries, not copies
        assert np.shares_memory(block.data, H_sp.data)
        assert np.shares_memory(block.indices, H_sp.indices)
    assert sum(block.nnz for block in blocks) == H_sp.nnz
    # below the grain, the one block is the matrix itself
    assert row_blocks(H_sp, [0, H_sp.shape[0]]) == [H_sp]


def test_expm_multiply_row_split_passes_a_worker_exception_on(monkeypatch):
    import threading

    raised_on = []
    pool_failed = threading.Event()

    class Failing(CountingCSR):
        def __matmul__(self, vec):
            raised_on.append(threading.current_thread())
            raise RuntimeError("block product failed")

    class FailingOffMain(CountingCSR):  # the caller's products wait for a pool thread's to fail
        def __matmul__(self, vec):
            if threading.current_thread() is threading.main_thread():
                pool_failed.wait(30)
                return self.matrix @ vec
            raised_on.append(threading.current_thread())
            pool_failed.set()
            raise RuntimeError("block product failed")

    row_blocks = operators._row_blocks
    _, region, H_sp, mu, radius = _chain("tfim", 16, {"J": 1.0, "g": 1.05})
    vector = ProductState.all_plus(region).state_vector(region)
    _, _, H_9, mu_9, radius_9 = _chain("tfim", 9, {"J": 1.0, "g": 1.05})
    block = np.random.default_rng(15).normal(size=(512, 128))
    monkeypatch.setattr(operators, "_workers", lambda: 2)
    # a split product's last row block, and a block's chunk on the pool (four of 32 columns)
    for matrix, psi, shift, scale, failing in ((H_sp, vector, mu, radius, "last row block"),
                                               (H_9, block, mu_9, radius_9, "off main")):
        raised_on.clear()
        monkeypatch.setattr(operators, "_row_blocks", lambda matrix, bounds: [
            *row_blocks(matrix, bounds)[:-1],
            (Failing if failing == "last row block" else FailingOffMain)(
                row_blocks(matrix, bounds)[-1])])
        with pytest.raises(RuntimeError, match="block product failed"):
            operators.expm_multiply(matrix, psi, 0.5, shift, scale)
        assert raised_on and raised_on[0] is not threading.main_thread(), failing


def test_sparse_assembly_budget(trips_before_allocating, monkeypatch):
    A = pauli_operator("Z", (0,))
    # 20 qubits with three-site Pauli strings: 64 flip masks, about 2.8 GB
    patch = build_named_hamiltonian("quasilocal", build_rectangular_lattice((4, 5)),
                                    {"s_max": 3})
    region = tuple(range(20))
    trips_before_allocating(lambda: hamiltonian_matrix(patch, region, sparse=True))
    trips_before_allocating(lambda: exact_expectation(patch, A, ProductState.all_zero(), 0.1))
    # the 20-qubit chains stay well under the budget; with it at 0 they report the estimate
    monkeypatch.setattr(operators, "SPARSE_BYTES_CAP", 0)
    chain20 = build_square_lattice(1, 20)
    for name in ("tfim", "heisenberg"):
        H = build_named_hamiltonian(name, chain20, {"g": 1.0} if name == "tfim" else {})
        with pytest.raises(CapExceededError, match="bytes") as caught:
            hamiltonian_matrix(H, region, sparse=True)
        estimate = int(re.search(r"about (\d+) bytes", str(caught.value)).group(1))
        assert 2 ** 28 < estimate < 10**9, (name, estimate)


def test_exact_expectation_grid_matches_scalar_calls():
    grid = [0.9, 0.0, 0.35, 0.9, -0.2]  # unsorted, repeated point, t = 0, t < 0
    A = pauli_operator("X", (2,))
    plus = ProductState.all_plus(REGION5)
    for state in (ProductState.all_zero(), plus):
        values = exact_expectation(TFIM5, A, state, grid)
        assert isinstance(values, list) and len(values) == len(grid)
        for t, value in zip(grid, values):
            assert value == pytest.approx(exact_expectation(TFIM5, A, state, t), abs=1e-12)
    assert exact_expectation(TFIM5, A, plus, []) == []


def test_dense_state_grid_assembles_once(monkeypatch):
    # one region Hamiltonian serves the whole grid; the state is stepped through it
    chain6 = build_square_lattice(1, 6)
    H = build_named_hamiltonian("random2local", chain6, {"seed": 5})
    region = tuple(range(6))
    state = ProductState.all_plus(region)
    A = pauli_operator("ZX", (1, 2))
    grid = [0.2, 0.7, 1.3]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return hamiltonian_matrix(*args, **kwargs)

    monkeypatch.setattr(operators, "hamiltonian_matrix", counting)
    values = exact_expectation(H, A, state, grid)
    assert len(calls) == 1
    monkeypatch.undo()
    for t, value in zip(grid, values):
        assert value == pytest.approx(_vector_reference(H, A, state, t, region), abs=1e-12)


def test_quasilocal_envelope_and_kappa():
    g = build_square_lattice(1, 6)
    H = build_named_hamiltonian("quasilocal", g, {"h": 1.0, "kappa": 2.0, "s_max": 3})
    report = check_quasilocal(H)
    assert report.envelope_ok and report.kappa_ok
    assert report.degree == 2  # interior chain vertex has two neighbors
    assert all(s >= -1e-12 for s in report.slack)
    size3 = [t for t in H.terms if len(t.support) == 3]
    assert size3 and all(t.norm <= math.exp(-6) + 1e-12 for t in size3)


def test_quasilocal_kappa_violation():
    g = build_square_lattice(1, 6)
    H = build_named_hamiltonian("quasilocal", g, {"h": 1.0, "kappa": 2.0, "s_max": 2})
    weak = HamiltonianSpec(H.terms, envelope=(1.0, 1.0), graph=g)
    assert not check_quasilocal(weak).kappa_ok


def test_quasilocal_envelope_violation_reported():
    g = build_square_lattice(1, 4)
    term = HamTerm(frozenset((0, 1)), 2 * math.exp(-4) * np.kron(PAULI["Z"], PAULI["Z"]),
                   2 * math.exp(-4))
    H = HamiltonianSpec((term,), envelope=(1.0, 2.0), graph=g)
    report = check_quasilocal(H)
    assert not report.envelope_ok and report.failures == (0,)
