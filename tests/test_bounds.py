"""Closed-form bound evaluators: worked values, windows, and identities."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from opgrowth.bounds import (
    BoundParams,
    combinatorial_bound,
    matrix_exp_bound,
    path_sum_bound,
    quasilocal_nested_bound,
    quasilocal_pair_bound,
    truncation_error_bound,
    verify_reproducing,
    volume_bound,
)
from opgrowth.errors import ValidityWindowError
from opgrowth.lattice import build_square_lattice
from opgrowth.operators import (
    HamTerm,
    HamiltonianSpec,
    PAULI,
    build_named_hamiltonian,
)


def weak_link_chain(eps: float, h: float = 1.0) -> tuple:
    """Four sites, outer couplings h, middle coupling eps*h."""
    g = build_square_lattice(1, 4)
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    terms = (
        HamTerm(frozenset({0, 1}), h * zz, h),
        HamTerm(frozenset({1, 2}), eps * h * zz, eps * h),
        HamTerm(frozenset({2, 3}), h * zz, h),
    )
    return g, HamiltonianSpec(terms, graph=g)


def test_path_sum_weak_link_worked_value():
    eps, h, t = 0.01, 1.0, 1.0
    g, H = weak_link_chain(eps, h)
    val = path_sum_bound(g, H, {0}, [{3}], [{1, 2, 3}], t)
    # the only path has length 3 and weight eps*h**3; doubling gives the
    # plain commutator-norm version of the bound
    assert val == pytest.approx(eps * (2 * h * t) ** 3 / 6, rel=1e-12)
    assert 2 * val == pytest.approx(0.0266666666, rel=1e-6)


def test_path_sum_trivial_cases():
    g, H = weak_link_chain(0.5)
    # no path reaching an unreachable target: bound collapses to zero
    assert path_sum_bound(g, H, {0}, [{3}], [{3}], 0.7) == 0.0
    # single straddling factor of weight h: one length-1 path, value 2*t*h
    val = path_sum_bound(g, H, {0}, [{1}], [{1}], 0.3)
    assert val == pytest.approx(2 * 0.3 * 1.0, rel=1e-12)


def test_path_sum_rejects_coupled_regions():
    g, H = weak_link_chain(0.5)
    with pytest.raises(ValueError):
        path_sum_bound(g, H, {0}, [{1}, {3}], [{1, 2}, {2, 3}], 0.1)


def test_combinatorial_bound_worked_value():
    params = BoundParams(term_norm_max=1.0, degree=4)
    val = combinatorial_bound(params, [(20, 1, 5)], 0.1)
    assert val == pytest.approx(20 * (0.8 * math.e / 5) ** 5, rel=1e-12)
    assert val == pytest.approx(0.31099, rel=1e-3)


def test_combinatorial_bound_window():
    params = BoundParams(term_norm_max=1.0, degree=4)
    assert combinatorial_bound(params, [(20, 1, 5)], 0.0) == 0.0
    with pytest.raises(ValidityWindowError):
        combinatorial_bound(params, [(20, 1, 5)], 5 / (2 * 1 * 4))


def test_matrix_exp_bound_zero_cases():
    # S strictly inside B so the two boundaries are disjoint
    g = build_square_lattice(1, 6)
    empty = HamiltonianSpec((), graph=g)
    pairs = [({1, 2, 3, 4}, {2, 3})]
    assert matrix_exp_bound(g, empty, pairs, 0.3) == pytest.approx(0.0, abs=1e-12)
    H = build_named_hamiltonian("tfim", g, {"J": 1, "g": 0.4})
    assert matrix_exp_bound(g, H, pairs, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_matrix_exp_bound_vs_taylor_oracle():
    g = build_square_lattice(1, 6)
    H = build_named_hamiltonian("tfim", g, {"J": 1, "g": 0.4})
    t = 0.3
    # independent series oracle for exp(2t W)
    W = np.zeros((6, 6))
    for term in H.terms:
        sup = sorted(term.support)
        if len(sup) == 2:
            W[sup[0], sup[1]] += term.norm
            W[sup[1], sup[0]] += term.norm
    series = np.zeros_like(W)
    power = np.eye(6)
    for k in range(60):
        series += power
        power = power @ W * (2 * t) / (k + 1)
    B, S = {2, 3}, {3}
    dB = [2, 3]
    dS = [3]
    expected = sum(series[u, v] for u in dB for v in dS)
    got = matrix_exp_bound(g, H, [(B, S)], t)
    assert got == pytest.approx(expected, abs=1e-10)


def test_volume_bound_examples():
    params = BoundParams(prefactor=2.0, lr_velocity=1.0, volume_decay=1.0, dimension=2)
    # exponent vanishes as R approaches the light cone
    assert volume_bound(params, 1.5 + 1e-9, 1.5) == pytest.approx(2.0, rel=1e-6)
    # d = 1 reduces to the classic exponential form
    p1 = BoundParams(prefactor=1.0, lr_velocity=1.0, volume_decay=0.7, dimension=1)
    assert volume_bound(p1, 4.0, 1.5) == pytest.approx(math.exp(-0.7 * 2.5), rel=1e-12)
    # doubling the distance outside the cone quadruples the deficit in d=2
    base = -math.log(volume_bound(params, 2.5, 1.5) / 2.0)
    far = -math.log(volume_bound(params, 3.5, 1.5) / 2.0)
    assert far == pytest.approx(4 * base, rel=1e-9)


def test_volume_bound_windows():
    params = BoundParams(lr_velocity=1.0)
    with pytest.raises(ValidityWindowError):
        volume_bound(params, 5.0, 0.5)  # vt <= 1
    with pytest.raises(ValidityWindowError):
        volume_bound(params, 1.0, 1.5)  # R <= vt


def test_quasilocal_pair_bound_values():
    params = BoundParams(prefactor=1.0, decay_rate=1.0, lr_velocity=1.0)
    assert quasilocal_pair_bound(params, 1, 1, 3, 0.0) == 0.0
    val = quasilocal_pair_bound(params, 1, 1, 3, 1.0)
    assert val == pytest.approx(math.exp(-3) * (math.e - 1), rel=1e-12)
    assert quasilocal_pair_bound(params, 1, 1, 8, 1.0) < val


def test_quasilocal_pair_monotone_in_distance():
    params = BoundParams(prefactor=1.0, decay_rate=0.8, lr_velocity=1.3)
    vals = [quasilocal_pair_bound(params, 2, 1, d, 0.7) for d in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def nested_params(d: int = 1, chi: float = 6.0, kappa: float = 2.0) -> BoundParams:
    return BoundParams(
        term_norm_max=1.0, tail_norm=1.5, decay_rate=1.0, lr_velocity=1.0,
        kappa=kappa, box_margin=chi, dimension=d)


def test_quasilocal_nested_bound_m1_and_scaling():
    params = nested_params()
    regions = [(2.0, 1.0, 4.0)]
    val = quasilocal_nested_bound(params, regions, 0.5)
    mu_v_t = params.decay_rate * params.coupled_velocity * 0.5
    want = mu_v_t * 2.0 * 1.0 * params.tail_ratio * math.exp(1.0 * (0.5 - 4.0))
    assert val == pytest.approx(want, rel=1e-12)


def test_quasilocal_nested_bound_small_t_linear():
    params = nested_params()
    regions = [(2.0, 1.0, 4.0), (2.0, 1.0, 5.0)]
    v1 = quasilocal_nested_bound(params, regions, 1e-7)
    v2 = quasilocal_nested_bound(params, regions, 2e-7)
    assert v2 / v1 == pytest.approx(2.0, rel=1e-4)  # leading behavior linear in t


def test_quasilocal_nested_bound_hypothesis_violation():
    params = nested_params(chi=1.0)
    with pytest.raises(ValidityWindowError):
        quasilocal_nested_bound(params, [(1.0, 1.0, 2.0)], 0.3)
    with pytest.raises(ValidityWindowError):
        quasilocal_nested_bound(nested_params(kappa=9.0), [(1.0, 1.0, 2.0)], 0.3)


def test_verify_reproducing_chain_fixture_and_stability():
    g20 = build_square_lattice(1, 20)
    K20 = verify_reproducing(g20, 1.0, 2.0)
    assert K20 == pytest.approx(4.73304598411385, rel=1e-9)
    K40 = verify_reproducing(build_square_lattice(1, 40), 1.0, 2.0)
    assert abs(K40 - K20) / K20 < 0.10


def test_verify_reproducing_no_intermediate_vertex():
    g = build_square_lattice(1, 2)
    assert verify_reproducing(g, 1.0, 2.0) == 0.0


def test_factor_tail_sum():
    # the total norm of the terms holding both u and v stays under the tail-sum
    # envelope h' exp(-mu d)/d^alpha of the fitted constants
    g = build_square_lattice(1, 6)
    Hq = build_named_hamiltonian("quasilocal", g, {"h": 1.0, "kappa": 2.0, "s_max": 4})
    alpha = 2.0
    params = BoundParams.quasilocal_model(g, 1.0, 2.0, alpha=alpha)
    for (u, v) in ((0, 2), (0, 3), (1, 4), (0, 5)):
        dist = abs(u - v)
        envelope = params.tail_norm * math.exp(-params.decay_rate * dist) / dist**alpha
        assert sum(t.norm for t in Hq.terms if {u, v} <= t.support) <= envelope + 1e-12


def test_truncation_error_bound():
    params = BoundParams(decay_rate=1.0, lr_velocity=1.0, sim_prefactor=1.0,
                         sim_decay=1.0, box_offset=1e-12, dimension=2)
    val = truncation_error_bound(params, 1.0, 8)
    assert val == pytest.approx(math.exp(4 - 8), rel=1e-6)
    vals = [truncation_error_bound(params, 1.0, M) for M in range(1, 30, 3)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # d=1: exponent does not feel the light-cone denominator
    p1 = BoundParams(decay_rate=1.0, lr_velocity=1.0, sim_prefactor=1.0,
                     sim_decay=1.0, box_offset=5.0, dimension=1)
    assert truncation_error_bound(p1, 1.0, 8) == pytest.approx(math.exp(4 - 8), rel=1e-12)


def test_simplex_volume_identity():
    # independent oracle: nested Gauss-Legendre quadrature over the ordered cell
    xs, ws = leggauss(5)

    def volume(k, upper):
        if k == 0:
            return 1.0
        nodes = 0.5 * upper * (xs + 1)
        weights = 0.5 * upper * ws
        return float(sum(w * volume(k - 1, x) for w, x in zip(weights, nodes)))

    for n in range(1, 7):
        for t in (0.5, 1.0, 1.7):
            assert volume(n, t) == pytest.approx(t**n / math.factorial(n), rel=1e-8)


def test_hockey_stick_identity():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert sum(math.comb(m, k) for m in range(k, n + 1)) == math.comb(n + 1, k + 1)


def test_volume_bound_d1_matches_pair_bound_decay_rate():
    # with matched constants the two bounds decay at the same exponential
    # rate in distance; only prefactors differ
    mu = 0.9
    params = BoundParams(prefactor=1.0, decay_rate=mu, lr_velocity=1.0,
                         volume_decay=mu, dimension=1)
    t = 1.5
    slopes_vol = []
    slopes_pair = []
    for R in (3.0, 4.0, 5.0):
        slopes_vol.append(math.log(
            volume_bound(params, R, t) / volume_bound(params, R + 1, t)))
        slopes_pair.append(math.log(
            quasilocal_pair_bound(params, 1, 1, R, t)
            / quasilocal_pair_bound(params, 1, 1, R + 1, t)))
    for sv, sp in zip(slopes_vol, slopes_pair):
        assert sv == pytest.approx(mu, rel=1e-9)
        assert sp == pytest.approx(mu, rel=1e-9)


def test_quasilocal_model_constants():
    g = build_square_lattice(1, 12)
    params = BoundParams.quasilocal_model(g, 1.0, 2.5)
    assert params.decay_rate > 0 and params.tail_norm >= 1.0
    # K is measured on the graph with the default alpha = d + 1
    K = max(verify_reproducing(g, params.decay_rate, 2), 1.0)
    assert params.lr_velocity == pytest.approx(2 * K * params.tail_norm / params.decay_rate)
    assert params.prefactor == pytest.approx(1 / K)
    with pytest.raises(ValidityWindowError):
        BoundParams.quasilocal_model(g, 1.0, 1.0)  # kappa below 1 + log(degree)


def test_local_model_velocity():
    params = BoundParams.local_model(h=0.5, degree=4, dimension=2)
    assert params.lr_velocity == pytest.approx(2 * math.e * 0.5 * 4)


def test_bound_chain_on_sampled_instances():
    # inside the counting window: path_sum <= combinatorial and
    # path_sum <= matrix-exponential relaxation
    from opgrowth.lattice import ball_and_boundary, boundary_size, factor_distance

    rng = np.random.default_rng(31)
    for L in (6, 8, 10):
        g = build_square_lattice(1, L)
        H = build_named_hamiltonian("tfim", g, {
            "J": float(rng.uniform(0.5, 1.5)), "g": float(rng.uniform(0.2, 1.0))})
        s = L - 2
        B, _ = ball_and_boundary(g, s, 1)
        R = set(g.vertices) - set(B)
        degree = H.factor_graph().degree_bound
        h = max(t.norm for t in H.terms if t.support & B)
        r = factor_distance(g, R, {s})
        t = 0.5 * r / (2 * h * degree)
        ps = path_sum_bound(g, H, R, [{s}], [B], t)
        params = BoundParams(term_norm_max=h, degree=degree, dimension=1)
        comb = combinatorial_bound(params, [(boundary_size(g, B), 1, r)], t)
        me = matrix_exp_bound(g, H, [(B, {s})], t)
        assert 0 < ps <= comb + 1e-12
        assert ps <= me + 1e-12


def test_path_sum_dominates_randomized_operator_search():
    # the bound covers the sup over probe and observable choices; approximate
    # the sup by random draws on one fixed geometry
    from opgrowth.lattice import ball_and_boundary
    from opgrowth.operators import LocalOperator, nested_commutator_norm

    g = build_square_lattice(1, 7)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.9})
    B, _ = ball_and_boundary(g, 5, 1)
    R = set(g.vertices) - set(B)
    t = 0.12
    bound = path_sum_bound(g, H, R, [{5}], [B], t)
    rng = np.random.default_rng(17)
    best = 0.0
    for _ in range(20):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        go = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = LocalOperator((int(rng.integers(0, 4)),), (ga + ga.conj().T) / np.linalg.norm(ga + ga.conj().T, 2))
        O = LocalOperator((5,), (go + go.conj().T) / np.linalg.norm(go + go.conj().T, 2))
        best = max(best, nested_commutator_norm(H, A, [O], t, tuple(g.vertices)))
    assert 0 < best <= bound
