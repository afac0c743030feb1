"""Forest construction, irreducible paths, and the vanishing property."""

import itertools

import pytest

from opgrowth.causal import (
    ROOT,
    build_causal_forest,
    enumerate_irreducible_paths,
    term_vanishing_check,
)
from opgrowth.cli import check_vanishing
from opgrowth.lattice import build_square_lattice
from opgrowth.operators import build_named_hamiltonian, pauli_operator

CHAIN4 = build_square_lattice(1, 4)
CHAIN5 = build_square_lattice(1, 5)


def test_forest_chain_trace():
    f = build_causal_forest([{0, 1}, {1, 2}, {2, 3}], {0}, [{3}])
    assert f is not None and f.causal
    assert f.parent == {("M", 1): ROOT, ("M", 2): ("M", 1), ("M", 3): ("M", 2),
                        ("S", 0): ("M", 3)}


def test_forest_disconnected_factor_returns_empty():
    assert build_causal_forest([{2, 3}], {0}, [{3}]) is None
    assert build_causal_forest([{0, 1}, {3, 4}], {0}, [{4}]) is None


def test_forest_absorption():
    f = build_causal_forest([{0, 1}], {0, 1}, [{3}])
    assert f is not None
    assert f.parent == {}
    assert not f.causal


def test_absorbed_factor_still_reaches_targets_via_container():
    # {1, 2} attaches and hits S; the duplicate is absorbed with no new node
    f = build_causal_forest([{0, 1}, {1, 2}, {1, 2}], {0}, [{2}])
    assert f is not None and f.causal
    assert f.parent == {("M", 1): ROOT, ("M", 2): ("M", 1), ("S", 0): ("M", 2)}


def test_each_target_attaches_once():
    f = build_causal_forest([{0, 1}, {1, 2}, {2, 3}, {2, 3}], {0}, [{3}])
    assert f is not None
    assert sum(1 for n in f.parent if n[0] == "S") == 1


def test_direct_leaf_path_length_one():
    f = build_causal_forest([{0, 1}], {0}, [{1}])
    assert f is not None and f.causal
    assert f.parent == {("M", 1): ROOT, ("S", 0): ("M", 1)}


def test_shared_first_factor_on_star():
    # star: center 0 touching arms; one factor covers the center and both arms
    f = build_causal_forest([{0, 1, 2}, {1, 3}, {2, 4}], {0}, [{3}, {4}])
    assert f is not None and f.causal
    assert f.parent == {("M", 1): ROOT, ("M", 2): ("M", 1), ("M", 3): ("M", 1),
                        ("S", 0): ("M", 2), ("S", 1): ("M", 3)}
    assert f.sequence[0] == frozenset({0, 1, 2})


def test_forest_input_validation():
    with pytest.raises(ValueError):
        build_causal_forest([{0, 1}], {0}, [{0}])
    with pytest.raises(ValueError):
        build_causal_forest([{0, 1}], {0}, [{1}, {1, 2}])


def test_enumerate_paths_chain_example():
    H = build_named_hamiltonian("random2local", CHAIN4, {"seed": 3})
    gH = H.factor_graph()
    norms = {k: H.terms[k].norm for k in range(len(H.terms))}
    paths = enumerate_irreducible_paths(gH, {0, 1}, {3}, {2, 3}, 2, norms=norms)
    assert len(paths) == 1
    assert paths[0].factors == (frozenset({1, 2}), frozenset({2, 3}))
    assert paths[0].weight == pytest.approx(H.terms[1].norm * H.terms[2].norm)


def test_enumerate_paths_unreachable_and_short_cap():
    H = build_named_hamiltonian("random2local", CHAIN4, {"seed": 3})
    gH = H.factor_graph()
    assert enumerate_irreducible_paths(gH, {0, 1}, {3}, {3}, 3) == []
    assert enumerate_irreducible_paths(gH, {0}, {3}, {1, 2, 3}, 2) == []


def test_enumerate_paths_count_cap():
    from opgrowth.errors import CapExceededError
    from opgrowth.lattice import build_square_lattice

    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.5})
    gH = H.factor_graph()
    with pytest.raises(CapExceededError):
        enumerate_irreducible_paths(gH, {0}, {15}, set(range(1, 16)), 15, cap=5)


def test_enumerate_paths_naive_oracle():
    g = build_square_lattice(2, 3)
    H = build_named_hamiltonian("random2local", g, {"seed": 9})
    gH = H.factor_graph()
    R = {0, 1, 2}
    S = {7}
    B = {6, 7, 8}
    for max_len in (1, 2, 3):
        fast = {p.factor_ids for p in enumerate_irreducible_paths(gH, R, S, B, max_len)}
        slow = set(_naive_paths(gH, R, S, B, max_len))
        assert fast == slow


def _naive_paths(g, R, S, B, max_len):
    n = len(g.factors)
    out = []
    for length in range(1, max_len + 1):
        for ids in itertools.product(range(n), repeat=length):
            if len(set(ids)) != length:
                continue
            sets = [g.factors[i] for i in ids]
            if not sets[0] & R or not sets[-1] & S:
                continue
            if any(not x & B for x in sets):
                continue
            if any(not sets[i] & sets[i + 1] for i in range(length - 1)):
                continue
            out.append(tuple(ids))
    return out


def test_vanishing_property_exhaustive_short():
    # criterion 2's check on another random model
    result = check_vanishing(7)
    assert result["passed"] and result["sequences_checked"] > 0, result


def test_causal_sequence_gives_nonzero_term():
    H = build_named_hamiltonian("random2local", CHAIN4, {"seed": 1})
    gH = H.factor_graph()
    A = pauli_operator("Z", (0,))
    O1 = pauli_operator("X", (3,))
    forest, norm = term_vanishing_check(gH, H, (0, 1, 2), {0}, [{3}], A, [O1])
    assert forest is not None and forest.causal
    assert norm > 1e-8


def test_forest_and_path_json():
    f = build_causal_forest([{0, 1}, {1, 2}, {2, 3}], {0}, [{3}])
    assert f.causal is True
    assert f.parent[("S", 0)] == ("M", 3)
    chain, node = [], f.parent[("S", 0)]
    while node != ROOT:
        chain.append(f.sequence[node[1] - 1])
        node = f.parent[node]
    assert chain[::-1] == [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]


def test_sequences_missing_target_factors_vanish():
    H = build_named_hamiltonian("random2local", CHAIN5, {"seed": 7})
    gH = H.factor_graph()
    A = pauli_operator("Z", (0,))
    O1 = pauli_operator("X", (4,))
    # no factor in the sequence touches site 4
    forest, norm = term_vanishing_check(gH, H, (0, 1, 2), {0}, [{4}], A, [O1])
    assert norm <= 1e-12
    assert forest is None or not forest.causal


def test_term_vanishing_check_rejects_probe_off_the_register():
    H = build_named_hamiltonian("tfim", CHAIN4, {"g": 1.0})
    A = pauli_operator("Z", (0,))
    with pytest.raises(ValueError, match=r"probe sites \[7\]"):
        term_vanishing_check(H.factor_graph(), H, (0,), {0}, [{3}], A,
                             [pauli_operator("X", (7,))])


def test_term_vanishing_check_cap(trips_before_allocating):
    # 13 sites, one over the cap: refused before any dense 2^13 x 2^13 operator
    H = build_named_hamiltonian("tfim", build_square_lattice(1, 13), {"g": 1.0})
    gH = H.factor_graph()
    A = pauli_operator("Z", (0,))
    O1 = pauli_operator("X", (12,))
    trips_before_allocating(lambda: term_vanishing_check(gH, H, (0, 1), {0}, [{12}], A, [O1]))
