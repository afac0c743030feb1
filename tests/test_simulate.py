"""Cluster-expansion simulator: planning, corrections, completeness, decay."""

import csv
import dataclasses
import itertools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgrowth.bounds import BoundParams
from opgrowth.cli import brute_connected_subsets, main
from opgrowth.errors import ValidityWindowError
from opgrowth.lattice import (
    build_rectangular_lattice,
    build_square_lattice,
    enumerate_connected_subsets,
    hop_distances,
    is_connected,
    tile_boxes,
)
from opgrowth.operators import (
    HamTerm,
    HamiltonianSpec,
    LocalOperator,
    PAULI,
    build_named_hamiltonian,
    embed,
    exact_expectation,
    heisenberg_evolve,
    pauli_operator,
)
from opgrowth.simulate import (
    ComponentClasses,
    SimPlan,
    cluster_correction,
    inclusion_exclusion,
    operator_piece,
    plan,
    cluster_region,
    raw_cluster_expectation,
    simulate_expectation,
)
from opgrowth.states import ProductState

CHAIN6 = build_square_lattice(1, 6)
TFIM6 = build_named_hamiltonian("tfim", CHAIN6, {"J": 1.0, "g": 0.9})
ZERO = ProductState.all_zero()


PAPER_PARAMS = BoundParams(decay_rate=1.0, lr_velocity=1.0, sim_prefactor=1.0,
                           box_offset=0.0, dimension=1)


def test_plan_formula_value():
    # choose eps with log(2 c_d / eps) = 4, and t giving r = 4
    eps = 2 * math.exp(-4.0)
    p = plan(PAPER_PARAMS, 1.0, eps, CHAIN6)
    assert p.r == 4
    assert p.m_star == int(27 * 4 / 4) + 27 + 1 == 55
    assert p.tiling == tile_boxes(CHAIN6, 4, 0)


def test_plan_large_epsilon_floor():
    p = plan(PAPER_PARAMS, 1.0, 10.0, CHAIN6)
    assert p.m_star == 27 + 1


def test_plan_sizes_boxes_from_the_magnitude_of_t():
    # r = ceil(4(v|t| + c)): a backward evolution reaches as far as a forward one
    params = dataclasses.replace(PAPER_PARAMS, box_offset=1e-9)
    chain = build_square_lattice(1, 10)
    for t in (0.3, 0.8):
        forward, backward = plan(params, t, 0.05, chain), plan(params, -t, 0.05, chain)
        assert (forward.r, forward.m_star) == (backward.r, backward.m_star)
        assert forward.tiling == backward.tiling
    assert plan(params, -0.3, 0.05, chain).r == 2


def test_plan_refuses_a_target_error_that_is_not_positive():
    with pytest.raises(ValidityWindowError):
        plan(PAPER_PARAMS, 0.5, -1.0, CHAIN6)


def test_plan_desk_passthrough_and_errors():
    p = SimPlan.tiled(CHAIN6, 2, 3)
    assert (p.r, p.m_star) == (2, 3)
    assert p.tiling == tile_boxes(CHAIN6, 2, 0)
    for r, m_star in ((0, 3), (2, 0)):
        with pytest.raises(ValueError):
            SimPlan.tiled(CHAIN6, r, m_star)


def test_plan_clamps_oversized_boxes(caplog):
    with caplog.at_level(logging.WARNING, logger="opgrowth.simulate"):
        p = SimPlan.tiled(CHAIN6, 50, 2)
    assert p.r == 6
    assert "clamping" in caplog.text


def test_raw_cluster_rabi():
    g2 = build_square_lattice(1, 2)
    Hx = HamiltonianSpec((HamTerm(frozenset((0,)), PAULI["X"], 1.0),), graph=g2)
    tiling = tile_boxes(g2, 1, 0)
    val = raw_cluster_expectation(Hx, pauli_operator("Z", (0,)), ZERO, ((0,),), tiling, 0.7)
    assert val == pytest.approx(math.cos(1.4), abs=1e-10)
    assert val == pytest.approx(
        exact_expectation(Hx, pauli_operator("Z", (0,)), ZERO, 0.7, region=(0,)), abs=1e-12)


def test_raw_cluster_t0_is_marginal_expectation():
    tiling = tile_boxes(CHAIN6, 3, 0)
    val = raw_cluster_expectation(TFIM6, pauli_operator("Z", (0,)), ZERO, ((0,),), tiling, 0.0)
    assert val == pytest.approx(1.0)


def test_raw_cluster_constant_when_no_terms_inside():
    g4 = build_square_lattice(1, 4)
    # single term outside the anchor box keeps the observable frozen
    far = HamiltonianSpec((HamTerm(frozenset({2, 3}), np.kron(PAULI["Z"], PAULI["Z"]), 1.0),),
                          graph=g4)
    tiling = tile_boxes(g4, 2, 0)
    vals = {t: raw_cluster_expectation(far, pauli_operator("X", (0,)), ProductState.all_plus(range(4)),
                                       ((0,),), tiling, t) for t in (0.0, 0.5, 2.0)}
    assert all(v == pytest.approx(vals[0.0], abs=1e-12) for v in vals.values())


def test_raw_cluster_cap(trips_before_allocating):
    # r=3 on 5x5: boxes of 9, 6, 6 and 4 sites; three of them make 21 qubits, one over the cap
    g = build_square_lattice(2, 5)
    H = build_named_hamiltonian("tfim", g, {"g": 0.9})
    tiling = tile_boxes(g, 3, 0)
    cluster = ((0, 0), (0, 1), (1, 0))
    trips_before_allocating(lambda: raw_cluster_expectation(
        H, pauli_operator("Z", (0,)), ZERO, cluster, tiling, 0.1))


def _proper_subclusters(cluster, adjacency, anchor):
    """Brute force: the cluster's connected proper subsets that keep the anchor, sorted."""
    local = {b: [nb for nb in adjacency[b] if nb in cluster] for b in cluster}
    return sorted(brute_connected_subsets(local, anchor, len(cluster) - 1))


def test_anchored_subclusters_restrict_to_connected():
    # enumerated on a cluster's own adjacency: the linear three-box cluster follows its
    # anchored sub-clusters, without the disconnected {b0, b2}; {b0, b2} itself is missing
    adjacency = tile_boxes(build_square_lattice(1, 6), 2, 0).adjacency
    local = {b: [nb for nb in adjacency[b] if nb in ((0,), (1,), (2,))] for b in adjacency}
    assert enumerate_connected_subsets(local, (0,), 3) == [((0,),), ((0,), (1,)),
                                                           ((0,), (1,), (2,))]
    assert _proper_subclusters(((0,), (1,), (2,)), adjacency, (0,)) == [((0,),), ((0,), (1,))]
    local = {b: [nb for nb in adjacency[b] if nb in ((0,), (2,))] for b in ((0,), (2,))}
    assert enumerate_connected_subsets(local, (0,), 2) == [((0,),)]
    # 2D boxes have up to four coarse neighbours: check against brute force
    for anchor_vertex in (0, 5):
        tiling = tile_boxes(build_square_lattice(2, 4), 1, anchor_vertex)
        anchor = tiling.anchor_box
        for cluster in enumerate_connected_subsets(tiling.adjacency, tiling.anchor_box, 4):
            local = {b: [nb for nb in tiling.adjacency[b] if nb in cluster] for b in cluster}
            found = enumerate_connected_subsets(local, anchor, len(cluster))
            assert found[-1] == cluster
            assert sorted(found[:-1]) == _proper_subclusters(cluster, tiling.adjacency, anchor)


def test_inclusion_exclusion_reads_subclusters_off_the_table(monkeypatch):
    import opgrowth.simulate as simulate_mod

    tiling = tile_boxes(build_square_lattice(2, 4), 1, 5)
    clusters = enumerate_connected_subsets(tiling.adjacency, tiling.anchor_box, 5)
    rng = np.random.default_rng(11)
    raw = {cluster: rng.normal(size=3) for cluster in clusters}
    handed = {}

    def recording(raw, corrected, cluster, subclusters):
        handed[cluster] = subclusters
        return cluster_correction(raw, corrected, cluster, subclusters)

    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_connected_subsets(*args)

    monkeypatch.setattr(simulate_mod, "enumerate_connected_subsets", counting)
    corrected = inclusion_exclusion(raw, recording)
    assert calls == []
    monkeypatch.undo()
    # the brute-force sub-clusters, in their order, so the corrected values are bit-identical
    reference: dict = {}
    for cluster in clusters:
        subs = _proper_subclusters(cluster, tiling.adjacency, tiling.anchor_box)
        assert handed[cluster] == subs, cluster
        reference[cluster] = cluster_correction(raw, reference, cluster, subs)
        assert np.array_equal(corrected[cluster], reference[cluster]), cluster


def _correct(raw, corrected, cluster):
    adjacency = tile_boxes(build_square_lattice(1, 6), 2, 0).adjacency
    subclusters = _proper_subclusters(cluster, adjacency, (0,))
    return cluster_correction(raw, corrected, cluster, subclusters)


def test_cluster_correction_examples():
    raw, corrected = {}, {}
    raw[((0,),)] = 0.6
    corrected[((0,),)] = _correct(raw, corrected, ((0,),))
    assert corrected[((0,),)] == 0.6  # singleton: corrected equals raw
    raw[((0,), (1,))] = 0.5
    corrected[((0,), (1,))] = _correct(raw, corrected, ((0,), (1,)))
    assert corrected[((0,), (1,))] == pytest.approx(-0.1)
    raw[((0,), (1,), (2,))] = 0.45
    val = _correct(raw, corrected, ((0,), (1,), (2,)))
    assert val == pytest.approx(0.45 - 0.6 - (-0.1))


def test_cluster_correction_missing_dependency():
    raw = {((0,), (1,)): 0.5}
    with pytest.raises(RuntimeError):
        _correct(raw, {}, ((0,), (1,)))


def test_simulate_t0_exact():
    p = SimPlan.tiled(CHAIN6, 2, 3)
    est, diag = simulate_expectation(TFIM6, pauli_operator("Z", (0,)), ZERO, 0.0, p)
    assert est == pytest.approx(1.0, abs=1e-10)
    assert all(abs(s) < 1e-10 for s in diag["level_sums"][1:])


def test_simulate_anchor_support_check():
    p = SimPlan.tiled(CHAIN6, 2, 2)
    with pytest.raises(ValueError):
        simulate_expectation(TFIM6, pauli_operator("Z", (3,)), ZERO, 0.4, p)


def test_simulate_converges_to_exact():
    p = SimPlan.tiled(CHAIN6, 2, 3)
    est, diag = simulate_expectation(TFIM6, pauli_operator("Z", (0,)), ZERO, 0.6, p)
    exact = exact_expectation(TFIM6, pauli_operator("Z", (0,)), ZERO, 0.6)
    errors = [abs(r - exact) for r in diag["running_estimates"]]
    assert errors[-1] < 1e-12  # m_star covers the whole chain
    assert errors[0] > errors[-1]


@st.composite
def small_lattices(draw):
    """A chain or a two- or three-row rectangle of at most 10 qubits."""
    if draw(st.booleans()):
        return build_square_lattice(1, draw(st.integers(2, 10)))
    rows = draw(st.integers(2, 3))
    return build_rectangular_lattice((rows, draw(st.integers(2, 10 // rows))))


@settings(max_examples=20, deadline=5000, derandomize=True)
@given(g=small_lattices(), data=st.data())
def test_simulate_at_full_cutoff_equals_exact(g, data):
    # with m_star = number of boxes every anchored cluster is summed, so the
    # inclusion-exclusion telescopes to the full-lattice evolution
    model = data.draw(st.sampled_from(["tfim", "random2local"]))
    params = {"g": 0.9} if model == "tfim" else {"seed": data.draw(st.integers(0, 99))}
    H = build_named_hamiltonian(model, g, params)
    state = data.draw(st.sampled_from(
        [ProductState.all_zero(), ProductState.all_plus(g.vertices)]))
    anchor = data.draw(st.sampled_from(g.vertices))
    A = pauli_operator(data.draw(st.sampled_from("XYZ")), (anchor,))
    r = data.draw(st.integers(1, 2))
    boxes = sorted(tile_boxes(g, r, anchor).box_vertices)
    p = SimPlan.tiled(g, r, len(boxes), anchor)
    grid = [data.draw(st.floats(0.0, 1.0)) for _ in range(2)]
    results = simulate_expectation(H, A, state, grid, p)
    exact = exact_expectation(H, A, state, grid)
    for (est, _), value in zip(results, exact):
        assert abs(est - value) <= 1e-12


def test_simulate_anchor_only_hamiltonian():
    # all terms inside the anchor box: every larger cluster contributes zero
    g4 = build_square_lattice(1, 4)
    inner = HamiltonianSpec(
        (HamTerm(frozenset({0, 1}), np.kron(PAULI["Z"], PAULI["X"]), 1.0),), graph=g4)
    p = SimPlan.tiled(g4, 2, 2)
    est, diag = simulate_expectation(inner, pauli_operator("Z", (0,)), ZERO, 0.8, p)
    tiling = p.tiling
    single = raw_cluster_expectation(inner, pauli_operator("Z", (0,)), ZERO,
                                     (tiling.anchor_box,), tiling, 0.8)
    assert est == pytest.approx(single, abs=1e-12)
    assert abs(diag["level_sums"][1]) < 1e-12


def test_simulate_2d_converges_to_oracle():
    # four boxes, each joined to two others: 2d correction sums
    g = build_square_lattice(2, 3)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.8})
    A = pauli_operator("Z", (0,))
    p = SimPlan.tiled(g, 2, 4, 0)
    assert len(p.tiling.box_vertices) == 4
    est, diag = simulate_expectation(H, A, ZERO, 0.5, p)
    exact = exact_expectation(H, A, ZERO, 0.5)
    errors = [abs(r - exact) for r in diag["running_estimates"]]
    assert errors[-1] < 1e-10
    assert errors[0] > 1e-4  # level 1 alone is genuinely off


def _coordinate_tiling(tiling):
    """The tiling with boxes joined when their coordinates differ by at most one on every axis."""
    boxes = sorted(tiling.box_vertices)
    return dataclasses.replace(tiling, adjacency={
        b: tuple(nb for nb in boxes if nb != b and all(abs(x - y) <= 1 for x, y in zip(b, nb)))
        for b in boxes})


@pytest.mark.parametrize("r, m_star", [(2, 4), (1, 6)])
def test_clusters_not_joined_by_factors_contribute_zero(r, m_star):
    # the coordinate rule also joins boxes that share only a corner; re-summed over
    # its clusters, evaluated on their whole regions, the ones no factor joins cancel.
    # Each region is evolved on its own, so they cancel to rounding: 2.8e-15 at most,
    # and the diagonal pair's operator piece to 6.4e-15
    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.8})
    A = pauli_operator("Z", (0,))
    p = SimPlan.tiled(g, r, m_star)
    estimate, _ = simulate_expectation(H, A, ZERO, 0.6, p)
    coordinate = _coordinate_tiling(p.tiling)
    clusters = enumerate_connected_subsets(coordinate.adjacency, coordinate.anchor_box, m_star)
    raw = {c: exact_expectation(H, A, ZERO, 0.6, region=cluster_region(coordinate, c))
           for c in clusters}
    corrected = inclusion_exclusion(raw)
    unjoined = [c for c in clusters if not is_connected(p.tiling.adjacency, c)]
    assert unjoined
    assert max(abs(corrected[c]) for c in unjoined) <= 1e-14
    assert abs(sum(corrected.values()) - estimate) <= 1e-12
    piece = operator_piece(H, A, ((0, 0), (1, 1)), coordinate, 0.6)  # the diagonal pair
    assert np.max(np.abs(piece.matrix)) <= 1e-13


def test_periodic_ring_simulate_converges(tmp_path):
    # boxes are joined across the wrap, so the levels converge to the ring's value,
    # not the open chain's
    config = {"command": "simulate", "seed": 7, "lattice": {"d": 1, "L": 12, "periodic": True},
              "model": {"name": "tfim", "J": 1.0, "g": 1.05}, "state": {"kind": "zero"},
              "observable": {"pauli": "Z", "sites": [0]}, "plan": {"r": 1, "m_star": 7},
              "t_grid": [1.0], "oracle": True}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "results.csv") as fh:
        errors = [float(row["error"]) for row in csv.DictReader(fh)]
    assert len(errors) == 7
    assert errors[-1] <= 1e-5
    assert errors[4] > errors[5] > errors[6]  # levels 5, 6, 7


def _random_product_state(vertices, rng):
    local = {}
    for v in vertices:
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        local[v] = vec / np.linalg.norm(vec)
    return ProductState(local)


def _joined_by_terms(H, region, support):
    """The sites of ``region`` joined to ``support`` by chains of H's terms inside it."""
    adjacency = {v: set() for v in region}
    for term in [t for t in H.terms if t.support <= set(region)]:
        for v in term.support:
            adjacency[v] |= term.support
    return tuple(sorted(dict(hop_distances(adjacency, support))))


@pytest.mark.parametrize("model, params", [("random2local", {"seed": 3}),
                                           ("quasilocal", {"s_max": 3, "seed": 4})])
def test_component_evaluation_matches_full_region(model, params):
    # quasilocal carries three-site terms, some of which leave a cluster region;
    # every factor carries a term, so each region is joined to A by the terms inside it
    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian(model, g, params)
    state = _random_product_state(g.vertices, np.random.default_rng(11))
    A = pauli_operator("Z", (5,))
    grid = [0.4, 1.0]
    p = SimPlan.tiled(g, 1, 5, 5)
    results = simulate_expectation(H, A, state, grid, p)
    full = {}
    for cluster in enumerate_connected_subsets(p.tiling.adjacency, p.tiling.anchor_box, 5):
        region = cluster_region(p.tiling, cluster)
        assert _joined_by_terms(H, region, A.support) == region
        full[cluster] = np.array(exact_expectation(H, A, state, grid, region=region))
        for k, (_, diag) in enumerate(results):
            assert abs(diag["raw"][cluster][k] - full[cluster][k]) <= 1e-12
    corrected = inclusion_exclusion(full)
    for k, (estimate, _) in enumerate(results):
        assert abs(estimate - sum(v[k] for v in corrected.values())) <= 1e-12


@pytest.mark.parametrize("L, r, m_star, clusters, classes", [
    pytest.param(6, 2, 3, 8, 5, id="6-2-3-8-5"),  # the benchmark's sim_2d_tgrid configuration
    pytest.param(4, 1, 7, 369, 71, id="4-1-7-369-71"),
])
def test_component_evaluations_counted_once(monkeypatch, caplog, L, r, m_star, clusters, classes):
    import opgrowth.simulate as simulate_mod

    g = build_square_lattice(2, L)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 1.05})
    A = pauli_operator("Z", (0,))
    regions = []

    def counting_expectation(H, A, state, t, region=None):
        regions.append(region)
        return exact_expectation(H, A, state, t, region=region)

    monkeypatch.setattr(simulate_mod, "exact_expectation", counting_expectation)
    p = SimPlan.tiled(g, r, m_star)
    with caplog.at_level(logging.INFO, logger="opgrowth.simulate"):
        _, diag = simulate_expectation(H, A, ZERO, [0.25, 1.0], p)[0]
    assert len(regions) == len(set(regions)) == classes  # one evaluation per class
    assert diag["running_clusters"][-1] == clusters
    assert diag["running_classes"][-1] == classes
    counts = diag["running_classes"]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert f"{clusters} clusters, {classes} classes evaluated" in caplog.text


GRID3 = build_square_lattice(2, 3)  # site 3x + y at (x, y)


def _pair_model(g, matrix):
    """One ``matrix`` term per pair factor, its first factor on the lower site."""
    return HamiltonianSpec(tuple(HamTerm(X, matrix, float(np.linalg.norm(matrix, 2)))
                                 for X in g.factors if len(X) == 2), graph=g)


def _outward_model(g, centre):
    """X (x) Z on every pair factor, X on the site farther from ``centre``.

    The mirrors of the square about ``centre`` keep it, and some of them
    reverse a bond's site order, so the stored matrix of a term and of its
    image differ: Z (x) X against X (x) Z.
    """
    hops = {v: abs(x - g.coords[centre][0]) + abs(y - g.coords[centre][1])
            for v, (x, y) in g.coords.items()}
    terms = []
    for X in g.factors:
        near, far = sorted(X, key=hops.get)
        bond = LocalOperator((far, near), np.kron(PAULI["X"], PAULI["Z"]))
        terms.append(HamTerm(X, bond.matrix, 1.0))
    return HamiltonianSpec(tuple(terms), graph=g)


def _value_bytes(array):
    return (array + 0.0).tobytes()  # -0.0 + 0.0 is 0.0: equal bytes for equal values


def _described(H, A, state, sites):
    """(ops, vectors): the terms inside ``sites``, then A, and each site's state vector."""
    inside = set(sites)
    ops = [(i, tuple(sorted(t.support)), t.matrix) for i, t in enumerate(H.terms)
           if t.support <= inside]
    return ops + [("A", A.support, A.matrix)], {v: _value_bytes(state.vector_at(v)) for v in sites}


def _relabelled(described, label, cache):
    """The terms, state vectors and observable with the sites renamed by ``label``, as bytes."""
    ops, vectors = described
    moved = []
    for key, support, matrix in ops:
        images = [label[v] for v in support]
        order = tuple(sorted(range(len(images)), key=images.__getitem__))
        if (key, order) not in cache:
            ranks = tuple(sorted(range(len(order)), key=order.__getitem__))
            cache[(key, order)] = _value_bytes(LocalOperator(ranks, matrix).matrix)
        moved.append((tuple(sorted(images)), cache[(key, order)]))
    return (tuple(sorted(moved[:-1])), tuple(vectors[v] for v in sorted(vectors, key=label.get)),
            moved[-1])


def _brute_canonical_form(described, sites, cache):
    """The least relabelled form over all n! namings of the sites by 0..n-1."""
    return min(_relabelled(described, dict(zip(sites, perm)), cache)
               for perm in itertools.permutations(range(len(sites))))


def _state_with_plus_on_first_row(vertices):
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return ProductState({v: plus for v in vertices if v < 3})


CLASS_CASES = {
    "tfim": (build_named_hamiltonian("tfim", GRID3, {"J": 1.0, "g": 0.9}), ("Z", (0,)), None),
    "heisenberg-row-state": (build_named_hamiltonian("heisenberg", GRID3, {"Jz": 0.5}),
                             ("Z", (0,)), _state_with_plus_on_first_row),
    "random2local": (build_named_hamiltonian("random2local", GRID3, {"seed": 2}),
                     ("Z", (0,)), None),
    "quasilocal": (build_named_hamiltonian("quasilocal", GRID3, {"s_max": 3, "seed": 5}),
                   ("Z", (0,)), None),
    "xz-bond": (_pair_model(GRID3, np.kron(PAULI["X"], PAULI["Z"])), ("Z", (0,)), None),
    "tfim-random-state": (build_named_hamiltonian("tfim", GRID3, {"J": 1.0, "g": 0.9}),
                          ("Z", (0,)), lambda vs: _random_product_state(
                              vs, np.random.default_rng(4))),
    "tfim-xz-observable": (build_named_hamiltonian("tfim", GRID3, {"J": 1.0, "g": 0.9}),
                           ("XZ", (0, 1)), None),
    "xz-bond-zz-observable": (_pair_model(GRID3, np.kron(PAULI["X"], PAULI["Z"])),
                              ("ZZ", (1, 3)), None),
    "outward-xz-bond": (_outward_model(GRID3, 4), ("Z", (4,)), None),
}


@pytest.mark.parametrize("case", list(CLASS_CASES))
def test_class_site_map_matches_brute_force(case):
    # components of up to 6 sites are classed together exactly when some naming
    # of their sites makes terms, state and observable equal entry for entry
    H, (letters, sites), make_state = CLASS_CASES[case]
    A = pauli_operator(letters, sites)
    state = make_state(GRID3.vertices) if make_state else ZERO
    adjacency = GRID3.vertex_adjacency()
    components = [c for c in enumerate_connected_subsets(adjacency, sites[0], 6)
                  if set(A.support) <= set(c)]
    cache: dict = {}
    described = {c: _described(H, A, state, c) for c in components}
    forms = {c: _brute_canonical_form(described[c], c, cache) for c in components}
    first = {}
    for c in components:
        first.setdefault(forms[c], c)
    classes = ComponentClasses(H, A, state)
    assert [classes.classify(c) for c in components] == [first[forms[c]] for c in components]
    for c in components:
        for other in components:
            if len(other) != len(c):
                continue
            phi = classes.site_map(c, other)
            assert (phi is not None) == (forms[c] == forms[other])
            if phi is not None:
                assert _relabelled(described[c], phi, cache) == \
                    _relabelled(described[other], {v: v for v in other}, cache)
    # random terms or site vectors leave every component a class of its own
    assert (len(first) == len(components)) == (
        case in ("random2local", "quasilocal", "tfim-random-state"))


@pytest.mark.parametrize("right_letters, merged", [("ZZZYX", True), ("XYZZZ", False)])
def test_class_of_five_site_terms(right_letters, merged):
    # terms past four sites get one coarse view per factor; the map is still checked
    # exactly: a mirror fixing A at 3 carries XYZZZ on 0..4 to ZZZYX on 2..6, and
    # no map fixing 3 carries it to XYZZZ on 2..6, which has Y at 3
    chain = build_square_lattice(1, 7)
    H = HamiltonianSpec(tuple(
        HamTerm(frozenset(sites), pauli_operator(letters, sites).matrix, 1.0)
        for letters, sites in (("XYZZZ", (0, 1, 2, 3, 4)), (right_letters, (2, 3, 4, 5, 6)))),
        graph=chain)
    classes = ComponentClasses(H, pauli_operator("Z", (3,)), ZERO)
    left, right = (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)
    assert classes.classify(left) == left
    assert classes.classify(right) == (left if merged else right)
    phi = classes.site_map(right, left)
    assert (phi is not None) == merged
    if merged:
        assert (phi[6], phi[5], phi[3]) == (0, 1, 3)


@pytest.mark.parametrize("model, params, random_state", [
    ("random2local", {"seed": 7}, False),
    ("tfim", {"J": 1.0, "g": 1.05}, True),
])
def test_class_of_distinct_terms_or_states_is_its_component(model, params, random_state):
    # with every term or every site vector distinct no relabeling fits: each cluster
    # region is its own class and keeps its own evaluation, bit for bit
    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian(model, g, params)
    state = _random_product_state(g.vertices, np.random.default_rng(9)) if random_state else ZERO
    A = pauli_operator("Z", (5,))
    grid = [0.3, 0.8]
    p = SimPlan.tiled(g, 1, 5, 5)
    results = simulate_expectation(H, A, state, grid, p)
    diag = results[0][1]
    assert diag["running_classes"] == diag["running_clusters"]
    for cluster in enumerate_connected_subsets(p.tiling.adjacency, p.tiling.anchor_box, 5):
        own = exact_expectation(H, A, state, grid, region=cluster_region(p.tiling, cluster))
        for k, (_, diag) in enumerate(results):
            assert diag["raw"][cluster][k] == own[k]


def test_class_values_match_per_component_evaluation():
    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 1.05})
    A = pauli_operator("Z", (0,))
    grid = [0.25, 1.0]
    p = SimPlan.tiled(g, 1, 8)
    results = simulate_expectation(H, A, ZERO, grid, p)
    diag = results[-1][1]
    assert (diag["running_clusters"][-1], diag["running_classes"][-1]) == (829, 158)
    raw: dict = {}
    for cluster in enumerate_connected_subsets(p.tiling.adjacency, p.tiling.anchor_box, 8):
        raw[cluster] = np.array(exact_expectation(H, A, ZERO, grid,
                                                  region=cluster_region(p.tiling, cluster)))
        for k, (_, diag) in enumerate(results):
            assert abs(diag["raw"][cluster][k] - raw[cluster][k]) <= 1e-13
    corrected = inclusion_exclusion(raw)
    for k, (estimate, _) in enumerate(results):
        assert abs(estimate - sum(v[k] for v in corrected.values())) <= 1e-11


def test_coarse_graph_enumeration_matches_brute_force():
    tiling = tile_boxes(build_square_lattice(2, 6), 2, 0)  # 3x3 boxes, degree 4
    found = enumerate_connected_subsets(tiling.adjacency, (0, 0), 4)
    assert found == brute_connected_subsets(tiling.adjacency, (0, 0), 4)


def test_simulate_repeat_determinism():
    p = SimPlan.tiled(CHAIN6, 1, 4)
    A = pauli_operator("Z", (0,))
    est1, diag1 = simulate_expectation(TFIM6, A, ZERO, 0.7, p)
    est2, diag2 = simulate_expectation(TFIM6, A, ZERO, 0.7, p)
    assert est1 == est2  # bit identical
    assert diag1["raw"].keys() == diag2["raw"].keys()
    assert all(np.array_equal(diag1["raw"][c], diag2["raw"][c]) for c in diag1["raw"])
    assert diag1["level_sums"] == diag2["level_sums"]


def test_operator_piece_base_case_and_t0():
    tiling = tile_boxes(CHAIN6, 3, 0)
    A = pauli_operator("Z", (0,))
    base = operator_piece(TFIM6, A, ((0,),), tiling, 0.5)
    direct = heisenberg_evolve(TFIM6, A, 0.5, tiling.box_vertices[(0,)])
    assert np.allclose(base.matrix, embed(direct.matrix, direct.support, base.support),
                       atol=1e-12)
    two_box = operator_piece(TFIM6, A, ((0,), (1,)), tiling, 0.0)
    assert np.max(np.abs(two_box.matrix)) <= 1e-12


def test_operator_piece_completeness_three_boxes():
    # r=2 on six sites: sizes 1, 2, 3 evolve in genuinely different regions
    tiling = tile_boxes(CHAIN6, 2, 0)
    A = pauli_operator("Z", (0,))
    region = tuple(range(6))
    for t in (0.4, 1.0):
        full = heisenberg_evolve(TFIM6, A, t, region).matrix
        total = np.zeros_like(full)
        for cluster in enumerate_connected_subsets(tiling.adjacency, tiling.anchor_box, 3):
            piece = operator_piece(TFIM6, A, cluster, tiling, t)
            total += embed(piece.matrix, piece.support, region)
        assert np.linalg.norm(total - full, 2) <= 1e-10


def test_operator_piece_norm_decays_with_cluster_size():
    tiling = tile_boxes(CHAIN6, 1, 0)
    A = pauli_operator("Z", (0,))
    t = 0.35
    norms = []
    for m in range(1, 6):
        cluster = tuple((k,) for k in range(m))
        piece = operator_piece(TFIM6, A, cluster, tiling, t)
        norms.append(float(np.linalg.norm(piece.matrix, 2)))
    assert all(a > b for a, b in zip(norms[1:], norms[2:]))  # decreasing beyond level 2
    logs = np.log(norms[1:])
    slope = np.polyfit(range(len(logs)), logs, 1)[0]
    assert slope < 0


def test_operator_piece_validation():
    tiling = tile_boxes(CHAIN6, 2, 0)
    A = pauli_operator("Z", (0,))
    with pytest.raises(ValueError):
        operator_piece(TFIM6, A, ((1,),), tiling, 0.1)  # anchor missing
    with pytest.raises(ValueError):
        operator_piece(TFIM6, A, ((0,), (2,)), tiling, 0.1)  # disconnected


def test_truncation_error_monotone_above_float_floor():
    g10 = build_square_lattice(1, 10)
    H10 = build_named_hamiltonian("tfim", g10, {"J": 1.0, "g": 1.1})
    A = pauli_operator("Z", (0,))
    p = SimPlan.tiled(g10, 2, 5)
    _, diag = simulate_expectation(H10, A, ZERO, 0.8, p)
    exact = exact_expectation(H10, A, ZERO, 0.8)
    floor = 1e-13
    errors = [max(abs(est - exact), floor) for est in diag["running_estimates"]]
    assert all(a >= b for a, b in zip(errors[1:], errors[2:]))


def test_local_operator_q_in_type():
    # operators act on qubits only: a 3x3 matrix on one site is rejected
    with pytest.raises(ValueError):
        LocalOperator((0,), np.eye(3))


def test_simulate_grid_matches_scalar_calls():
    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.8})
    A = pauli_operator("Z", (0,))
    p = SimPlan.tiled(g, 2, 3)
    grid = [0.6, 0.0, 0.3, 0.6]  # unsorted, repeated point, t = 0
    results = simulate_expectation(H, A, ZERO, grid, p)
    assert len(results) == len(grid)
    for k, (t, (est, diag)) in enumerate(zip(grid, results)):
        est1, diag1 = simulate_expectation(H, A, ZERO, t, p)
        assert est == pytest.approx(est1, abs=1e-12)
        assert diag["running_estimates"] == pytest.approx(diag1["running_estimates"], abs=1e-12)
        assert diag["running_clusters"] == diag1["running_clusters"] == [1, 3, 6]
        for cluster, raw in diag1["raw"].items():
            assert diag["raw"][cluster][k] == pytest.approx(raw[0], abs=1e-12)


def test_grid_resum_keeps_raw_values_and_matches_scalar_resums(monkeypatch):
    import opgrowth.simulate as simulate_mod

    g = build_square_lattice(2, 4)
    H = build_named_hamiltonian("tfim", g, {"J": 1.0, "g": 0.8})
    A = pauli_operator("Z", (0,))
    p = SimPlan.tiled(g, 1, 4)
    listed = []

    def counting_correction(raw, corrected, cluster, subclusters):
        listed.append(cluster)
        return cluster_correction(raw, corrected, cluster, subclusters)

    monkeypatch.setattr(simulate_mod, "cluster_correction", counting_correction)
    grid = [0.9, 0.2, 0.5]
    results = simulate_expectation(H, A, ZERO, grid, p)
    monkeypatch.undo()
    clusters = enumerate_connected_subsets(p.tiling.adjacency, p.tiling.anchor_box, 4)
    assert sorted(listed) == sorted(clusters)  # once per cluster, not once per t
    # each cluster holds, bit for bit, the raw array of the first cluster of its class
    classes = ComponentClasses(H, A, ZERO)
    first: dict = {}
    for cluster in clusters:
        rep = first.setdefault(classes.classify(cluster_region(p.tiling, cluster)), cluster)
        raw = raw_cluster_expectation(H, A, ZERO, rep, p.tiling, grid)
        own = raw_cluster_expectation(H, A, ZERO, cluster, p.tiling, grid)
        for k, (_, diag) in enumerate(results):
            assert diag["raw"][cluster][k] == raw[k]
            assert abs(raw[k] - own[k]) <= 1e-13
    for k, (estimate, diag) in enumerate(results):
        assert diag["raw"] is results[0][1]["raw"]  # one dict for the grid, no per-t copy
        corrected = inclusion_exclusion({c: float(v[k]) for c, v in diag["raw"].items()})
        total = 0.0
        for m, running in enumerate(diag["running_estimates"], start=1):
            level = 0.0
            for cluster in clusters:
                if len(cluster) == m:
                    level += corrected[cluster]
            total += level
            assert running == total
        assert estimate == total


def test_raw_cluster_rejects_stray_imaginary_part():
    tiling = tile_boxes(CHAIN6, 2, 0)
    sigma_plus = LocalOperator((0,), np.array([[0, 1], [0, 0]]))
    assert raw_cluster_expectation(TFIM6, sigma_plus, ZERO, ((0,),), tiling, 0.0) == 0.0
    with pytest.raises(ValueError, match="stray imaginary part"):
        raw_cluster_expectation(TFIM6, sigma_plus, ZERO, ((0,),), tiling, 0.4)
