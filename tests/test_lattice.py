"""Geometry, enumeration and tiling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgrowth.cli import brute_connected_subsets
from opgrowth.errors import CapExceededError
from opgrowth.lattice import (
    ball_and_boundary,
    boundary_size,
    build_rectangular_lattice,
    build_square_lattice,
    enumerate_connected_subsets,
    factor_distance,
    hop_distances,
    is_connected,
    tile_boxes,
)


def test_chain_counts():
    g = build_square_lattice(1, 4)
    assert len(g.vertices) == 4
    assert len(g.factors) == 3


def test_grid_counts():
    g = build_square_lattice(2, 3)
    assert len(g.vertices) == 9
    assert len(g.factors) == 12
    # periodic, with a range of at least a side: an offset that wraps onto the vertex
    # itself makes no factor, and every pair within the wrapped l1 range makes one
    for shape, reach in (((3,), 3), ((4,), 5), ((2, 3), 2), ((3, 3), 3), ((2, 2, 3), 4)):
        g = build_rectangular_lattice(shape, reach, periodic=True)
        assert set(g.factors) == _wrapped_pairs(g.coords, shape, reach)
        assert len(g.factors) == len(set(g.factors))


def _wrapped_pairs(coords: dict, shape, reach: int) -> set:
    """Every pair of distinct vertices within ``reach`` in the l1 metric of the torus."""
    def wrapped(a, b):
        return sum(min(abs(x - y), s - abs(x - y)) for x, y, s in zip(a, b, shape))
    return {frozenset((u, v)) for u in coords for v in coords
            if u < v and wrapped(coords[u], coords[v]) <= reach}


def test_corner_ball():
    g = build_square_lattice(2, 4)
    ball, _ = ball_and_boundary(g, 0, 1)
    assert len(ball) == 3


def test_memory_guard():
    with pytest.raises(CapExceededError):
        build_square_lattice(3, 2**8)
    with pytest.raises(CapExceededError):
        build_square_lattice(10**9, 2)  # refused before a shape of 10^9 sides is built


def test_rectangular_lattices_meet_the_same_guard(monkeypatch):
    import opgrowth.lattice

    monkeypatch.setattr(opgrowth.lattice, "MAX_VERTEX_BITS", 4)
    assert len(build_rectangular_lattice((4, 4)).vertices) == 16
    with pytest.raises(CapExceededError):
        build_rectangular_lattice((3, 6))
    with pytest.raises(CapExceededError):
        build_square_lattice(5, 2)


def test_factor_distance_examples():
    g = build_square_lattice(1, 4)
    assert factor_distance(g, {0}, {0}) == 0
    assert factor_distance(g, {0}, {1}) == 1
    assert factor_distance(g, {0}, {3}) == 3
    assert factor_distance(g, {0, 1}, {1, 2}) == 0


def test_factor_distance_bfs_oracle():
    # independent check: breadth-first search over the bipartite graph
    g = build_square_lattice(2, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.choice(len(g.vertices), size=2, replace=False)
        expected = _bipartite_bfs(g, int(x), int(y))
        assert factor_distance(g, {int(x)}, {int(y)}) == expected


def _bipartite_bfs(g, x, y):
    from collections import deque

    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if v == y:
            return dist[v]
        for fi in g.factors_at(v):
            for u in g.factors[fi]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist[y]


def test_hop_distances_match_bipartite_bfs():
    # range 2 makes the factor graph differ from the nearest-neighbour grid
    g = build_rectangular_lattice((3, 5), interaction_range=2)
    adjacency = g.vertex_adjacency()
    for x in g.vertices:
        hops = list(hop_distances(adjacency, [x]))
        assert [d for _, d in hops] == sorted(d for _, d in hops)
        assert dict(hops) == {y: _bipartite_bfs(g, x, y) for y in g.vertices}
        for radius in (0, 1, 2):
            assert dict(hop_distances(adjacency, [x], radius)) == {
                y: d for y, d in hops if d <= radius}
    two = dict(hop_distances(adjacency, [0, 14]))
    assert two == {y: min(_bipartite_bfs(g, 0, y), _bipartite_bfs(g, 14, y))
                   for y in g.vertices}


def test_ball_reads_only_the_ball():
    # a ball costs O(ball), not O(lattice): count the adjacency rows it reads
    g = build_square_lattice(2, 64)

    class CountingRows(dict):
        def __getitem__(self, v):
            reads.add(v)
            return super().__getitem__(v)

    reads = set()
    object.__setattr__(g, "_adjacency", CountingRows(g.vertex_adjacency()))
    ball, _ = ball_and_boundary(g, 64 * 32 + 32, 3)
    assert len(ball) == 25
    assert reads <= ball
    reads.clear()
    assert factor_distance(g, {0}, {2}) == 2
    assert len(reads) <= 6


def test_is_connected_examples():
    adjacency = build_square_lattice(1, 6).vertex_adjacency()
    assert is_connected(adjacency, (1, 2, 3))
    assert not is_connected(adjacency, (1, 3))
    assert is_connected(adjacency, (4,)) and is_connected(adjacency, ())


def test_factor_distance_rejects_unknown_vertices():
    g = build_square_lattice(1, 4)
    with pytest.raises(ValueError):
        factor_distance(g, {0}, {99})


def test_metric_properties_sampled():
    g = build_rectangular_lattice((3, 4))
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y, z = (int(v) for v in rng.choice(len(g.vertices), size=3, replace=False))
        dxy = factor_distance(g, {x}, {y})
        assert dxy == factor_distance(g, {y}, {x})
        assert dxy > 0
        assert factor_distance(g, {x}, {z}) <= dxy + factor_distance(g, {y}, {z})
    assert factor_distance(g, {5}, {5}) == 0


def test_ball_and_boundary_examples():
    g = build_square_lattice(1, 8)
    ball, bd = ball_and_boundary(g, 4, 0)
    assert ball == frozenset({4}) and bd == 1
    ball, bd = ball_and_boundary(g, 4, 2)
    assert len(ball) == 5 and bd == 2
    g5 = build_square_lattice(2, 5)
    ball, bd = ball_and_boundary(g5, 12, 1)
    assert len(ball) == 5 and bd == 4


def test_ball_boundary_direct_census():
    # boundary = ball vertices sharing a factor with an outside vertex
    g = build_square_lattice(2, 5)
    ball, bd = ball_and_boundary(g, 12, 2)
    direct = sum(
        1 for v in ball
        if any(any(u not in ball for u in g.factors[fi]) for fi in g.factors_at(v))
    )
    assert bd == direct == boundary_size(g, ball)


def test_ball_growth_dimension_scaling():
    g1 = build_square_lattice(1, 21)
    for r in range(1, 5):
        ball, _ = ball_and_boundary(g1, 10, r)
        assert len(ball) == 2 * r + 1
    g2 = build_square_lattice(2, 9)
    center = 4 * 9 + 4
    for r in range(1, 4):
        ball, _ = ball_and_boundary(g2, center, r)
        assert len(ball) == 2 * r * r + 2 * r + 1  # l1 ball in the plane


def test_connected_subsets_examples():
    # every size from 1 to m, smallest first and sorted within a size
    chain = build_square_lattice(1, 8).vertex_adjacency()
    assert enumerate_connected_subsets(chain, 4, 1) == [(4,)]
    assert enumerate_connected_subsets(chain, 4, 3) == [
        (4,), (3, 4), (4, 5), (2, 3, 4), (3, 4, 5), (4, 5, 6)]
    grid = build_square_lattice(2, 5).vertex_adjacency()
    assert len(enumerate_connected_subsets(grid, 12, 2)) == 1 + 4
    assert enumerate_connected_subsets(grid, 12, 0) == []


def test_connected_subset_counts_are_fixed_polyomino_counts():
    # no subset of 8 sites around the centre of a 15 x 15 lattice meets its edge, so the
    # count of each size m is m times the fixed-polyomino count A001168(m)
    grid = build_square_lattice(2, 15).vertex_adjacency()
    found = enumerate_connected_subsets(grid, 7 * 15 + 7, 8)
    counts = [sum(1 for sub in found if len(sub) == m) for m in range(1, 9)]
    assert counts == [1, 4, 18, 76, 315, 1296, 5320, 21800]
    polyominoes = [1, 2, 6, 19, 63, 216, 760, 2725]  # A001168
    assert counts == [m * n for m, n in enumerate(polyominoes, start=1)]


@st.composite
def connected_graphs(draw):
    """Adjacency of a random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(1, 10))
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[u].add(v)
        adj[v].add(u)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=n)):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@settings(max_examples=60, deadline=2000, derandomize=True)
@given(adj=connected_graphs(), data=st.data())
def test_connected_subsets_match_brute_force_random_graphs(adj, data):
    root = data.draw(st.integers(0, len(adj) - 1))
    m = data.draw(st.integers(1, len(adj)))
    assert enumerate_connected_subsets(adj, root, m) == brute_connected_subsets(adj, root, m)


def test_connected_subsets_cap():
    adj = build_square_lattice(2, 5).vertex_adjacency()
    with pytest.raises(CapExceededError):
        enumerate_connected_subsets(adj, 12, 6, cap=10)


def test_tile_boxes_examples():
    g = build_square_lattice(1, 8)
    t = tile_boxes(g, 4, 0)
    assert len(t.box_vertices) == 2
    t6 = tile_boxes(build_square_lattice(2, 6), 3, 0)
    assert len(t6.box_vertices) == 4
    assert all(len(t6.adjacency[b]) <= 3 for b in sorted(t6.box_vertices))
    t9 = tile_boxes(build_square_lattice(2, 9), 3, 0)
    assert len(t9.box_vertices) == 9
    # boxes are joined by the lattice's factors: an interior box has its 4 axis neighbours
    assert t9.adjacency[(1, 1)] == ((0, 1), (1, 0), (1, 2), (2, 1))
    # on a periodic lattice the factors across the wrap join the first box to the last
    ring = tile_boxes(build_square_lattice(1, 12, periodic=True), 3, 0)
    assert ring.adjacency[(0,)] == ((1,), (3,))
    assert tile_boxes(build_square_lattice(1, 12), 3, 0).adjacency[(0,)] == ((1,),)


def test_tiling_partitions_vertices():
    g = build_square_lattice(2, 7)
    t = tile_boxes(g, 3, 0)  # ragged: 7 = 3 + 3 + 1
    seen = []
    for b in sorted(t.box_vertices):
        seen.extend(t.box_vertices[b])
    assert sorted(seen) == list(g.vertices)
    assert all(len(t.adjacency[b]) <= 2 * 2 for b in sorted(t.box_vertices))


def test_tile_boxes_requires_coordinates():
    from opgrowth.lattice import FactorGraph

    g = FactorGraph(vertices=(0, 1), factors=(frozenset({0, 1}),))
    with pytest.raises(ValueError):
        tile_boxes(g, 1, 0)


def test_graph_json_roundtrip_fields():
    import json

    g = build_square_lattice(2, 3)
    payload = json.loads(g.to_json())
    assert set(payload) == {"dimension", "side", "vertices", "factors", "coordinates"}
    assert payload["side"] == 3
    assert len(payload["factors"]) == 12


def test_degree_bound_chain_and_grid():
    assert build_square_lattice(1, 6).degree_bound == 2
    assert build_square_lattice(2, 4).degree_bound == 6  # edge factor touches 6 others
