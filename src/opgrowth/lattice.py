"""Factor graphs, lattice geometry, box tilings and connected-cluster enumeration.

A factor graph pairs a vertex set (lattice sites) with a list of factors
(supports of Hamiltonian terms).  Distances between sites are measured in
factors: d(x, y) is the smallest number of factors in a connected path from
x to y.  Square-lattice constructors additionally carry integer coordinates,
which the box-tiling machinery needs.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceededError

# Guard: refuse lattices with more than 2**MAX_VERTEX_BITS sites.
MAX_VERTEX_BITS = 20

# The only guard of connected-subset enumeration.  A stored subset takes about
# 140 bytes at its peak (tracemalloc, 12 nodes or fewer), so the cap trips
# before 1 GB: at 0.77 GB max RSS after 17 s on a 25 x 25 lattice, m = 12
# (Python 3.11, one core).
ENUMERATION_CAP = 5_000_000


@dataclass(frozen=True)
class FactorGraph:
    """Vertices plus factors (vertex subsets), with adjacency indexes.

    ``coords`` maps vertices to integer coordinates when the graph came from
    a square-lattice constructor; generic graphs may leave it empty.
    """

    vertices: tuple[int, ...]
    factors: tuple[frozenset[int], ...]
    dimension: int = 1
    side: int | None = None
    interaction_range: int = 1
    periodic: bool = False
    coords: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        vset = set(self.vertices)
        for X in self.factors:
            if not X or not X <= vset:
                raise ValueError(f"factor {set(X)} is not a nonempty vertex subset")
        vertex_factors: dict[int, list[int]] = {v: [] for v in self.vertices}
        adjacency: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, X in enumerate(self.factors):
            for v in X:
                vertex_factors[v].append(i)
                adjacency[v].update(X)
        object.__setattr__(self, "_vertex_factors",
                           {v: tuple(f) for v, f in vertex_factors.items()})
        object.__setattr__(self, "_adjacency",
                           {v: tuple(sorted(s - {v})) for v, s in adjacency.items()})
        reached = dict(hop_distances(self._adjacency, self.vertices[:1]))
        if len(reached) < len(vset):
            raise ValueError("factor graph must be connected")

    def factors_at(self, v: int) -> tuple[int, ...]:
        """Indices of the factors containing vertex v."""
        return self._vertex_factors[v]

    @property
    def degree_bound(self) -> int:
        """Degree constant used by the path-counting bounds.

        Takes the larger of (a) the most factors incident to one vertex and
        (b) the most factors intersecting one factor, so that the number of
        non-self-crossing factor paths of length l from any vertex is at
        most degree_bound**l.
        """
        per_vertex = max((len(f) for f in self._vertex_factors.values()), default=0)
        per_factor = 0
        for i, X in enumerate(self.factors):
            touching = set()
            for v in X:
                touching.update(self._vertex_factors[v])
            touching.discard(i)
            per_factor = max(per_factor, len(touching))
        return max(per_vertex, per_factor)

    def vertex_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Vertex graph, built once: u ~ v when some factor contains both."""
        return self._adjacency

    def to_json(self) -> str:
        payload = {
            "dimension": self.dimension,
            "side": self.side,
            "vertices": list(self.vertices),
            "factors": [sorted(X) for X in self.factors],
            "coordinates": {str(v): list(c) for v, c in self.coords.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_square_lattice(
    d: int,
    L: int,
    interaction_range: int = 1,
    periodic: bool = False,
) -> FactorGraph:
    """Hypercubic lattice of side L in d dimensions with pair factors.

    One factor per vertex pair within ``interaction_range`` in l1 distance
    (nearest neighbors when the range is 1).  Open boundary by default.
    """
    # every side is at least 2, so past MAX_VERTEX_BITS + 1 sides the guard trips all the same
    return build_rectangular_lattice((L,) * min(d, MAX_VERTEX_BITS + 1), interaction_range,
                                     periodic)


def build_rectangular_lattice(
    shape: tuple[int, ...],
    interaction_range: int = 1,
    periodic: bool = False,
) -> FactorGraph:
    """Rectangular lattice with the given side lengths.

    One factor per vertex pair within ``interaction_range`` in l1 distance;
    on a periodic lattice an offset wraps, and one that reaches the vertex
    itself (a range of at least a side) makes no factor.
    """
    d = len(shape)
    if d < 1 or any(s < 2 for s in shape) or interaction_range < 1:
        raise ValueError("require d >= 1, every side >= 2 and interaction_range >= 1")
    if math.prod(shape) > 2**MAX_VERTEX_BITS:
        raise CapExceededError(f"lattice exceeds the guard of 2**{MAX_VERTEX_BITS} sites")
    coords = {i: c for i, c in enumerate(itertools.product(*(range(s) for s in shape)))}
    index = {c: i for i, c in coords.items()}
    factors = []
    seen = set()
    for v, c in coords.items():
        for offset in _l1_offsets(d, interaction_range):
            nc = tuple(x + o for x, o in zip(c, offset))
            if periodic:
                nc = tuple(x % s for x, s in zip(nc, shape))
            elif any(x < 0 or x >= s for x, s in zip(nc, shape)):
                continue
            u = index[nc]
            if u == v:
                continue
            pair = frozenset((v, u))
            if pair not in seen:
                seen.add(pair)
                factors.append(pair)
    factors.sort(key=lambda X: tuple(sorted(X)))
    side = shape[0] if len(set(shape)) == 1 else None
    return FactorGraph(
        vertices=tuple(range(len(coords))),
        factors=tuple(factors),
        dimension=d,
        side=side,
        interaction_range=interaction_range,
        periodic=periodic,
        coords=coords,
    )


def _l1_offsets(d: int, r: int):
    for offset in itertools.product(range(-r, r + 1), repeat=d):
        if 0 < sum(abs(o) for o in offset) <= r:
            yield offset


def hop_distances(adjacency: dict, sources, radius: int | None = None):
    """Yield (node, hops) breadth-first from a source set, out to ``radius`` hops.

    Each node within reach appears once, in nondecreasing hop order: ``dict()``
    of it is the distance map, and a search for a target can stop at the first hit.
    """
    dist = dict.fromkeys(sources, 0)
    yield from dist.items()
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        hops = dist[v] + 1
        if radius is not None and hops > radius:
            break
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = hops
                queue.append(u)
                yield u, hops


def is_connected(adjacency: dict, nodes) -> bool:
    """Whether ``nodes`` induce a connected subgraph of ``adjacency``."""
    nodes = frozenset(nodes)
    within = {v: nodes.intersection(adjacency[v]) for v in nodes}
    return len(dict(hop_distances(within, list(nodes)[:1]))) == len(nodes)


def factor_distance(g: FactorGraph, X: set[int], Y: set[int]) -> int:
    """Smallest number of factors in a connected path joining X to Y."""
    X, Y = set(X), set(Y)
    if not X or not Y:
        raise ValueError("vertex sets must be nonempty")
    adjacency = g.vertex_adjacency()
    unknown = {v for v in X | Y if v not in adjacency}
    if unknown:
        raise ValueError(f"unknown vertices: {sorted(unknown)}")
    return next(hops for v, hops in hop_distances(adjacency, X) if v in Y)


def ball_and_boundary(g: FactorGraph, v: int, R: int) -> tuple[frozenset[int], int]:
    """Ball B_R(v) in the factor metric, plus its boundary size.

    The boundary counts vertices of the ball at factor-distance one from
    some vertex outside the ball.
    """
    if R < 0:
        raise ValueError("R must be nonnegative")
    adjacency = g.vertex_adjacency()
    if v not in adjacency:
        raise ValueError(f"unknown vertex {v}")
    ball = frozenset(dict(hop_distances(adjacency, [v], R)))
    return ball, boundary_size(g, ball)


def boundary_vertices(g: FactorGraph, region: frozenset[int] | set[int]) -> list[int]:
    """Region vertices sharing a factor with an outside vertex, sorted."""
    region = frozenset(region)
    adjacency = g.vertex_adjacency()
    return sorted(u for u in region if any(w not in region for w in adjacency[u]))


def boundary_size(g: FactorGraph, region: frozenset[int] | set[int]) -> int:
    """Number of region vertices sharing a factor with an outside vertex."""
    return len(boundary_vertices(g, region))


def enumerate_connected_subsets(
    adjacency: dict,
    root,
    m: int,
    cap: int = ENUMERATION_CAP,
) -> list[tuple]:
    """All connected subsets of 1 to m nodes containing ``root``, each exactly once.

    Works on any adjacency map (vertex graph or coarse box graph).  One
    depth-first pass grows the subsets from ``root``, and every node of its
    search tree is one of them: a branch may only add nodes that earlier
    branches were forbidden from adding, so no subset is generated twice and
    no dedup pass is needed.  The output is sorted by (size, tuple), so a
    cluster follows its sub-clusters.  More than ``cap`` subsets raise
    ``CapExceededError`` while they are counted, so at most ``cap`` are held.
    """
    if root not in adjacency:
        raise ValueError(f"root {root!r} not in adjacency")
    if m < 1:
        return []
    results: list[tuple] = []

    def grow(subset: tuple, frontier: tuple, seen: frozenset):
        # ``seen`` holds the subset, its frontier and every node an earlier branch forbade
        results.append(tuple(sorted(subset)))
        if len(results) > cap:
            raise CapExceededError(f"connected-subset count exceeds cap {cap}")
        if len(subset) == m:
            return
        for i, cand in enumerate(frontier):
            extension = tuple(u for u in adjacency[cand] if u not in seen)
            grow(subset + (cand,), frontier[i + 1:] + extension, seen.union(extension))

    frontier = tuple(adjacency[root])
    grow((root,), frontier, frozenset(frontier).union((root,)))
    results.sort()
    results.sort(key=len)  # stable: by size, and by tuple within a size
    return results


@dataclass(frozen=True)
class BoxTiling:
    """Partition of a coordinate lattice into axis-aligned boxes of side r.

    Boxes at the lattice edge may be smaller than r**d.  Two boxes are
    coarse-adjacent when some factor of the graph has a site in each, so on
    a periodic lattice the boxes on either side of the wrap are adjacent.
    """

    dimension: int
    box_vertices: dict[tuple[int, ...], tuple[int, ...]]
    adjacency: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
    anchor_box: tuple[int, ...]


def tile_boxes(g: FactorGraph, r: int, anchor_vertex: int) -> BoxTiling:
    """Cut a square lattice into boxes of side r anchored at a given vertex.

    Boxes are joined by the factors of ``g``: two boxes are adjacent when
    some factor has a site in each, across the wrap too on a periodic
    lattice.  When every term of H is connected in g's factor graph, as
    every bundled model's are, each term inside a cluster's region lies in
    one connected part of the cluster, so a cluster that is not connected
    here contributes nothing to the cluster expansion.
    """
    if not g.coords:
        raise ValueError("graph lacks coordinates; build it with a lattice constructor")
    if r < 1:
        raise ValueError("box side must be >= 1")
    box_of_vertex = {v: tuple(x // r for x in c) for v, c in g.coords.items()}
    box_vertices: dict[tuple[int, ...], list[int]] = {}
    for v, b in box_of_vertex.items():
        box_vertices.setdefault(b, []).append(v)
    neighbours: dict[tuple[int, ...], set] = {b: set() for b in box_vertices}
    for X in g.factors:
        touched = {box_of_vertex[v] for v in X}
        for b in touched:
            neighbours[b] |= touched - {b}
    return BoxTiling(
        dimension=g.dimension,
        box_vertices={b: tuple(sorted(vs)) for b, vs in box_vertices.items()},
        adjacency={b: tuple(sorted(neighbours[b])) for b in sorted(box_vertices)},
        anchor_box=box_of_vertex[anchor_vertex],
    )

