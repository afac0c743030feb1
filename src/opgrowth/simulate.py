"""Cluster-expansion simulation of <psi|A(t)|psi> over a box tiling.

The time-evolved observable is organized by the connected clusters of boxes
its support has touched.  Evolving inside a cluster's region and
inclusion-exclusion over sub-clusters isolates each cluster's own
contribution; summing contributions over all clusters up to a size cutoff
approximates the exact expectation with an error that shrinks
exponentially in the cutoff volume.

A plan (``SimPlan``) holds the box side r, the cutoff m* and the box
tiling.  ``SimPlan.tiled`` builds one from a given r and m*; ``plan``
sizes both from a target error and |t| by the paper's formulas and hands
them to it.

Only clusters that contain the anchor box and are connected on the coarse
box graph can contribute.  ``tile_boxes`` joins two boxes when a factor of
the lattice has a site in each, so when H's terms are connected in the
factor graph, as every bundled model's are, a cluster that is not
connected splits into parts no term inside its region joins: the
observable never reaches the parts away from the anchor, and the
inclusion-exclusion cancels the cluster exactly (the linked-cluster
theorem).  That restriction is what keeps the cluster count manageable.

Cluster regions that are relabelings of each other share one evaluation,
the device of the numerical linked-cluster expansion.  Two regions fall in
one class only when a site map phi from one onto the other is found and
checked exactly (``ComponentClasses``): every term T inside the first,
moved to LocalOperator(phi(T.support), T.matrix), is a term inside the
second, entry for entry; the state's vector at each site v is the one at
phi(v); and phi carries the observable onto itself.  The first region met
in canonical cluster order is evaluated for its class.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import BoundParams
from .errors import CapExceededError, ConfigError, ValidityWindowError
from .lattice import (
    BoxTiling,
    FactorGraph,
    enumerate_connected_subsets,
    hop_distances,
    tile_boxes,
)
from .operators import (
    HamiltonianSpec,
    LocalOperator,
    embed,
    exact_bytes,
    exact_expectation,
    heisenberg_evolve,
    time_grid,
)

Cluster = tuple  # canonical (sorted) tuple of box ids

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimPlan:
    """Box side, cluster-size cutoff and box tiling of one simulation: see ``tiled``."""

    r: int
    m_star: int
    tiling: BoxTiling

    @classmethod
    def tiled(cls, graph: FactorGraph, r: int, m_star: int, anchor_vertex: int = 0) -> SimPlan:
        """The plan of boxes of side r, clamped to the lattice extent, and cutoff m_star.

        The boxes tile ``graph`` with the anchor box holding ``anchor_vertex``.
        A side below the interaction range is a ``ConfigError``.
        """
        if r < 1 or m_star < 1:
            raise ValueError("require r >= 1 and m_star >= 1")
        extent = graph.side if graph.side is not None else max(
            max(c) for c in graph.coords.values()) + 1
        if r > extent:
            log.warning("box side %d exceeds lattice extent %d; clamping", r, extent)
            r = extent
        if r < graph.interaction_range:
            raise ConfigError(f"box side {r} is below the interaction range")
        return cls(r, m_star, tile_boxes(graph, r, anchor_vertex))


def plan(
    params: BoundParams,
    t: float,
    epsilon: float,
    graph: FactorGraph,
    anchor_vertex: int = 0,
) -> SimPlan:
    """The paper's plan for target error ``epsilon`` at time ``t``, tiled on ``graph``.

    The box side is r = ceil(4(v_LR |t| + box_offset)) and the cutoff
    m* = floor(3^{d+2}/(mu r) * log(2 c_d / eps)) + 3^{d+2} + 1, using the
    constants in ``params``; ``SimPlan.tiled`` clamps r to the lattice.
    """
    if epsilon <= 0:
        raise ValidityWindowError("target error must be positive")
    d = params.dimension
    r = max(1, math.ceil(4 * (params.lr_velocity * abs(t) + params.box_offset)))
    log_term = max(0.0, math.log(2 * params.sim_prefactor / epsilon))
    m_star = int(3 ** (d + 2) / (params.decay_rate * r) * log_term) + 3 ** (d + 2) + 1
    return SimPlan.tiled(graph, r, m_star, anchor_vertex)


def cluster_region(tiling: BoxTiling, cluster: Cluster) -> tuple[int, ...]:
    out: list[int] = []
    for b in cluster:
        out.extend(tiling.box_vertices[b])
    return tuple(sorted(out))


@dataclass
class _Labelled:
    """A component with its terms and refined site colours, ready to be matched."""

    sites: tuple[int, ...]
    terms: list[tuple[int, tuple[int, ...]]]  # (index in H.terms, sorted support) inside it
    term_counts: Counter | None  # (support, matrix bytes) -> multiplicity, once matched onto
    colour: dict[int, int]
    key: tuple  # (term count, sorted colours): equal for relabelings
    order: list[int]  # sites in search order
    closing: list[list[int]]  # per search step, the terms whose last site it places


class ComponentClasses:
    """Site sets of one (H, A, state) sorted into classes of relabelings.

    The site sets, components here, hold A's support; ``simulate_expectation``
    hands in its cluster regions.  A site map phi from a component onto
    another is accepted only when it is checked exactly: every term of the
    first, moved to LocalOperator(phi(T.support), T.matrix), is a term of
    the second, with multiplicity; the state's vector at v is the one at
    phi(v); and LocalOperator(phi(A.support), A.matrix) is A.  Equal means equal bytes
    once the sign of zero is cleared (``exact_bytes``), so entry for entry with no
    tolerance.  Term matrices come as H's kinds (``HamiltonianSpec.term_kinds``), so
    the view from each factor is taken once per kind, and a moved term's reordered
    bytes once per kind and factor order.
    H, state and A on the first are then H, state and A on the second,
    relabeled, so <A(t)> is the same.

    Colour refinement only prunes the search.  A site's colour starts from
    its state vector, its view of A and its distance from A's sites, and
    then takes in every term on it, read from that site, with the colours of
    the term's other sites, until the partition stops splitting.  Colours
    are interned in one table, so they compare across components: a
    component is tried only against the representatives with its multiset
    of colours, and a backtracking search maps sites of one colour onto each
    other, checking each term once its sites are placed.
    """

    def __init__(self, H: HamiltonianSpec, A: LocalOperator, state):
        self.H, self.A, self.state = H, A, state
        self._ids: dict = {}  # signature -> colour, one table for every component
        # terms of one kind of H share their views and reorderings
        self._term_data: dict[int, tuple] = {}  # term index -> ``_term``
        self._views: dict[int, list[int]] = {}  # kind -> colour of the view from each factor
        self._reorders: dict[tuple[int, tuple], bytes] = {}  # (kind, factor order) -> bytes
        self._vectors: dict[int, bytes] = {}
        self._terms_at: dict[int, list[int]] = {}
        for i, term in enumerate(H.terms):
            for v in term.support:
                self._terms_at.setdefault(v, []).append(i)
        self._a_views = {v: self._id(view) for v, view in zip(A.support, _views(A.matrix))}
        self._representatives: dict[tuple, list[_Labelled]] = {}

    def classify(self, component) -> tuple[int, ...]:
        """The first component given of ``component``'s class: itself if it opens one."""
        labelled = self._label(component)
        candidates = self._representatives.setdefault(labelled.key, [])
        for rep in candidates:
            if self._search(labelled, rep) is not None:
                return rep.sites
        candidates.append(labelled)
        return labelled.sites

    def site_map(self, component, other) -> dict[int, int] | None:
        """A checked site map from ``component`` onto ``other``, or None when there is none."""
        first, second = self._label(component), self._label(other)
        return self._search(first, second) if first.key == second.key else None

    def _id(self, signature) -> int:
        return self._ids.setdefault(signature, len(self._ids))

    def _vector(self, v: int) -> bytes:
        if v not in self._vectors:
            self._vectors[v] = exact_bytes(self.state.vector_at(v))
        return self._vectors[v]

    def _term(self, i: int) -> tuple:
        """(sorted support, kind, [(site, view from it, other sites)]) of term i."""
        if i not in self._term_data:
            support = tuple(sorted(self.H.terms[i].support))
            kind = self.H.term_kinds[i]
            if kind not in self._views:
                self._views[kind] = [self._id(view) for view in _views(self.H.kinds[kind])]
            incidences = [(v, view, support[:p] + support[p + 1:])
                          for p, (v, view) in enumerate(zip(support, self._views[kind]))]
            self._term_data[i] = (support, kind, incidences)
        return self._term_data[i]

    def _moved(self, i: int, support: tuple[int, ...], phi: dict[int, int]) -> tuple:
        """(support, matrix bytes) of term i, on its sorted ``support``, moved by phi."""
        images = [phi[v] for v in support]
        order = tuple(sorted(range(len(images)), key=images.__getitem__))
        key = (self._term(i)[1], order)
        if key not in self._reorders:
            self._reorders[key] = _reordered(self.H.terms[i].matrix, order)
        return tuple(images[j] for j in order), self._reorders[key]

    def _term_counts(self, labelled: _Labelled) -> Counter:
        if labelled.term_counts is None:
            identity = {v: v for v in labelled.sites}
            labelled.term_counts = Counter(self._moved(*term, identity) for term in labelled.terms)
        return labelled.term_counts

    def _label(self, component) -> _Labelled:
        sites = tuple(sorted(component))
        inside = frozenset(sites)
        if not set(self.A.support) <= inside:
            raise ValueError("component must contain the observable support")
        indices = sorted({i for v in sites for i in self._terms_at.get(v, ())
                          if self.H.terms[i].support <= inside})
        terms = [(i, self._term(i)[0]) for i in indices]
        incident: dict[int, list] = {v: [] for v in sites}
        neighbours: dict[int, list[int]] = {v: [] for v in sites}
        for i in indices:
            for v, view, others in self._term(i)[2]:
                incident[v].append((view, others))
                neighbours[v].extend(others)
        # phi fixes A's sites as a set, so it keeps every site's distance from them
        distance = dict(hop_distances(neighbours, self.A.support))
        colour = {v: self._id((self._vector(v), self._a_views.get(v), distance.get(v)))
                  for v in sites}
        distinct = len(set(colour.values()))
        while True:
            colour = {v: self._id((colour[v], tuple(sorted(
                [(view, tuple(sorted([colour[u] for u in others])))
                 for view, others in incident[v]])))) for v in sites}
            if len(set(colour.values())) == distinct:
                break
            distinct = len(set(colour.values()))
        # search order: out from A's sites, so each site meets a placed neighbour, and
        # the rarest colour first within a layer
        size = Counter(colour.values())
        order = sorted(sites, key=lambda v: (distance.get(v, len(sites)), size[colour[v]], v))
        step = {v: k for k, v in enumerate(order)}
        closing: list[list[int]] = [[] for _ in sites]
        for j, (_, support) in enumerate(terms):
            closing[max(step[v] for v in support)].append(j)
        return _Labelled(sites, terms, None, colour,
                         (len(terms), tuple(sorted(colour.values()))), order, closing)

    def _search(self, first: _Labelled, second: _Labelled) -> dict[int, int] | None:
        wanted = self._term_counts(second)
        targets: dict[int, list[int]] = {}
        for w in second.sites:
            targets.setdefault(second.colour[w], []).append(w)
        phi: dict[int, int] = {}
        used: set[int] = set()
        moved: list[tuple] = []  # first's terms moved by phi, each once all its sites are placed

        def extend(k: int) -> bool:
            if k == len(first.order):
                return Counter(moved) == wanted and self._state_and_observable_kept(phi)
            v = first.order[k]
            for w in targets.get(first.colour[v], ()):
                if w in used:
                    continue
                phi[v] = w
                closed = [self._moved(*first.terms[j], phi) for j in first.closing[k]]
                if all(term in wanted for term in closed):
                    used.add(w)
                    moved.extend(closed)
                    if extend(k + 1):
                        return True
                    del moved[len(moved) - len(closed):]
                    used.discard(w)
                del phi[v]
            return False

        return dict(phi) if extend(0) else None

    def _state_and_observable_kept(self, phi: dict[int, int]) -> bool:
        if any(self._vector(v) != self._vector(w) for v, w in phi.items()):
            return False
        moved = LocalOperator(tuple(phi[v] for v in self.A.support), self.A.matrix)
        return (moved.support == self.A.support
                and exact_bytes(moved.matrix) == exact_bytes(self.A.matrix))


def _reordered(matrix: np.ndarray, order) -> bytes:
    """``exact_bytes`` of ``matrix`` with its kron factors reordered: factor order[j] at j."""
    ranks = tuple(sorted(range(len(order)), key=order.__getitem__))  # factor f goes to ranks[f]
    return exact_bytes(LocalOperator(ranks, matrix).matrix)


def _views(matrix: np.ndarray) -> list[tuple]:
    """The view of a k-site operator from each of its factors, free of the site labels.

    The view from factor i is the matrix with factor i first and the other
    factors in the order whose bytes are least.  Past four sites, where that
    order takes too many permutations, every factor gets the size and sorted
    entries of the matrix: coarser, and as free of the labels.
    """
    k = len(matrix).bit_length() - 1
    if k > 4:
        return [(k, exact_bytes(np.sort(np.asarray(matrix, dtype=complex) + 0.0, axis=None)))] * k
    return [(k, min(_reordered(matrix, (i, *order))
                    for order in itertools.permutations([j for j in range(k) if j != i])))
            for i in range(k)]


def raw_cluster_expectation(
    H: HamiltonianSpec,
    A: LocalOperator,
    state,
    cluster: Cluster,
    tiling: BoxTiling,
    t,
):
    """<psi|e^{iHt} A e^{-iHt}|psi> on the cluster region, H cut down to terms inside it.

    ``t`` is a time or a grid of times, as for ``exact_expectation``.
    """
    return exact_expectation(H, A, state, t, region=cluster_region(tiling, cluster))


def cluster_correction(raw: dict, corrected: dict, cluster: Cluster,
                       subclusters: list[Cluster]):
    """Corrected value: raw minus the corrected values of the cluster's anchored sub-clusters.

    ``subclusters`` lists the cluster's anchored connected proper subsets,
    sorted.  ``raw`` and ``corrected`` are read, never updated in place.
    """
    total = raw[cluster]
    for sub in subclusters:
        if sub not in corrected:
            raise RuntimeError(f"dependency {sub} missing; levels were built out of order")
        total = total - corrected[sub]
    return total


def inclusion_exclusion(raw: dict, correction=None) -> dict:
    """The corrected value of each cluster in ``raw``, computed smallest first.

    ``raw`` holds every anchored connected sub-cluster of each of its
    clusters, as ``simulate_expectation`` and ``operator_piece`` build it.
    So a cluster's anchored sub-clusters are read off the level below, with
    no enumeration: they are the C minus {b} in ``raw`` and their own
    sub-clusters, since every anchored connected proper subset of C grows
    to C one box at a time.  Only the sub-cluster sets of the level below
    are held, and none of the top level.  Each cluster's are handed, sorted,
    to ``correction`` (``cluster_correction`` unless given) with ``raw`` and
    the corrected values so far.  Values may be floats, arrays over a t
    grid, or operator matrices on one common region.
    """
    correction = correction or cluster_correction
    corrected: dict = {}
    top = max(map(len, raw), default=0)
    below: dict[Cluster, set[Cluster]] = {}  # the sub-cluster sets of the level below
    for size, level in itertools.groupby(sorted(raw, key=len), key=len):
        above: dict[Cluster, set[Cluster]] = {}
        for cluster in level:
            subclusters: set[Cluster] = set()
            for b in cluster:
                sub = tuple(x for x in cluster if x != b)
                if sub in raw:
                    subclusters.add(sub)
                    subclusters |= below[sub]
            if size < top:
                above[cluster] = subclusters
            corrected[cluster] = correction(raw, corrected, cluster, sorted(subclusters))
        below = above
    return corrected


def simulate_expectation(
    H: HamiltonianSpec,
    A: LocalOperator,
    state,
    t,
    sim_plan: SimPlan,
):
    """Run the level-by-level cluster expansion and return (estimate, diagnostics).

    Clusters are evaluated level by level, in canonical order, and each
    class of cluster regions once: clusters whose regions are relabelings
    of each other, under a site map that ``ComponentClasses`` checks
    exactly against H's terms, the state and A, share one raw array, that
    of the first region of the class met.  Diagnostics include per-level
    sums and running estimates, with the running counts of clusters and
    evaluated classes beside them; the running values at level m are
    exactly what a plan with m_star = m would return.  ``raw`` maps each
    cluster to its raw values over the grid, one dict shared by every grid
    point, so ``raw[cluster][k]`` is the value at grid point k (k = 0 for a
    scalar t).  Bounds are not evaluated here: the CLI puts the truncation
    bound at each level's volume beside these values.

    ``t`` may also be a grid of times: each class is then evolved once
    along the whole grid, and the result is a list of (estimate,
    diagnostics) pairs in grid order.

    A ``CapExceededError`` raised while a level is evaluated propagates
    with ``finished`` set to what this call would return for the levels
    below that one (diagnostics of no level when level 1 trips): the
    result of a plan with m_star one less than the level that tripped.
    """
    times, scalar = time_grid(t)
    tiling = sim_plan.tiling
    anchor = tiling.anchor_box
    if not set(A.support) <= set(tiling.box_vertices[anchor]):
        raise ValueError("observable support must sit inside the anchor box")

    raw: dict[Cluster, np.ndarray] = {}
    classes = ComponentClasses(H, A, state)
    by_class: dict[tuple[int, ...], np.ndarray] = {}  # representative region -> raw array
    levels: list[list[Cluster]] = [[] for _ in range(sim_plan.m_star)]
    for cluster in enumerate_connected_subsets(tiling.adjacency, anchor, sim_plan.m_star):
        levels[len(cluster) - 1].append(cluster)
    running_classes = []
    for clusters in levels:
        try:
            for cluster in clusters:
                representative = classes.classify(cluster_region(tiling, cluster))
                if representative not in by_class:  # the cluster's region opens its class
                    by_class[representative] = np.array(
                        raw_cluster_expectation(H, A, state, cluster, tiling, times))
                raw[cluster] = by_class[representative]
        except CapExceededError as exc:  # hand on the levels below this one
            done = levels[:len(running_classes)]
            exc.finished = _level_results(
                done, {c: raw[c] for level in done for c in level}, running_classes, times, scalar)
            raise
        running_classes.append(len(by_class))
    log.info("simulate: %d clusters, %d classes evaluated", sum(map(len, levels)), len(by_class))
    return _level_results(levels, raw, running_classes, times, scalar)


def _level_results(levels: list[list[Cluster]], raw: dict, running_classes: list[int],
                   times: list[float], scalar: bool):
    """``simulate_expectation``'s result for these levels, whose clusters' raw values are in ``raw``.

    With no level, every estimate is 0.0 and the per-level lists are empty.
    """
    running_clusters = list(itertools.accumulate(len(clusters) for clusters in levels))
    corrected = inclusion_exclusion(raw)
    zero = np.zeros(len(times))
    level_sums = [sum((corrected[cluster] for cluster in clusters), zero) for clusters in levels]
    running = list(itertools.accumulate(level_sums, initial=zero))
    results = [(float(running[-1][k]), {
        "running_clusters": running_clusters,
        "running_classes": running_classes,
        "level_sums": [float(v[k]) for v in level_sums],
        "running_estimates": [float(v[k]) for v in running[1:]],
        "raw": raw,
    }) for k in range(len(times))]
    return results[0] if scalar else results


def operator_piece(
    H: HamiltonianSpec,
    A: LocalOperator,
    cluster: Cluster,
    tiling: BoxTiling,
    t: float,
) -> LocalOperator:
    """The operator-valued cluster contribution A(cluster; t).

    Defined by evolving inside the cluster region and subtracting every
    anchored connected sub-cluster's piece; the size-1 base case is plain
    evolution inside the anchor box.  One enumeration on the cluster's own
    coarse adjacency lists the cluster and those sub-clusters; a cluster
    missing from it is not connected.  Each is evolved on its own region,
    embedded in the cluster region and re-summed there.  Summing over all
    anchored connected clusters reconstructs the full evolved operator.
    """
    cluster = tuple(sorted(cluster))
    anchor = tiling.anchor_box
    if anchor not in cluster:
        raise ValueError("cluster must contain the anchor box")
    if not set(A.support) <= set(tiling.box_vertices[anchor]):
        raise ValueError("observable support must sit inside the anchor box")
    local = {b: [nb for nb in tiling.adjacency[b] if nb in cluster] for b in cluster}
    subclusters = enumerate_connected_subsets(local, anchor, len(cluster))
    if cluster not in subclusters:
        raise ValueError("cluster must be connected on the coarse graph")
    region = cluster_region(tiling, cluster)
    raw = {}
    for sub in subclusters:
        evolved = heisenberg_evolve(H, A, t, cluster_region(tiling, sub))
        raw[sub] = embed(evolved.matrix, evolved.support, region)
    return LocalOperator(region, inclusion_exclusion(raw)[cluster])
