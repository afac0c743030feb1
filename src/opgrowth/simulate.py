"""Cluster-expansion simulation of <psi|A(t)|psi> over a box tiling.

The time-evolved observable is organized by the connected clusters of boxes
its support has touched.  Evolving inside a cluster's region and
inclusion-exclusion over sub-clusters isolates each cluster's own
contribution; summing contributions over all clusters up to a size cutoff
approximates the exact expectation with an error that shrinks
exponentially in the cutoff volume.

Only clusters that are connected on the coarse box graph and contain the
anchor box can contribute: support spreads through shared Hamiltonian
terms, so a cluster with a gap is never touched as a whole.  That
restriction is what keeps the cluster count manageable.

Inside a cluster, only the connected component of the observable's support
matters, taken in the graph of the terms that lie wholly inside the region.
Every other term of the region commutes with that component's terms, and
the state is a product state, so the region's A(t) is the component's A(t)
tensored with the identity and <A(t)> is the component's.  Clusters with
the same component (boxes that touch only at a corner, say) share one
evaluation.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundParams, truncation_error_bound
from .errors import ConfigError, ValidityWindowError
from .lattice import (
    BoxTiling,
    FactorGraph,
    enumerate_connected_subsets,
    hop_distances,
    is_connected,
    tile_boxes,
)
from .operators import (
    HamiltonianSpec,
    LocalOperator,
    embed,
    exact_expectation,
    heisenberg_evolve,
    time_grid,
)

Cluster = tuple  # canonical (sorted) tuple of box ids

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimPlan:
    """Box side and cluster-size cutoff for one simulation."""

    r: int
    m_star: int
    tiling: BoxTiling | None = None

    def __post_init__(self):
        if self.r < 1 or self.m_star < 1:
            raise ValueError("require r >= 1 and m_star >= 1")


@dataclass
class ClusterTable:
    """Per-cluster raw and corrected values, grouped by cluster size."""

    raw: dict[Cluster, float] = field(default_factory=dict)
    corrected: dict[Cluster, float] = field(default_factory=dict)


def plan(
    params: BoundParams | None,
    t: float,
    epsilon: float,
    mode: str = "desk",
    graph: FactorGraph | None = None,
    anchor_vertex: int = 0,
    r: int | None = None,
    m_star: int | None = None,
) -> SimPlan:
    """Choose box side and cluster cutoff.

    In "paper-formula" mode, r = 4(v_LR t + box_offset) and the cutoff is
    m* = floor(3^{d+2}/(mu r) * log(2 c_d / eps)) + 3^{d+2} + 1, using the
    constants in ``params``.  In "desk" mode both come from the caller.
    """
    if epsilon <= 0:
        raise ValidityWindowError("target error must be positive")
    if mode == "paper-formula":
        if params is None:
            raise ValueError("paper-formula mode needs BoundParams")
        d = params.dimension
        r_val = max(1, math.ceil(4 * (params.lr_velocity * t + params.box_offset)))
        log_term = max(0.0, math.log(2 * params.sim_prefactor / epsilon))
        m_val = int(3 ** (d + 2) / (params.decay_rate * r_val) * log_term) + 3 ** (d + 2) + 1
    elif mode == "desk":
        if r is None or m_star is None:
            raise ValueError("desk mode needs explicit r and m_star")
        r_val, m_val = int(r), int(m_star)
    else:
        raise ValueError(f"unknown plan mode {mode!r}")
    tiling = None
    if graph is not None:
        extent = graph.side if graph.side is not None else max(
            max(c) for c in graph.coords.values()) + 1
        if r_val > extent:
            log.warning("box side %d exceeds lattice extent %d; clamping", r_val, extent)
            r_val = extent
        tiling = tile_boxes(graph, r_val, anchor_vertex)
        if r_val < graph.interaction_range:
            raise ConfigError(f"box side {r_val} is below the interaction range")
    return SimPlan(r=r_val, m_star=m_val, tiling=tiling)


def cluster_region(tiling: BoxTiling, cluster: Cluster) -> tuple[int, ...]:
    out: list[int] = []
    for b in cluster:
        out.extend(tiling.box_vertices[b])
    return tuple(sorted(out))


def anchored_clusters(tiling: BoxTiling, m_star: int) -> list[Cluster]:
    """All connected box clusters containing the anchor, up to size m_star."""
    out: list[Cluster] = []
    for m in range(1, m_star + 1):
        out.extend(enumerate_connected_subsets(tiling.adjacency, tiling.anchor_box, m))
    return out


def support_component(H: HamiltonianSpec, region, support) -> tuple[int, ...]:
    """Sorted sites of ``region`` joined to ``support`` by chains of H's terms inside it.

    A term that leaves the region joins nothing: it is not part of the
    region's Hamiltonian.
    """
    adjacency: dict[int, set[int]] = {v: set() for v in region}
    for term in H.terms_within(region):
        for v in term.support:
            adjacency[v].update(term.support)
    return tuple(sorted(v for v, _ in hop_distances(adjacency, support)))


def raw_cluster_expectation(
    H: HamiltonianSpec,
    A: LocalOperator,
    state,
    cluster: Cluster,
    tiling: BoxTiling,
    t,
):
    """<psi|e^{iHt} A e^{-iHt}|psi> on the cluster region, H cut down to terms inside it.

    Evaluated on the support component of the region, which gives the same
    value.  ``t`` is a time or a grid of times, as for ``exact_expectation``.
    """
    region = support_component(H, cluster_region(tiling, cluster), A.support)
    return exact_expectation(H, A, state, t, region=region)


def anchored_proper_subclusters(cluster: Cluster, adjacency: dict, anchor) -> list[Cluster]:
    """Nonempty proper subsets of a cluster that stay connected and keep the anchor.

    All other subsets carry no weight: support grows connectedly from the
    anchor box, so their contribution is identically zero.
    """
    members = set(cluster)
    local = {b: [nb for nb in adjacency[b] if nb in members] for b in cluster}
    out: list[Cluster] = []
    for size in range(1, len(cluster)):
        out.extend(enumerate_connected_subsets(local, anchor, size))
    return sorted(out)


def cluster_correction(table: ClusterTable, cluster: Cluster, subclusters: list[Cluster]):
    """Corrected value: raw minus the corrected values of the cluster's anchored sub-clusters.

    ``subclusters`` is ``anchored_proper_subclusters`` of the cluster, in
    its sorted order.  The values in ``table`` are read, never updated in
    place.
    """
    total = table.raw[cluster]
    for sub in subclusters:
        if sub not in table.corrected:
            raise RuntimeError(f"dependency {sub} missing; levels were built out of order")
        total = total - table.corrected[sub]
    return total


def inclusion_exclusion(raw: dict, correction=None) -> ClusterTable:
    """The table of corrected values for the clusters in ``raw``, smallest first.

    ``raw`` holds every anchored connected sub-cluster of each of its
    clusters, as ``simulate_expectation`` and ``operator_piece`` build it.
    So a cluster's anchored sub-clusters are read off the clusters already
    seen, with no enumeration: they are the C minus {b} in ``raw`` and
    their own sub-clusters, since every anchored connected proper subset of
    C grows to C one box at a time.  They are handed, sorted as
    ``anchored_proper_subclusters`` lists them, to ``correction``
    (``cluster_correction`` unless given) with the table filled so far.
    Values may be floats, arrays over a t grid, or operator matrices on one
    common region.
    """
    correction = correction or cluster_correction
    table = ClusterTable(raw=raw)
    below: dict[Cluster, set[Cluster]] = {}
    for cluster in sorted(raw, key=len):
        subclusters: set[Cluster] = set()
        for b in cluster:
            sub = tuple(x for x in cluster if x != b)
            if sub in raw:
                subclusters.add(sub)
                subclusters |= below[sub]
        below[cluster] = subclusters
        table.corrected[cluster] = correction(table, cluster, sorted(subclusters))
    return table


def simulate_expectation(
    H: HamiltonianSpec,
    A: LocalOperator,
    state,
    t,
    sim_plan: SimPlan,
    params: BoundParams | None = None,
):
    """Run the level-by-level cluster expansion and return (estimate, diagnostics).

    Clusters are evaluated level by level, in canonical order, and each
    distinct support component once: clusters that share it share one raw
    array.  Diagnostics include per-level sums and running estimates, with
    the running counts of clusters and of evaluated components beside them;
    the running values at level m are exactly what a plan with m_star = m
    would return.  With ``params``, ``level_bounds`` holds the truncation
    bound at each level's volume m r^d, None outside its validity window.

    ``t`` may also be a grid of times: each component is then evolved once
    along the whole grid, and the result is a list of (estimate,
    diagnostics) pairs in grid order.
    """
    times, scalar = time_grid(t)
    tiling = sim_plan.tiling
    if tiling is None:
        raise ValueError("plan carries no tiling; pass graph= when building it")
    anchor = tiling.anchor_box
    if not set(A.support) <= set(tiling.box_vertices[anchor]):
        raise ValueError("observable support must sit inside the anchor box")

    raw: dict[Cluster, np.ndarray] = {}
    by_component: dict[tuple[int, ...], np.ndarray] = {}
    levels: list[list[Cluster]] = []
    running_components = []
    for m in range(1, sim_plan.m_star + 1):
        clusters = enumerate_connected_subsets(tiling.adjacency, anchor, m)
        for cluster in clusters:
            component = support_component(H, cluster_region(tiling, cluster), A.support)
            if component not in by_component:
                by_component[component] = np.array(
                    raw_cluster_expectation(H, A, state, cluster, tiling, times))
            raw[cluster] = by_component[component]
        levels.append(clusters)
        running_components.append(len(by_component))
    running_clusters = list(itertools.accumulate(len(clusters) for clusters in levels))
    log.info("simulate: %d clusters, %d components evaluated",
             running_clusters[-1], running_components[-1])
    corrected = inclusion_exclusion(raw).corrected
    zero = np.zeros(len(times))
    level_sums = [sum((corrected[cluster] for cluster in clusters), zero) for clusters in levels]
    running = list(itertools.accumulate(level_sums, initial=zero))[1:]
    results = []
    for k, t_k in enumerate(times):
        table = ClusterTable(raw={c: float(v[k]) for c, v in raw.items()},
                             corrected={c: float(v[k]) for c, v in corrected.items()})
        diagnostics = {
            "running_clusters": running_clusters,
            "running_components": running_components,
            "level_sums": [float(v[k]) for v in level_sums],
            "running_estimates": [float(v[k]) for v in running],
            "table": table,
        }
        if params is not None:
            diagnostics["level_bounds"] = [
                _level_bound(params, t_k, m * sim_plan.r**tiling.dimension)
                for m in range(1, sim_plan.m_star + 1)]
        results.append((float(running[-1][k]), diagnostics))
    return results[0] if scalar else results


def _level_bound(params: BoundParams, t: float, M: int) -> float | None:
    try:
        return truncation_error_bound(params, t, M)
    except ValidityWindowError:
        return None


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
    evolution inside the anchor box.  Each distinct support component of the
    cluster and its sub-clusters is evolved once, embedded in the cluster
    region and re-summed there.
    Summing over all anchored connected clusters reconstructs the full
    evolved operator.
    """
    cluster = tuple(sorted(cluster))
    anchor = tiling.anchor_box
    if anchor not in cluster:
        raise ValueError("cluster must contain the anchor box")
    if not is_connected(tiling.adjacency, cluster):
        raise ValueError("cluster must be connected on the coarse graph")
    if not set(A.support) <= set(tiling.box_vertices[anchor]):
        raise ValueError("observable support must sit inside the anchor box")
    region = cluster_region(tiling, cluster)
    raw = {}
    embedded: dict[tuple[int, ...], np.ndarray] = {}
    for sub in anchored_proper_subclusters(cluster, tiling.adjacency, anchor) + [cluster]:
        component = support_component(H, cluster_region(tiling, sub), A.support)
        if component not in embedded:
            evolved = heisenberg_evolve(H, A, t, component)
            embedded[component] = embed(evolved.matrix, evolved.support, region)
        raw[sub] = embedded[component]
    return LocalOperator(region, inclusion_exclusion(raw).corrected[cluster])
