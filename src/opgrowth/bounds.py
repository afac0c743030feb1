"""Numeric evaluators for the light-cone bounds.

Each evaluator implements one closed-form bound on the normalized nested
commutator C = 2^{-m} ||[O_m, [..., [O_1, A(t)]]]||.  Validity windows are
enforced as hard errors: a bound evaluated outside its hypothesis is not a
bound.  The constants live in BoundParams; the prefactors are existential
in the underlying theory, so they are explicit configuration with helpers
for the standard fill-ins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceededError, ValidityWindowError
from .lattice import FactorGraph, boundary_vertices, hop_distances
from .causal import enumerate_irreducible_paths
from .operators import HamiltonianSpec

MATRIX_EXP_VERTEX_CAP = 4096


@dataclass(frozen=True)
class BoundParams:
    """Constant bundle shared by the bound evaluators.

    term_norm_max     largest Hamiltonian term norm (h)
    degree            factor-graph degree bound
    decay_rate        spatial decay per unit distance (mu)
    lr_velocity       light-cone velocity (distance per time)
    prefactor         overall bound prefactor
    kappa             quasilocal decay per support site
    tail_norm         constant of the pairwise tail-sum bound (h')
    box_margin        distance from each target region to its box wall (chi)
    box_offset        additive box-size constant of the truncation bound
    sim_prefactor     truncation-bound prefactor (c_d)
    sim_decay         truncation-bound decay constant (c_d')
    volume_decay      decay constant of the volume-law bound
    dimension         spatial dimension d
    """

    term_norm_max: float = 1.0
    degree: int = 2
    decay_rate: float = 1.0
    lr_velocity: float = 1.0
    prefactor: float = 1.0
    kappa: float = 2.0
    tail_norm: float = 1.0
    box_margin: float = 1.0
    box_offset: float = 0.0
    sim_prefactor: float = 1.0
    sim_decay: float = 1.0
    volume_decay: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        for name in ("term_norm_max", "decay_rate", "lr_velocity", "prefactor", "kappa",
                     "tail_norm", "box_margin", "sim_prefactor", "sim_decay", "volume_decay"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.degree < 1 or self.dimension < 1:
            raise ValueError("degree and dimension must be >= 1")

    @property
    def tail_ratio(self) -> float:
        """tail_norm / term_norm_max; at least 1 in the quasilocal regime."""
        return self.tail_norm / self.term_norm_max

    @property
    def coupled_velocity(self) -> float:
        """Velocity entering the nested quasilocal bound: 4e 3^d v_LR."""
        return 4.0 * math.e * 3**self.dimension * self.lr_velocity

    @property
    def cluster_exponent(self) -> float:
        """mu*chi - log(2e 3^d); must exceed 1 for the nested bound."""
        return self.decay_rate * self.box_margin - math.log(2 * math.e * 3**self.dimension)

    @classmethod
    def local_model(cls, h: float, degree: int, dimension: int = 1, **overrides) -> "BoundParams":
        """Standard fill-in for strictly local models: v_LR = 2*e*h*degree."""
        params = cls(
            term_norm_max=h,
            degree=degree,
            dimension=dimension,
            lr_velocity=2 * math.e * h * degree,
        )
        return replace(params, **overrides) if overrides else params

    @classmethod
    def quasilocal_model(
        cls,
        g: FactorGraph,
        h: float,
        kappa: float,
        dimension: int | None = None,
        alpha: float | None = None,
        **overrides,
    ) -> "BoundParams":
        """Fill-in for quasilocal envelopes (h, kappa) on a base graph.

        The pairwise tail sum obeys sum_{X('}u,v} |H_X| <= C exp(-mu' d) with
        mu' = kappa - 1 - log(degree).  Splitting mu' into a kept rate mu and
        a power-law factor gives the (tail_norm, mu, alpha) triple; the
        reproducing constant is measured on the graph, and the velocity and
        prefactor use v_LR = 2*K*h'/mu, c = 1/K.
        """
        adj = g.vertex_adjacency()
        degree = max(len(n) for n in adj.values())
        dimension = dimension if dimension is not None else g.dimension
        alpha = alpha if alpha is not None else dimension + 1
        mu_raw = kappa - 1 - math.log(degree)
        if mu_raw <= 0:
            raise ValidityWindowError(
                f"kappa={kappa} violates kappa > 1 + log(degree) = {1 + math.log(degree):.4f}")
        C = h / (1 - degree * math.exp(1 - kappa))
        mu = mu_raw / 2
        # smallest h' with C exp(-mu_raw l) <= h' exp(-mu l) / l^alpha for integer l >= 1
        tail_norm = C * max(l**alpha * math.exp(-(mu_raw - mu) * l) for l in range(1, 200))
        K = verify_reproducing(g, mu, alpha)
        K = max(K, 1.0)
        params = cls(
            term_norm_max=h,
            degree=degree,
            dimension=dimension,
            kappa=kappa,
            decay_rate=mu,
            tail_norm=tail_norm,
            lr_velocity=2 * K * tail_norm / mu,
            prefactor=1.0 / K,
        )
        return replace(params, **overrides) if overrides else params


def path_sum_bound(
    g: FactorGraph,
    H: HamiltonianSpec,
    R: set[int],
    S_list,
    B_list,
    t: float,
) -> float:
    """Product over regions of the weighted sum over irreducible paths.

    Bounds the normalized nested commutator by
    prod_i sum_paths (2|t|)^len / len! * prod(term norms on the path).
    Paths are enumerated on the Hamiltonian's own factor graph with length
    capped at the region size.

    R must contain every vertex outside the union of the B_i that shares a
    factor with some B_i, as the full complement of the union does: paths
    enter each B_i from R, so a smaller R drops paths and can undercount.
    """
    R = frozenset(R)
    S_list = [frozenset(s) for s in S_list]
    B_list = [frozenset(b) for b in B_list]
    if len(S_list) != len(B_list):
        raise ValueError("need one containing region per target")
    for i, (S, B) in enumerate(zip(S_list, B_list)):
        if not S <= B:
            raise ValueError(f"S_{i} not inside B_{i}")
        if B & R:
            raise ValueError(f"B_{i} intersects R")
    gH = H.factor_graph()
    for i in range(len(B_list)):
        for j in range(i + 1, len(B_list)):
            if any(X & B_list[i] and X & B_list[j] for X in gH.factors):
                raise ValueError(f"a factor couples B_{i} and B_{j} directly")
    norms = {k: H.terms[k].norm for k in range(len(H.terms))}
    total = 1.0
    for S, B in zip(S_list, B_list):
        paths = enumerate_irreducible_paths(gH, R, S, B, len(B), norms=norms)
        total *= sum(
            (2 * abs(t)) ** len(p) / math.factorial(len(p)) * p.weight for p in paths
        )
    return total


def combinatorial_bound(params: BoundParams, regions, t: float) -> float:
    """Short-time degree-counting bound.

    ``regions`` lists (boundary of B_i, boundary of S_i, distance r_i).
    Valid only for |t| < min_i r_i / (2 h degree).
    """
    h = params.term_norm_max
    degree = params.degree
    if not regions:
        raise ValueError("need at least one region")
    r_min = min(r for (_, _, r) in regions)
    if r_min < 1:
        raise ValueError("distances must be >= 1")
    window = r_min / (2 * h * degree)
    if abs(t) >= window:
        raise ValidityWindowError(
            f"|t|={abs(t)} outside validity window |t| < {window}")
    total = 1.0
    for dB, dS, r in regions:
        total *= dB * dS * (2 * math.e * h * abs(t) * degree / r) ** r
    return total


def matrix_exp_bound(
    g: FactorGraph,
    H: HamiltonianSpec,
    region_pairs,
    t: float,
) -> float:
    """Bound from the exponential of the vertex coupling-strength matrix.

    W[u, v] sums the norms of all terms containing both u and v; the bound
    is prod_i sum over boundary pairs of exp(2|t| W).  ``scipy.linalg`` is
    imported here, on the first call, so the CLI does not load it at start.
    """
    from scipy.linalg import expm

    vertices = tuple(g.vertices)
    n = len(vertices)
    if n > MATRIX_EXP_VERTEX_CAP:
        raise CapExceededError(f"{n} vertices exceed the dense expm cap {MATRIX_EXP_VERTEX_CAP}")
    index = {v: i for i, v in enumerate(vertices)}
    W = np.zeros((n, n))
    for term in H.terms:
        sup = sorted(term.support)
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                i, j = index[sup[a]], index[sup[b]]
                W[i, j] += term.norm
                W[j, i] += term.norm
    E = expm(2 * abs(t) * W)
    total = 1.0
    for B, S in region_pairs:
        if not frozenset(S) <= frozenset(B):
            raise ValueError("each S must be contained in its B")
        dB = [index[v] for v in boundary_vertices(g, B)]
        dS = [index[v] for v in boundary_vertices(g, S)]
        total *= float(sum(E[u, v] for u in dB for v in dS))
    return total


def volume_bound(params: BoundParams, R: float, t: float) -> float:
    """Volume-law tail c * exp(-gamma (R - vt)^d / (vt)^{d-1}), d = params.dimension."""
    d = params.dimension
    vt = params.lr_velocity * t
    if vt <= 1:
        raise ValidityWindowError(f"requires lr_velocity * t > 1, got {vt}")
    if R <= vt:
        raise ValidityWindowError(f"requires R > lr_velocity * t = {vt}, got R = {R}")
    return params.prefactor * math.exp(-params.volume_decay * (R - vt) ** d / vt ** (d - 1))


def quasilocal_pair_bound(params: BoundParams, dB: float, dS: float, dist: float, t: float) -> float:
    """Single-commutator bound for exponentially decaying interactions."""
    if dist < 1:
        raise ValueError("distance must be >= 1")
    mu = params.decay_rate
    return (
        params.prefactor * dB * dS * math.exp(-mu * dist)
        * (math.exp(mu * params.lr_velocity * abs(t)) - 1.0)
    )


def quasilocal_nested_bound(params: BoundParams, regions, t: float) -> float:
    """Nested-commutator bound for quasilocal interactions over boxed regions.

    ``regions`` lists (boundary of B_i, boundary of S_i, distance to R) for
    each of the m targets.  Requires mu*chi > max(log 2 + d log 3 + 2, kappa).
    """
    d = params.dimension
    mu = params.decay_rate
    m = len(regions)
    if m < 1:
        raise ValueError("need at least one region")
    mu_chi = mu * params.box_margin
    threshold = max(math.log(2) + d * math.log(3) + 2, params.kappa)
    if mu_chi <= threshold:
        raise ValidityWindowError(
            f"mu*chi = {mu_chi:.4f} must exceed max(log2 + d log3 + 2, kappa) = {threshold:.4f}")
    gamma = params.cluster_exponent
    if gamma <= 1:
        raise ValidityWindowError(f"cluster exponent {gamma:.4f} must exceed 1")
    mvt = mu * params.coupled_velocity * abs(t)
    total = mvt * (math.exp(-gamma + params.kappa) + mvt) ** (m - 1)
    for dB, dS, dist in regions:
        total *= dB * dS * params.tail_ratio * math.exp(
            mu * (params.lr_velocity * abs(t) - dist))
    return total


def verify_reproducing(
    g: FactorGraph,
    mu: float,
    alpha: float,
) -> float:
    """Empirical reproducing constant of G(l) = exp(-mu l) / l^alpha.

    Returns the max over vertex pairs (u, v) of
    sum_{k != u,v} G(d(u,k)) G(d(k,v)) / G(d(u,v)), with geodesic distances.
    """

    def G(dist: int) -> float:
        return math.exp(-mu * dist) / dist**alpha

    vs = list(g.vertices)
    dist_cache: dict[int, dict[int, int]] = {}

    def dists(u: int) -> dict[int, int]:
        if u not in dist_cache:
            dist_cache[u] = dict(hop_distances(g.vertex_adjacency(), [u]))
        return dist_cache[u]

    worst = 0.0
    for u, v in ((u, v) for u in vs for v in vs if u < v):
        du, dv = dists(u), dists(v)
        num = sum(
            G(du[k]) * G(dv[k])
            for k in g.vertices
            if k != u and k != v and du[k] > 0 and dv[k] > 0
        )
        worst = max(worst, num / G(du[v]))
    return worst


def truncation_error_bound(params: BoundParams, t: float, M: float) -> float:
    """Error of truncating the operator expansion at volume M in dimension params.dimension."""
    if M < 1:
        raise ValueError("volume cutoff M must be >= 1")
    d = params.dimension
    mu = params.decay_rate
    vt = params.lr_velocity * abs(t)
    return params.sim_prefactor * math.exp(
        4 * mu * vt - params.sim_decay * mu * M / (vt + params.box_offset) ** (d - 1))
