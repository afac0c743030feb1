"""Causal forests and irreducible factor paths.

A sequence of Hamiltonian factors applied to an operator supported on R can
only generate support on a target region S if the sequence contains a
chain of pairwise-intersecting factors leading from R to S.  The forest
builder records that chain structure; sequences whose forest misses some
target contribute exactly zero, which is what the path-sum bounds exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .lattice import FactorGraph
from .operators import HamiltonianSpec, LocalOperator, commutator, embed, operator_norm

ROOT = ("R",)
PATH_CAP = 2_000_000
VANISHING_QUBIT_CAP = 12  # term_vanishing_check holds dense 2^n x 2^n matrices


@dataclass(frozen=True)
class CausalForest:
    """Output of the forest builder.

    Nodes are ("R",), ("M", n) for the factor at sequence position n (only
    positions that were attached, not absorbed), and ("S", i) for targets.
    ``parent`` holds the attachment edges.  ``causal`` is set when every
    target was attached.
    """

    sequence: tuple[frozenset[int], ...]
    R: frozenset[int]
    S_list: tuple[frozenset[int], ...]
    parent: dict[tuple, tuple]
    causal: bool


@dataclass(frozen=True)
class IrreduciblePath:
    """Non-self-crossing factor chain from R to one target, excluding endpoints."""

    factors: tuple[frozenset[int], ...]
    factor_ids: tuple[int, ...] = ()
    weight: float = 1.0

    def __len__(self) -> int:
        return len(self.factors)


def build_causal_forest(
    M,
    R: set[int] | frozenset[int],
    S_list,
) -> CausalForest | None:
    """Run the forest construction on a factor sequence.

    ``M`` is an iterable of vertex sets.  Walking the sequence in order: a
    factor intersecting nothing earlier kills the whole term (returns None);
    a factor contained in an earlier one is absorbed (no new node);
    otherwise it attaches to its earliest intersecting predecessor.  Targets
    attach as leaves the first time a factor hits them.
    """
    seq = tuple(frozenset(x) for x in M)
    R = frozenset(R)
    S_list = tuple(frozenset(s) for s in S_list)
    for i, S in enumerate(S_list):
        if S & R:
            raise ValueError(f"target {i} intersects R")
        for j in range(i + 1, len(S_list)):
            if S & S_list[j]:
                raise ValueError(f"targets {i} and {j} intersect")

    elements: list[frozenset[int]] = [R]          # element k is M_k, with M_0 = R
    parent: dict[tuple, tuple] = {}
    attached: dict[int, tuple] = {0: ROOT}        # sequence position -> node name
    targets_in: set[int] = set()

    for n, Mn in enumerate(seq, start=1):
        hits = [k for k in range(n) if Mn & elements[k]]
        if not hits:
            return None
        absorbed = any(Mn <= elements[k] for k in hits)
        if not absorbed:
            k = hits[0]
            # the earliest intersecting element is never an absorbed factor,
            # so it always owns a node
            parent[("M", n)] = attached[k]
            attached[n] = ("M", n)
        else:
            attached[n] = attached[hits[0]]
        elements.append(Mn)
        for i, S in enumerate(S_list):
            if i not in targets_in and S & Mn:
                parent[("S", i)] = ("M", n) if not absorbed else attached[n]
                targets_in.add(i)

    return CausalForest(
        sequence=seq,
        R=R,
        S_list=S_list,
        parent=parent,
        causal=len(targets_in) == len(S_list),
    )


def enumerate_irreducible_paths(
    g: FactorGraph,
    R: set[int] | frozenset[int],
    S: set[int] | frozenset[int],
    B: set[int] | frozenset[int],
    max_len: int,
    norms: dict[int, float] | None = None,
    cap: int = PATH_CAP,
) -> list[IrreduciblePath]:
    """All non-self-crossing factor paths from R to S staying near B.

    Every factor on the path must intersect B; the first must additionally
    intersect R and the last must intersect S.  Consecutive factors
    intersect and no factor repeats.
    """
    R, S, B = frozenset(R), frozenset(S), frozenset(B)
    if not S <= B:
        raise ValueError("S must be contained in B")
    if B & R:
        raise ValueError("B must be disjoint from R")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    allowed = [i for i, X in enumerate(g.factors) if X & B]
    allowed_set = set(allowed)
    touches = {i: g.factors[i] for i in allowed}
    neighbors: dict[int, list[int]] = {}
    for i in allowed:
        nbrs = set()
        for v in touches[i]:
            nbrs.update(f for f in g.factors_at(v) if f in allowed_set and f != i)
        neighbors[i] = sorted(nbrs)

    results: list[IrreduciblePath] = []

    def extend(path: list[int], used: set[int]):
        last = path[-1]
        if touches[last] & S:
            ids = tuple(path)
            weight = 1.0
            if norms is not None:
                for i in ids:
                    weight *= norms[i]
            results.append(IrreduciblePath(
                factors=tuple(g.factors[i] for i in ids), factor_ids=ids, weight=weight))
            if len(results) > cap:
                raise CapExceededError(f"path count exceeds cap {cap}")
        if len(path) == max_len:
            return
        for nxt in neighbors[last]:
            if nxt not in used:
                extend(path + [nxt], used | {nxt})

    for start in sorted(i for i in allowed if touches[i] & R):
        extend([start], {start})
    return results


def term_vanishing_check(
    g: FactorGraph,
    H: HamiltonianSpec,
    ids,
    R: set[int],
    S_list,
    A: LocalOperator,
    O_list: list[LocalOperator],
) -> tuple[CausalForest | None, float]:
    """Evaluate one expansion term densely and pair it with the forest verdict.

    The term is ad_{O_m} ... ad_{O_1} L_{M_n} ... L_{M_1} |A) with
    L_X = i ad_{H_X}, where M_1 ... M_n are the factors of g numbered
    ``ids``, on the register of all of H's sites; each term and probe enters
    through ``operators.commutator``, never embedded.  A missing forest must
    force the norm to zero.
    """
    ids = tuple(ids)
    region = tuple(sorted(H.vertices()))
    n = len(region)
    if n > VANISHING_QUBIT_CAP:
        raise CapExceededError(f"region of {n} qubits exceeds cap {VANISHING_QUBIT_CAP}")
    off = sorted({s for O in O_list for s in O.support} - set(region))
    if off:
        raise ValueError(f"probe sites {off} are not sites of the Hamiltonian")
    term_by_support = {t.support: t for t in H.terms}
    cur = embed(A.matrix, A.support, region)
    for i in ids:
        X = g.factors[i]
        term = term_by_support.get(X)
        if term is None:
            raise ValueError(f"Hamiltonian has no term on factor {sorted(X)}")
        cur = 1j * commutator(term.matrix, [region.index(v) for v in sorted(X)], cur, n)
    for O in O_list:
        cur = commutator(O.matrix, [region.index(v) for v in O.support], cur, n)
    forest = build_causal_forest([g.factors[i] for i in ids], R, S_list)
    return forest, operator_norm(np.asarray(cur))
