"""Operator algebra on qubit registers: dense for small regions, sparse up to 20 qubits.

Everything here is exact up to floating point.  One vector propagator,
``expm_multiply`` (one Chebyshev recurrence per region and time grid, on the
sparse region Hamiltonian, scaled by ``shift_and_radius`` from the terms),
serves both pictures: expectation values evolve the state vector, up to
VECTOR_QUBIT_CAP qubits, and Heisenberg evolution evolves a block of
columns whose Gram matrix is the operator, up to DEFAULT_QUBIT_CAP.
``nested_commutator_norm`` keeps that block as factors of the commutator,
so for up to two probes on a one-site operator it makes no 2^n x 2^n
array.  ``commutator`` takes [M, C] for a few-qubit M by
applying M on its own qubits, never embedded.  ``operator_norm`` takes the
largest eigenvalue of a Gram matrix, never an SVD.  A Hamiltonian without
imaginary entries is assembled and evolved in real arithmetic; real vectors
stay real under it.  A block's column chunks are evolved concurrently, one
per CPU the process may run on, and a large product of a vector has its
rows split across those CPUs, with the same bits at any count.  Only
``ssb.symmetric_unitary`` still diagonalizes a region Hamiltonian
(``evolution_unitary``).  These routines are the oracle
the closed-form bounds and the cluster simulator are checked against, so
clarity beats cleverness.

Qubit ordering convention: a region is a sorted tuple of vertex ids and the
first (smallest) vertex is the most significant kron factor.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .errors import CapExceededError, ConfigError
from .lattice import FactorGraph, enumerate_connected_subsets

DEFAULT_QUBIT_CAP = 14  # dense 2^n x 2^n matrices
VECTOR_QUBIT_CAP = DEFAULT_QUBIT_CAP + 6  # 2^n state vectors and sparse region Hamiltonians
SPARSE_BYTES_CAP = 2 << 30  # peak bytes of assembling one sparse region Hamiltonian
HERMITICITY_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class LocalOperator:
    """Dense operator on qubits; kron factor i of ``matrix`` acts on ``support[i]``.

    Stored with the support sorted, the factors of an unsorted one permuted to match.
    """

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        n = len(support)
        if len(set(support)) != n:
            raise ValueError(f"repeated site in support {list(support)}")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match 2**{n}")
        order = sorted(range(n), key=support.__getitem__)
        if order != list(range(n)):
            axes = order + [n + i for i in order]
            mat = mat.reshape((2,) * (2 * n)).transpose(axes).reshape(dim, dim)
            support = tuple(support[i] for i in order)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)


def pauli_operator(label: str, sites: tuple[int, ...] | list[int]) -> LocalOperator:
    """Tensor product of Pauli matrices, e.g. pauli_operator("XZ", (0, 3))."""
    sites = tuple(sites)
    if len(label) != len(sites):
        raise ValueError("one Pauli letter per site")
    return LocalOperator(sites, kron_all(PAULI[c] for c in label))


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(matrix: np.ndarray, support: tuple[int, ...], region: tuple[int, ...]) -> np.ndarray:
    """Embed an operator on ``support`` into the larger ``region`` register.

    ``support`` and ``region`` are position tuples in the same label space;
    every support element must appear in region.
    """
    region = tuple(region)
    support = tuple(support)
    n = len(region)
    k = len(support)
    pos = []
    for s in support:
        try:
            pos.append(region.index(s))
        except ValueError:
            raise ValueError(f"support site {s} not contained in region") from None
    if k == n and pos == list(range(n)):
        return np.asarray(matrix, dtype=complex)
    rest = [i for i in range(n) if i not in pos]
    full = np.kron(np.asarray(matrix, dtype=complex), np.eye(2 ** (n - k), dtype=complex))
    cur = pos + rest
    perm = [cur.index(i) for i in range(n)]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def apply_local(matrix: np.ndarray, positions: list[int], X: np.ndarray, n: int) -> np.ndarray:
    """Apply a k-qubit matrix at the given qubit positions of the first index of X.

    X is a 2^n vector or a 2^n x M matrix.  The second index of a matrix is
    reached through transposes, which are views:
    ``apply_local(m.T, positions, X.T, n).T`` is X times m on that index.
    """
    k = len(positions)
    t = np.moveaxis(X.reshape((2,) * n + X.shape[1:]), positions, range(k))
    t = (matrix @ t.reshape(2**k, -1)).reshape(t.shape)
    return np.moveaxis(t, range(k), positions).reshape(X.shape)


def commutator(matrix: np.ndarray, positions: list[int], C: np.ndarray, n: int) -> np.ndarray:
    """[M, C] for a k-qubit matrix M at the given qubit positions and a 2^n x 2^n C.

    M is applied on its own qubits by ``apply_local``, from the left and,
    through transposes, from the right, so M is never embedded.
    """
    out = apply_local(matrix, positions, C, n)
    out -= apply_local(matrix.T, positions, C.T, n).T
    return out


def _hermiticity_gap(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def operator_norm(op: LocalOperator | np.ndarray) -> float:
    """Spectral norm of a matrix M: scale * sqrt(lam_max(G)), with no SVD.

    G is the Gram matrix of M / scale on its shorter side: M M^dagger, or
    M^T conj(M) for a tall M, which has the eigenvalues of M^dagger M.  It is
    one BLAS product (``_gram``), and ``eigvalsh`` takes its eigenvalues
    without vectors.  The scale, the largest |entry|, keeps the squares
    from underflowing or overflowing.
    """
    mat = op.matrix if isinstance(op, LocalOperator) else np.asarray(op)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.max(np.abs(mat), initial=0.0))
    if scale == 0.0:
        return 0.0
    side = np.divide(mat.T if mat.shape[0] > mat.shape[1] else mat, scale, order="C")
    gram = _gram(side)
    del side
    return scale * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


@dataclass(frozen=True)
class HamTerm:
    support: frozenset[int]
    matrix: np.ndarray
    norm: float


def exact_bytes(array: np.ndarray) -> bytes:
    """The entries as complex bytes, the sign of zero cleared: equal bytes, equal entries."""
    return (np.asarray(array, dtype=complex) + 0.0).tobytes()


def _kind_key(matrix: np.ndarray) -> tuple:
    return np.shape(matrix), exact_bytes(matrix)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Sum of few-body Hermitian terms, optionally with a quasilocal envelope.

    The envelope (h, kappa) asserts that every term obeys
    norm <= h * exp(-kappa * support_size).

    ``kinds`` are the distinct term matrices: two terms share a kind when
    their entries are equal, the sign of zero cleared (``exact_bytes``), and
    ``term_kinds[i]`` is the kind of term i.  The terms of one kind share
    one read-only complex array, so an in-place edit raises instead of
    changing every term of the kind.  Every step that reads only a term's
    matrix runs once per kind: the Hermiticity check, the centers and group
    radii of ``spectral_groups``, the flip pieces of ``hamiltonian_matrix``
    and the views of ``simulate.ComponentClasses``.
    """

    terms: tuple[HamTerm, ...]
    envelope: tuple[float, float] | None = None
    graph: FactorGraph | None = field(default=None, repr=False)
    kinds: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    term_kinds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[tuple, int] = {}
        kinds: list[np.ndarray] = []
        term_kinds = []
        for term in self.terms:
            key = _kind_key(term.matrix)
            if key not in index:
                matrix = np.array(term.matrix, dtype=complex)
                gap = _hermiticity_gap(matrix)
                if gap > HERMITICITY_TOL:
                    raise ValueError(f"non-Hermitian term on {sorted(term.support)} (gap {gap:.2e})")
                matrix.setflags(write=False)
                index[key] = len(kinds)
                kinds.append(matrix)
            term_kinds.append(index[key])
        object.__setattr__(self, "terms", tuple(
            HamTerm(term.support, kinds[kind], term.norm)
            for term, kind in zip(self.terms, term_kinds)))
        object.__setattr__(self, "kinds", tuple(kinds))
        object.__setattr__(self, "term_kinds", tuple(term_kinds))

    def vertices(self) -> tuple[int, ...]:
        if self.graph is not None:
            return tuple(self.graph.vertices)
        out: set[int] = set()
        for t in self.terms:
            out |= t.support
        return tuple(sorted(out))

    def factor_graph(self) -> FactorGraph:
        """Factor graph whose factors are the term supports."""
        return FactorGraph(
            vertices=self.vertices(),
            factors=tuple(t.support for t in self.terms),
            dimension=self.graph.dimension if self.graph else 1,
            side=self.graph.side if self.graph else None,
            coords=dict(self.graph.coords) if self.graph else {},
        )

    @cached_property
    def spectral_groups(self) -> tuple[tuple[float, ...], tuple[float, ...],
                                       dict[int, tuple[int, float]]]:
        """(centers, radii, shares): the pieces of ``shift_and_radius``, taken once.

        ``centers[i]`` is tr(h)/2^k of term i.  A group is one multi-site
        term plus an even share h_v / d_v of the single-site terms h_v on
        each of its sites v, where d_v counts the multi-site terms on v;
        ``radii[i]`` is ||h_g - tr(h_g)/2^k||, from ``eigvalsh``, for the
        group of a multi-site term i, else 0.  ``shares[v]`` is
        (max(d_v, 1), ||h_v - tr(h_v)/2|| / max(d_v, 1)): a site on no
        multi-site term is one group of its own.

        Centers are taken once per kind and radii once per distinct group.
        A group's matrix is fixed by its term's kind and, for each of its
        sites in order, the kinds of the single-site terms there and d_v,
        so groups that agree on those share one ``_centered_radius``, and
        sites whose single-site terms have the same kinds share one h_v
        radius.
        """
        single: dict[int, np.ndarray] = {}
        single_kinds: dict[int, tuple[int, ...]] = {}
        degree: Counter = Counter()
        for term, kind in zip(self.terms, self.term_kinds):
            if len(term.support) == 1:
                (v,) = term.support
                single[v] = single[v] + term.matrix if v in single else term.matrix
                single_kinds[v] = single_kinds.get(v, ()) + (kind,)
            elif len(term.support) > 1:
                degree.update(term.support)
        center_of = [float(np.trace(m).real) / len(m) for m in self.kinds]
        group_radius: dict[tuple, float] = {}  # (kind, per site: its single kinds and d_v)
        radii = []
        for term, kind in zip(self.terms, self.term_kinds):
            if len(term.support) > 1:
                sites = tuple(sorted(term.support))
                key = (kind, tuple((single_kinds.get(v), degree[v]) for v in sites))
                if key not in group_radius:
                    group = term.matrix.copy()
                    for v in sites:
                        if v in single:
                            group += embed(single[v] / degree[v], (v,), sites)
                    group_radius[key] = _centered_radius(group)
                radii.append(group_radius[key])
            else:
                radii.append(0.0)
        site_radius: dict[tuple[int, ...], float] = {}  # single kinds on a site -> radius
        shares = {}
        for v, h in single.items():
            if single_kinds[v] not in site_radius:
                site_radius[single_kinds[v]] = _centered_radius(h)
            count = max(degree[v], 1)
            shares[v] = (count, site_radius[single_kinds[v]] / count)
        return tuple(center_of[kind] for kind in self.term_kinds), tuple(radii), shares

    @cached_property
    def flip_pieces(self) -> tuple[tuple[tuple[int, np.ndarray, bool], ...], ...]:
        """Per kind, its ``_flip_pieces``: read once per kind for ``hamiltonian_matrix``."""
        return tuple(_flip_pieces(matrix) for matrix in self.kinds)

    def coupling_degree(self) -> int:
        """Max vertex degree of the graph where u ~ v if a term contains both."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for t in self.terms:
            for u, v in itertools.combinations(sorted(t.support), 2):
                adj[u].add(v)
                adj[v].add(u)
        return max((len(s) for s in adj.values()), default=0)


def hamiltonian_matrix(
    H: HamiltonianSpec,
    region: tuple[int, ...],
    sparse: bool = False,
):
    """The Hamiltonian restricted to terms fully inside ``region``.

    Built in one pass over flip masks.  A term entry M[a, b] connects basis
    states x and x ^ mask, where mask is the bit flip a ^ b placed on the
    term's region bits.  So every term adds one value per row to a handful
    of global masks.  A term's nonzero flips and their values are read once
    per kind (``HamiltonianSpec.flip_pieces``); per region only their masks
    are placed.  Each mask has one contiguous row of 2^n values, and a
    term's 2^k values are added into it, in term order, by broadcasting
    over a (2^a, 2, 2^b, ...) view that gives each of the term's qubits an
    axis of its own, so no row is gathered through an index array.  One
    transpose puts the values in CSR row order, and the column indices are
    rows ^ masks in one broadcast.  Values that vanish are not stored.
    Returns the CSR matrix, with sorted indices, if ``sparse``, else its
    dense array.

    The matrix is float64 when no term entry has an imaginary part (tfim,
    heisenberg: Y (x) Y is real), decided from the flip pieces before the
    value block is allocated, so a real Hamiltonian takes 8 bytes per value
    and ``expm_multiply`` evolves it in real arithmetic; otherwise complex.

    Raises CapExceededError, before anything 2^n-sized is allocated, when
    the assembly would peak above SPARSE_BYTES_CAP.  The estimate counts
    two dim x len(masks) value blocks, two index blocks and the ``stored``
    mask, more than are ever alive at once: the blocks before and after the
    transpose, then the values, the column indices, the mask and one
    compacted copy.
    """
    region = tuple(sorted(region))
    inside = frozenset(region)
    n = len(region)
    dim = 1 << n
    position = {v: i for i, v in enumerate(region)}
    pieces = []  # (global mask, the term's value per local row, its sites' region positions)
    real = True
    for term, kind in zip(H.terms, H.term_kinds):
        if not term.support <= inside:
            continue
        at = [position[v] for v in sorted(term.support)]
        k = len(at)
        for f, values, imaginary in H.flip_pieces[kind]:
            mask = sum(1 << (n - 1 - p) for j, p in enumerate(at) if f >> (k - 1 - j) & 1)
            pieces.append((mask, values, at))
            real = real and not imaginary
    masks = sorted({mask for mask, _, _ in pieces})
    column = {mask: j for j, mask in enumerate(masks)}
    dtype = np.float64 if real else complex
    entries = dim * len(masks)
    idx = np.int32 if entries < 2**31 else np.int64
    index_bytes = np.dtype(idx).itemsize
    value_bytes = np.dtype(dtype).itemsize
    estimate = entries * (2 * (value_bytes + index_bytes) + 1) + (dim + 1) * index_bytes
    if estimate > SPARSE_BYTES_CAP:
        raise CapExceededError(
            f"assembling {n} qubits with {len(masks)} flip masks needs about {estimate} bytes,"
            f" above the cap of {SPARSE_BYTES_CAP}")
    data = np.zeros((len(masks), dim), dtype=dtype)
    for mask, values, at in pieces:
        _add_on_qubits(data[column[mask]], values.real if real else values, at, n)
    data = np.ascontiguousarray(data.T)  # row x holds its values for every mask
    rows = np.arange(dim, dtype=idx)
    indices = rows[:, None] ^ np.array(masks, dtype=idx)
    if np.count_nonzero(data) < entries:  # compact the zeros away
        stored = data != 0
        indptr = np.zeros(dim + 1, dtype=idx)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        data = data[stored]
        indices = indices[stored]
        del stored
    else:
        indptr = np.arange(dim + 1, dtype=idx) * len(masks)
    out = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(dim, dim))
    out.sort_indices()
    return out if sparse else out.toarray()


def _flip_pieces(matrix: np.ndarray) -> tuple[tuple[int, np.ndarray, bool], ...]:
    """(f, values, imaginary?) for each flip f of a term matrix M with a nonzero value.

    ``values`` holds M[a, a ^ f] for every local row a, and ``imaginary``
    says whether any of them has an imaginary part.
    """
    local = np.arange(len(matrix))
    out = []
    for f in range(len(matrix)):
        values = matrix[local, local ^ f]
        if np.any(values):
            out.append((f, values, bool(np.any(values.imag))))
    return tuple(out)


def _add_on_qubits(row: np.ndarray, values: np.ndarray, positions: list[int], n: int):
    """Add a term's 2^k values, one per state of its sorted qubit ``positions``, to a 2^n row.

    The row is viewed as (2^a, 2, 2^b, 2, ..., 2^c), which gives each of
    those qubits an axis of its own and merges the runs of other qubits
    between them, and the values, shaped (1, 2, 1, 2, ..., 1), broadcast
    over it in place.
    """
    shape, value_shape, prev = [], [], -1
    for p in positions:
        shape += [1 << (p - prev - 1), 2]
        value_shape += [1, 2]
        prev = p
    view = row.reshape(shape + [1 << (n - 1 - prev)])
    view += values.reshape(value_shape + [1])


def evolution_unitary(H: HamiltonianSpec, region: tuple[int, ...], t: float) -> np.ndarray:
    """exp(i t H_region) by numpy's ``eigh`` of the dense region Hamiltonian, for ``ssb``.

    A real Hamiltonian (tfim, heisenberg) is diagonalized as a real
    symmetric matrix, several times faster than a complex one, and its real
    eigenvectors make U from two real products.  LAPACK's divide-and-conquer
    driver keeps the eigenvectors orthogonal to about 1e-15.  A region above
    DEFAULT_QUBIT_CAP raises CapExceededError before anything is assembled.
    """
    if len(region) > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"region of {len(region)} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    w, V = np.linalg.eigh(hamiltonian_matrix(H, region, sparse=True).toarray())
    phase = np.exp(1j * t * w)
    if np.isrealobj(V):
        # two real products cost half of one complex product with V cast to complex
        U = np.empty(V.shape, dtype=complex)
        U.real = (V * phase.real) @ V.T
        U.imag = (V * phase.imag) @ V.T
        return U
    scaled = V * phase
    np.conj(V, out=V)
    return scaled @ V.T


def heisenberg_evolve(
    H: HamiltonianSpec,
    A: LocalOperator,
    t: float,
    region: tuple[int, ...] | list[int],
) -> LocalOperator:
    """A(t) = exp(iHt) A exp(-iHt) on ``region``, with H restricted to terms inside it.

    A(t) = lam_min + Z Z^dagger with (lam_min, Z) from ``_evolved_factor``,
    so no 2^n x 2^n matrix is diagonalized, and the result is Hermitian to
    the last bit.  Raises as ``_evolved_factor`` does.
    """
    region = tuple(sorted(region))
    lam_min, Z = _evolved_factor(H, A, t, region)
    out = _gram(Z)
    del Z
    out.real[np.diag_indices(len(out))] += lam_min
    return LocalOperator(region, out)


def _evolved_factor(
    H: HamiltonianSpec,
    A: LocalOperator,
    t: float,
    region: tuple[int, ...],
) -> tuple[float, np.ndarray]:
    """(lam_min, Z) with A(t) = lam_min + Z Z^dagger on the sorted ``region``.

    A is factored on its own k sites: with lam its eigenvalues, W its
    eigenvectors and w = lam - lam_min, A - lam_min = F F^dagger for
    F = W sqrt(w), keeping the columns of nonzero weight (r of them: 2^{k-1}
    for a one-site operator or a Pauli string, none for a multiple of the
    identity).  Z = exp(iHt) (F (x) 1) is a 2^n x r 2^{n-k} block evolved by
    ``expm_multiply`` on the sparse region Hamiltonian, with its shift and
    radius from ``shift_and_radius``.

    Raises ValueError for a non-Hermitian A or a support outside the
    region, and CapExceededError for a region above DEFAULT_QUBIT_CAP,
    before the region Hamiltonian is assembled.
    """
    if not set(A.support) <= set(region):
        raise ValueError("region must contain the operator support")
    n = len(region)
    if n > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"region of {n} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    gap = _hermiticity_gap(A.matrix)
    if gap > HERMITICITY_TOL:
        raise ValueError(f"operator on {list(A.support)} is not Hermitian (gap {gap:.2e})")
    lam, W = np.linalg.eigh(A.matrix if np.any(A.matrix.imag) else A.matrix.real)
    weight = lam - lam[0]
    keep = weight > 0
    F = W[:, keep] * np.sqrt(weight[keep])
    Z = _place_columns(F, [region.index(s) for s in A.support], n)
    H_sp = hamiltonian_matrix(H, region, sparse=True)
    mu, radius = shift_and_radius(H, region)
    return float(lam[0]), expm_multiply(H_sp, Z, -t, mu, radius)


def _place_columns(F: np.ndarray, positions: list[int], n: int) -> np.ndarray:
    """F (x) 1 with F's rows on the qubits at ``positions``: a 2^n x r 2^{n-k} block.

    Column (j, b) is column j of F on those qubits times basis state b of
    the other n - k, so row x holds F[x on positions, j] when x agrees with
    b on the other qubits, and zero otherwise.
    """

    def rows(qubits):  # the 2^n row index of each basis state of these qubits
        local = np.arange(1 << len(qubits))
        out = np.zeros_like(local)
        for j, q in enumerate(qubits):
            out |= ((local >> (len(qubits) - 1 - j)) & 1) << (n - 1 - q)
        return out

    other = rows([q for q in range(n) if q not in positions])
    block = np.zeros((1 << n, F.shape[1], len(other)), dtype=F.dtype)
    block[rows(positions)[:, None] | other, :, np.arange(len(other))] = F[:, None, :]
    return block.reshape(1 << n, -1)


def _gram(Z: np.ndarray) -> np.ndarray:
    """Z Z^dagger from real products, Hermitian to the last bit.

    With Z = X + iY, the real part X X^T + Y Y^T is the product of Z's
    (re, im) column pairs with their own transpose, which numpy hands to
    BLAS as a symmetric rank-k update (half a product, symmetric on
    output), and the imaginary part is S - S^T with S = Y X^T.  Together
    they cost half the complex product Z conj(Z)^T.
    """
    pairs = Z.view(np.float64)
    out = np.empty((Z.shape[0],) * 2, dtype=complex)
    out.real = pairs @ pairs.T
    S = Z.imag @ Z.real.T
    out.imag = S
    out.imag -= S.T
    return out


def nested_commutator_norm(
    H: HamiltonianSpec,
    A: LocalOperator,
    O_list: list[LocalOperator],
    t: float,
    region: tuple[int, ...] | list[int],
) -> float:
    """(1/2^m) * norm of [O_m, [..., [O_1, A(t)]]], exact, on the region.

    A and the probes O_i must be Hermitian, the probes of norm 1 on disjoint
    supports, and O_m must have at most two distinct eigenvalues (a Pauli
    string or any one-site operator has); otherwise ValueError, raised
    before anything 2^n-sized is allocated, as is CapExceededError for a
    region above DEFAULT_QUBIT_CAP.  With m = 0 it is ||A||.

    A(t) = lam_min + Z Z^dagger (``_evolved_factor``), and lam_min drops
    out of every commutator.  The probes commute, so the j = m - 1 inner
    ones give C = i^-j sum_s L_s L_{s^c}^dagger over the subsets s of them,
    with L_s = i^|s| O_s Z applied on the probe sites (``apply_local``).
    With O_m = lam_- + (lam_+ - lam_-) P, P = W_b W_b^dagger and
    1 - P = W_a W_a^dagger on its sites, ||[O_m, C]|| = |lam_+ - lam_-| ||B||
    for B = (W_a^dagger (x) 1) C (W_b (x) 1) = sum_s X_s Y_{s^c}^dagger,
    where X_s and Y_s are the row projections of L_s (``_project_rows``).
    The blocks L_s are kept while they have at most 2^n columns in all, as
    for m <= 2 with a one-site A, so no 2^n x 2^n array is made; a longer
    list multiplies Z Z^dagger out once and takes the inner probes with
    ``commutator``, so no m needs more memory than that dense C.
    """
    region = tuple(sorted(region))
    taken: set[int] = set(A.support)
    for O in O_list:
        overlap = taken & set(O.support)
        if overlap:
            raise ValueError(f"overlapping supports at {sorted(overlap)}")
        taken |= set(O.support)
        norm = operator_norm(O)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"probe operator norm {norm} is not 1")
    for op in [A, *O_list]:
        gap = _hermiticity_gap(op.matrix)
        if gap > HERMITICITY_TOL:
            raise ValueError(f"operator on {list(op.support)} is not Hermitian (gap {gap:.2e})")
    if not taken <= set(region):
        raise ValueError("region must contain all supports")
    if len(region) > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"region of {len(region)} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    if not O_list:
        return operator_norm(A)
    *inner, last = O_list
    lam, W = np.linalg.eigh(last.matrix)
    split = np.nonzero(np.diff(lam) > HERMITICITY_TOL)[0] + 1
    if len(split) > 1:
        raise ValueError(f"last probe has {len(split) + 1} distinct eigenvalues, not at most 2")
    if not len(split):
        return 0.0  # O_m is a multiple of the identity
    n = len(region)
    *inner_at, last_at = [[region.index(s) for s in O.support] for O in O_list]
    lower = split[0]
    W_a, W_b = W[:, :lower], W[:, lower:]
    _, Z = _evolved_factor(H, A, t, region)
    if Z.shape[1] << len(inner) <= 1 << n:
        L = [Z]
        del Z
        for O, at in zip(inner, inner_at):
            L += [apply_local(1j * O.matrix, at, block, n) for block in L]
        X, Y = [], []
        while L:  # each block is freed once projected
            block = L.pop(0)
            X.append(_project_rows(W_a, last_at, block, n))
            Y.append(_project_rows(W_b, last_at, block, n))
            np.conjugate(Y[-1], out=Y[-1])
            del block
        B = X[0] @ Y[-1].T
        for x, y in zip(X[1:], Y[-2::-1]):
            B += x @ y.T
        del X, Y
    else:  # the blocks would outgrow a dense C: multiply it out once
        C = _gram(Z)
        del Z
        for O, at in zip(inner, inner_at):
            C = commutator(O.matrix, at, C, n)
        X = _project_rows(W_a, last_at, C, n)
        del C
        B = _project_rows(W_b.conj(), last_at, X.T, n)  # B^T, of the same norm
        del X
    gap = lam[lower:].mean() - lam[:lower].mean()
    return float(gap * operator_norm(B)) / 2 ** len(O_list)


def _project_rows(W: np.ndarray, positions: list[int], M: np.ndarray, n: int) -> np.ndarray:
    """(W^dagger (x) 1) M for W with orthonormal columns on the qubits at ``positions``.

    M has 2^n rows and any strides.  Each basis state a of those qubits
    picks a strided view of M's rows, and row block i of the result is the
    sum over a of conj(W[a, i]) times that view, so M is never copied.  The
    result has r 2^{n-k} rows for W's r columns, ordered (i, other qubits).
    """
    k = len(positions)
    T = M.reshape((2,) * n + M.shape[1:])
    views = []
    for a in range(1 << k):
        index = [slice(None)] * n
        for j, p in enumerate(positions):
            index[p] = a >> (k - 1 - j) & 1
        views.append(T[tuple(index)])
    out = np.empty((W.shape[1],) + views[0].shape, dtype=complex)
    scratch = None
    for row, weights in zip(out, W.conj().T):
        (w, view), *rest = [(w, view) for w, view in zip(weights, views) if w]
        np.multiply(view, w, out=row)
        for w, view in rest:
            if scratch is None:
                scratch = np.empty_like(row)
            np.multiply(view, w, out=scratch)
            row += scratch
    return out.reshape((W.shape[1] << (n - k),) + M.shape[1:])


def build_named_hamiltonian(name: str, g: FactorGraph, params: dict | None = None) -> HamiltonianSpec:
    """Construct one of the bundled model Hamiltonians on a factor graph.

    Models: "tfim" (J, g), "heisenberg" (Jx, Jy, Jz), "random2local"
    (seed, scale), "quasilocal" (h, kappa, s_max, seed).  Each distinct
    term matrix is built once and its norm taken once (``_terms``).  Terms
    with zero norm are pruned.
    """
    params = dict(params or {})
    pair_factors = [X for X in g.factors if len(X) == 2]
    envelope = None
    if name == "tfim":
        J = float(params.pop("J", 1.0))
        gx = float(params.pop("g", 0.0))
        zz = -J * kron_all([PAULI["Z"], PAULI["Z"]])
        x = -gx * PAULI["X"]
        pairs = [(X, zz) for X in pair_factors] + [((v,), x) for v in g.vertices]
    elif name == "heisenberg":
        Jx = float(params.pop("Jx", 1.0))
        Jy = float(params.pop("Jy", 1.0))
        Jz = float(params.pop("Jz", 1.0))
        mat = (
            Jx * kron_all([PAULI["X"], PAULI["X"]])
            + Jy * kron_all([PAULI["Y"], PAULI["Y"]])
            + Jz * kron_all([PAULI["Z"], PAULI["Z"]])
        )
        pairs = [(X, mat) for X in pair_factors]
    elif name == "random2local":
        seed = int(params.pop("seed", 0))
        scale = float(params.pop("scale", 1.0))
        rng = np.random.default_rng(seed)
        pairs = []
        for X in pair_factors:
            G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            M = G + G.conj().T
            M *= scale * rng.uniform(0.5, 1.0) / np.linalg.norm(M, 2)
            pairs.append((X, M))
    elif name == "quasilocal":
        h = float(params.pop("h", 1.0))
        kappa = float(params.pop("kappa", 2.0))
        s_max = int(params.pop("s_max", 3))
        seed = int(params.pop("seed", 0))
        rng = np.random.default_rng(seed)
        adj = g.vertex_adjacency()
        pairs = []
        for size in range(1, s_max + 1):
            subsets: set[tuple[int, ...]] = set()
            for root in g.vertices:
                for sub in enumerate_connected_subsets(adj, root, size):
                    if min(sub) == root:
                        subsets.add(sub)
            for sub in sorted(subsets):
                letters = "".join(rng.choice(["X", "Y", "Z"]) for _ in sub)
                base = pauli_operator(letters, sub)
                pairs.append((sub, h * math.exp(-kappa * size) * base.matrix))
        envelope = (h, kappa)
    else:
        raise ConfigError(f"unknown model {name!r}")
    if params:
        raise ConfigError(f"unknown parameters {sorted(params)} for model {name!r}")
    return HamiltonianSpec(_terms(pairs), envelope=envelope, graph=g)


def _terms(pairs) -> tuple[HamTerm, ...]:
    """The terms of (support, matrix) pairs with a nonzero norm.

    The norm, ``np.linalg.norm(matrix, 2)`` (an SVD), is taken once per
    distinct matrix, keyed as ``HamiltonianSpec`` keys its kinds.
    """
    norms: dict[tuple, float] = {}
    out = []
    for support, matrix in pairs:
        key = _kind_key(matrix)
        if key not in norms:
            norms[key] = float(np.linalg.norm(matrix, 2))
        if norms[key] > 1e-15:
            out.append(HamTerm(frozenset(support), matrix, norms[key]))
    return tuple(out)


def time_grid(t) -> tuple[list[float], bool]:
    """(times, scalar): a single time becomes a one-point grid."""
    if np.ndim(t) == 0:
        return [float(t)], True
    return [float(x) for x in t], False


CHEBYSHEV_TAIL = 2.0**-53  # bound on the dropped terms, relative to the state's norm


def shift_and_radius(H: HamiltonianSpec, region) -> tuple[float, float]:
    """(mu, R) with the spectrum of H on ``region`` inside [mu - R, mu + R], from its terms.

    mu = tr(H)/dim is the sum of tr(h)/2^k over the terms inside the region.
    R is the sum of ||h_g - tr(h_g)/2^k|| over the groups of
    ``HamiltonianSpec.spectral_groups``, a bound by the triangle inequality:
    each multi-site term inside the region is a group with its sites'
    shares, and a site's share for a multi-site term outside the region is
    a group of its own.  The group radii are taken once per distinct group
    of the Hamiltonian, so a region costs one pass over its terms and no
    pass over the matrix.
    """
    region = frozenset(region)
    centers, radii, shares = H.spectral_groups
    mu = radius = 0.0
    grouped: Counter = Counter()  # multi-site terms inside the region, per site
    for term, center, group in zip(H.terms, centers, radii):
        if term.support <= region:
            mu += center
            if len(term.support) > 1:
                radius += group
                grouped.update(term.support)
    for v in sorted(region):
        if v in shares:
            count, share = shares[v]
            radius += (count - grouped[v]) * share
    return mu, radius


def _centered_radius(h: np.ndarray) -> float:
    """||h - tr(h)/dim|| for a Hermitian h: the larger distance of its spectrum from its mean."""
    w = np.linalg.eigvalsh(h)
    center = float(np.trace(h).real) / len(h)
    return float(max(w[-1] - center, center - w[0]))


def _chebyshev_degree(x: float) -> int:
    """The least degree K whose dropped tail, the sum of 2|J_k(x)| over k > K, is small.

    Small means at most CHEBYSHEV_TAIL, by the fixed a-priori bound
    |J_k(x)| <= (|x|/2)^k / k!, not an estimate: once the ratio
    q = (|x|/2) / (k+1) of consecutive bounds is below 1, the bounds from
    term k on sum to at most term k / (1 - q).
    """
    half = abs(x) / 2
    if half == 0:
        return 0
    K = max(0, math.floor(half) - 1)  # below this, q >= 1
    while True:
        k = K + 1
        log_tail = (math.log(2) + k * math.log(half) - math.lgamma(k + 1)
                    - math.log1p(-half / (k + 1)))
        if log_tail <= math.log(CHEBYSHEV_TAIL):
            return K
        K += 1


def _chebyshev_coefficients(x: float, K: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k = 0..K, the expansion of exp(-i x y) in T_k(y).

    By Jacobi-Anger, exp(-i x cos tau) = sum over all integers k of
    (-i)^k J_k(x) exp(i k tau), so the FFT of N >= 2K + 2 samples gives
    (-i)^k J_k(x) plus aliased terms of order above K + 1, which the
    tail bound of ``_chebyshev_degree`` already covers.
    """
    N = 1 << (2 * K + 1).bit_length()
    samples = np.exp(-1j * x * np.cos(2 * np.pi * np.arange(N) / N))
    coef = np.fft.fft(samples)[:K + 1] / N
    coef[1:] *= 2
    return coef


def expm_multiply(H_sp: sp.csr_matrix, psi: np.ndarray, times, mu: float, radius: float,
                  observe=None):
    """exp(-i t H) psi for every t of a grid: one Chebyshev recurrence (Tal-Ezer & Kosloff 1984).

    ``mu`` and ``radius`` are ``shift_and_radius(H, region)``: the spectrum
    of the Hermitian H lies in [mu - radius, mu + radius], so
    G = (H - mu) / radius has its spectrum in [-1, 1] and

        exp(-i t H) = exp(-i mu t) sum_k (2 - delta_k0) (-i)^k J_k(radius t) T_k(G).

    The degree grows with radius * t, so a tighter radius means fewer
    products.  A step of radius * |step| above CHEBYSHEV_ARGUMENT_CAP, or
    not finite, raises CapExceededError before any degree is computed.

    The vectors T_k(G) psi do not depend on t, so one three-term recurrence
    serves the whole grid, and each grid point keeps one accumulator.  Each
    degree is one product of the unscaled CSR with a vector; the shift and
    the scale act on the vector, so no matrix is copied.  A point's sum
    stops at the degree ``_chebyshev_degree`` gives for it, and the
    recurrence at the largest of them.  The degrees and coefficients are
    taken once per segment of the grid (below) and serve all its chunks.

    ``psi`` is a vector or a dim x M block of columns, each evolved alike;
    a vector is the block's one-column case.  ``times`` is a time, giving
    one vector (or block), or a grid in any order, with zero, negative and
    repeated times allowed, giving a list in grid order.  ``observe``, if
    given, maps each vector to the value returned in its place.

    Memory is bounded by the larger of the CSR arrays' bytes and
    CHUNK_FLOOR: as many complex vectors as fit in them (``fit``) are
    accumulated at once.  A block wider than fit // w columns, for the w
    CPUs the process may run on (``_workers``), is evolved in chunks of at
    most that many, and min(w, chunks) tasks of ``_each`` each take the
    next chunk until none is left, running its whole recurrence with the
    rows unsplit: one hand-off per chunk.  A vector, or a block of one
    chunk, is evolved on the calling thread, its rows split when the
    product is large (``_chebyshev_evolve``).  When the accumulators of
    the chunks in flight for the whole grid would not fit, the sorted
    distinct times are split into segments of as many as fit, each
    restarting from the previous segment's last state; with ``observe``,
    one segment's vectors are alive at a time.

    Whether a segment runs in real, paired-real or complex arithmetic, and
    whether its accumulations are halved, is decided once from the whole
    block (``_arithmetic``), and every row and entry is computed by the
    same operations in the same order in any chunk or row block.  So the
    result has the same bits for any number of CPUs.
    """
    times, scalar = time_grid(times)
    distinct = sorted(set(times))
    dim = H_sp.shape[0]
    columns = psi.shape[1] if np.ndim(psi) == 2 else 1
    csr_bytes = H_sp.data.nbytes + H_sp.indices.nbytes + H_sp.indptr.nbytes
    fit = max(1, max(csr_bytes, CHUNK_FLOOR) // (16 * dim))  # complex vectors in flight
    workers = _workers()
    chunks = max(1, -(-columns // max(1, fit // workers)))
    width = -(-columns // chunks)
    in_flight = min(workers, chunks)
    per_segment = max(1, fit // max(1, width * in_flight))
    segments = [distinct[i:i + per_segment] for i in range(0, len(distinct), per_segment)]
    origins = [0.0] + [segment[-1] for segment in segments[:-1]]
    steps = [[t - now for t in segment] for segment, now in zip(segments, origins)]
    for x in (radius * abs(s) for row in steps for s in row):
        if not x <= CHEBYSHEV_ARGUMENT_CAP:  # NaN fails it too
            raise CapExceededError(
                f"radius * time step {x} exceeds the Chebyshev cap {CHEBYSHEV_ARGUMENT_CAP}")

    def evolve_chunks(_task):  # take the next chunk until none is left, evolve it, store it
        while True:
            with lock:
                j = next(chunk_starts, None)
            if j is None:
                return
            chunk = np.ascontiguousarray(start[:, j:j + width], dtype=complex)
            # rows unsplit: with the pool busy on chunks, a nested _each would wait for itself
            for vec, part in zip(vectors, evolve(chunk, workers=1)):
                vec[:, j:j + width] = part
            del chunk, part  # before the next chunk's are allocated

    found = {}
    start, lock = psi, threading.Lock()
    for segment, segment_steps in zip(segments, steps):
        degrees = [_chebyshev_degree(radius * s) for s in segment_steps]
        coefs = [_chebyshev_coefficients(radius * s, K) * np.exp(-1j * mu * s)
                 for s, K in zip(segment_steps, degrees)]
        evolve = partial(_chebyshev_evolve, H_sp, degrees=degrees, coefs=coefs, mu=mu,
                         radius=radius, arithmetic=_arithmetic(H_sp, start))
        if chunks == 1:  # the accumulators are the results
            vectors = evolve(np.ascontiguousarray(start, dtype=complex), workers=workers)
        else:
            vectors = [np.empty((dim, columns), dtype=complex) for _ in segment]
            chunk_starts = iter(range(0, columns, width))
            _each(evolve_chunks, in_flight)
        start = vectors[-1]
        for t, vec in zip(segment, vectors):
            found[t] = observe(vec) if observe else vec
        del vectors, vec  # free this segment's accumulators before the next one's
    out = [found[t] for t in times]
    return out[0] if scalar else out


# The least bytes a block's chunks in flight may take, whatever the CSR's size.
# Real tfim chains up to 11 qubits have a smaller CSR, which alone would give
# chunks of 7-9 columns, whose time goes to Python's per-degree overhead.  It
# stays below the 640 KiB CSR of a 12-qubit tfim chain, whose chunks the CSR
# still sizes.
CHUNK_FLOOR = 512 << 10

# The cap on radius * |time step| of one recurrence.  At the cap the degree is
# about 89,000, and ``_chebyshev_coefficients`` takes 2^18 complex samples
# (4 MiB) and their FFT; a step twice as long takes twice that.
CHEBYSHEV_ARGUMENT_CAP = 2.0**16


def _arithmetic(H_sp, psi: np.ndarray) -> str:
    """How ``_chebyshev_evolve`` runs psi under H_sp: "complex", "paired" or "real".

    A complex H needs complex vectors.  Under a real H, a block with an
    imaginary part anywhere runs as (re, im) column pairs, and a real one
    in real arithmetic.  It is decided from the whole block, so a column's
    bits never depend on the other columns of its chunk.
    """
    if np.iscomplexobj(H_sp):
        return "complex"
    return "paired" if np.iscomplexobj(psi) and np.any(psi.imag) else "real"


# Stored entries x operand columns from which a product's rows are split.  A
# thread round trip costs 60-80 us; the split measured slower below 2^19 and
# about 0.8x the unsplit time at 2^20 on 2 CPUs.
SPLIT_GRAIN = 1 << 20


def _chebyshev_evolve(H_sp, psi: np.ndarray, degrees: list[int], coefs: list[np.ndarray],
                      mu: float, radius: float, arithmetic: str, workers: int) -> list[np.ndarray]:
    """sum_k coef[k] T_k(G) psi up to each grid point's degree: ``expm_multiply``'s recurrence.

    ``psi`` is a complex vector or dim x w block, and ``arithmetic`` is
    ``_arithmetic`` of the whole block it belongs to.  The vectors
    T_k(G) psi are kept in the matrix's arithmetic.  Under a real H, a real
    block gives real vectors, and a complex one is viewed as a real array
    of its (re, im) column pairs, which scipy multiplies column by column;
    a complex operand would make scipy cast the matrix to complex in every
    product.  The accumulators are complex, as the coefficients are.  With
    mu = 0 and real vectors, the coefficient (-i)^k J_k is real for even k
    and imaginary for odd k, so each degree adds one real multiple of
    T_k(G) psi into the real or the imaginary part of each accumulator.

    Each degree's step is row-local once its product is taken: rows r0:r1
    of T_k need rows r0:r1 of H times all of T_{k-1}, and the same rows of
    T_{k-1}, T_{k-2} and the accumulators.  So when ``workers`` exceeds 1
    and H_sp's stored entries times the operand's columns reach
    SPLIT_GRAIN, the rows are split into ``workers`` contiguous blocks
    (``_row_blocks``, over views of H_sp's entries), and each block's
    product, shift, scale, subtraction and accumulation run as one task of
    ``_each``.  scipy's sparse product and numpy's ufuncs release the GIL,
    so the blocks run at once.  Otherwise the one block is H_sp, run on
    this thread on the whole arrays.  A row's sum keeps its order and
    every other step is per entry, so the bits do not depend on the split.
    T_k is written into T_{k-2}'s buffer once that is the recurrence's own,
    not psi, so a call allocates at most two vectors besides scipy's
    products.
    """
    sums = [c[0] * psi for c in coefs]
    own = False  # whether T_0 is the recurrence's copy, free for T_2, or psi itself
    if arithmetic == "complex":
        cur = psi
    elif arithmetic == "paired":
        cur = psi.view(np.float64).reshape(len(psi), -1)
    else:
        cur, own = np.ascontiguousarray(psi.real), True
    paired = arithmetic == "paired"
    halved = not mu and arithmetic == "real"
    columns = cur.shape[1] if cur.ndim == 2 else 1
    parts = workers if H_sp.nnz * columns >= SPLIT_GRAIN else 1
    bounds = [len(psi) * b // parts for b in range(parts + 1)]
    blocks = _row_blocks(H_sp, bounds)

    def rows(array):  # the array's row blocks; unsplit, the array itself
        return [array] if parts == 1 else [array[r0:r1] for r0, r1 in zip(bounds, bounds[1:])]

    def vector(array):  # a vector of the recurrence: whole, its row blocks, their complex view
        blocks_of = rows(array)
        if paired:
            return array, blocks_of, [r.view(complex).reshape((len(r),) + psi.shape[1:])
                                      for r in blocks_of]
        return array, blocks_of, blocks_of

    scratch = rows(np.empty_like(psi))
    work = [s.reshape(-1).view(cur.dtype)[:c.size].reshape(c.shape)  # scratch's bytes
            for s, c in zip(scratch, rows(cur))]
    # what each degree adds into, per grid point and block: both halves, or the sum
    targets = [[(r.real, r.imag) if halved else r for r in rows(acc)] for acc in sums]

    def step(k, src, old, new, b):  # rows b of T_k = 2 G T_{k-1} - T_{k-2}, T_1 = G T_0
        whole, src_rows, _ = src
        out, vec, work_b = new[1][b], new[2][b], work[b]
        prod = blocks[b] @ whole
        if mu:
            np.multiply(src_rows[b], mu, out=work_b)
            prod -= work_b
        if k == 1:
            np.divide(prod, radius, out=out)
        else:
            prod *= 2 / radius
            np.subtract(prod, old[1][b], out=out)
        del prod
        for target, coef, K in zip(targets, coefs, degrees):
            if k > K:
                continue
            if halved:
                np.multiply(out, coef[k].imag if k % 2 else coef[k].real, out=work_b)
                part = target[b][k % 2]
                part += work_b
            else:
                np.multiply(vec, coef[k], out=scratch[b])
                part = target[b]
                part += scratch[b]

    old, src = None, vector(cur)
    for k in range(1, max(degrees) + 1):
        # T_{k-2}'s buffer once it is the recurrence's own
        new = old if k > 2 or (k == 2 and own) else vector(np.empty_like(cur))
        if parts == 1:
            step(k, src, old, new, 0)
        else:
            _each(partial(step, k, src, old, new), parts)
        old, src = src, new
    return sums


def _row_blocks(H_sp, bounds: list[int]) -> list:
    """The rows bounds[b]:bounds[b + 1] of H_sp as CSR matrices; one block is H_sp itself.

    Each block's data and indices are views of H_sp's, and so is its
    indptr when the block starts at entry 0; otherwise only the indptr,
    shifted to start at zero, is copied.  ``H_sp[r0:r1]`` would copy the
    entries, and so would the constructor's format check for a view of
    less than half of them, so the arrays are set on an empty block.
    """
    if len(bounds) == 2:
        return [H_sp]
    out = []
    for r0, r1 in zip(bounds, bounds[1:]):
        lo, hi = H_sp.indptr[r0], H_sp.indptr[r1]
        indptr = H_sp.indptr[r0:r1 + 1]
        block = sp.csr_matrix((r1 - r0, H_sp.shape[1]), dtype=H_sp.dtype)
        block.data, block.indices = H_sp.data[lo:hi], H_sp.indices[lo:hi]
        block.indptr = indptr - lo if lo else indptr
        out.append(block)
    return out


def _workers() -> int:
    """The number of CPUs this process may run on: the tasks of a chunked block or split product."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_POOL: ThreadPoolExecutor | None = None  # _workers() - 1 threads, started by the first _each


def _forget_pool() -> None:  # a forked child has none of its parent's threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _each(task, count: int) -> None:
    """task(0), ..., task(count - 1): the first on this thread, the others on the pool.

    The pool has ``_workers()`` - 1 threads, whatever the first caller's
    count.  Its callers are a chunked block (``expm_multiply``), one task
    per chunk in flight, and a split product (``_chebyshev_evolve``), one
    task per row block and degree.  A task must not call ``_each`` with a
    count above 1: with every pool thread running a task, the nested tasks
    would wait for a thread that waits for them.  Returns once every task
    has finished, so a task's exception reaches the caller after no task
    still writes.
    """
    if count == 1:
        task(0)
        return
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=max(1, _workers() - 1),
                                   thread_name_prefix="opgrowth")
    futures = [_POOL.submit(task, b) for b in range(1, count)]
    try:
        task(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def exact_expectation(
    H: HamiltonianSpec,
    A: LocalOperator,
    state,
    t,
    region: tuple[int, ...] | None = None,
):
    """<psi|A(t)|psi> by evolving the product state's vector on the full region.

    ``state`` is a ``ProductState``; its vector on the region is evolved
    with ``expm_multiply`` on the sparse region Hamiltonian, with its shift
    and radius from ``shift_and_radius``, up to VECTOR_QUBIT_CAP qubits.

    ``t`` is a time, giving a float, or a grid of times in any order,
    giving a list in grid order.  The region Hamiltonian is assembled once
    per call, and one ``expm_multiply`` call covers the whole grid.
    """
    times, scalar = time_grid(t)
    region = tuple(sorted(region if region is not None else H.vertices()))
    if not set(A.support) <= set(region):
        raise ValueError("region must contain the observable support")
    n = len(region)
    if n > VECTOR_QUBIT_CAP:
        raise CapExceededError(f"region of {n} qubits exceeds cap {VECTOR_QUBIT_CAP}")
    positions = [region.index(s) for s in A.support]

    def observe(vec):
        # not np.vdot: OpenBLAS sums that in per-thread chunks, so its last digits
        # would depend on the BLAS thread count
        return (vec.conj() * apply_local(A.matrix, positions, vec, n)).sum()

    if any(times):
        H_sp = hamiltonian_matrix(H, region, sparse=True)
        mu, radius = shift_and_radius(H, region)
        values = expm_multiply(H_sp, state.state_vector(region), times, mu, radius, observe)
    else:
        values = [observe(state.state_vector(region))] * len(times)
    for val in values:
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise ValueError(f"expectation has stray imaginary part {val.imag:.2e}")
    out = [float(val.real) for val in values]
    return out[0] if scalar else out


@dataclass(frozen=True)
class QuasilocalReport:
    slack: tuple[float, ...]
    envelope_ok: bool
    kappa_ok: bool
    degree: int
    failures: tuple[int, ...]


def check_quasilocal(H: HamiltonianSpec) -> QuasilocalReport:
    """Per-term envelope slack h*exp(-kappa*|S|) - norm, plus the kappa condition.

    The decay rate must exceed 1 + log(degree) for the tail resummations to
    converge; degree is the base graph's vertex degree, or the coupling
    degree of the terms when no graph is attached.
    """
    if H.envelope is None:
        raise ValueError("Hamiltonian declares no quasilocal envelope")
    h, kappa = H.envelope
    if H.graph is not None:
        degree = max(len(n) for n in H.graph.vertex_adjacency().values())
    else:
        degree = H.coupling_degree()
    slack = tuple(h * math.exp(-kappa * len(t.support)) - t.norm for t in H.terms)
    failures = tuple(i for i, s in enumerate(slack) if s < -1e-12)
    kappa_ok = kappa > 1 + math.log(degree)
    return QuasilocalReport(slack, not failures, kappa_ok, degree, failures)
