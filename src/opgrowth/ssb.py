"""Symmetry-breaking diagnostics: nested-commutator identity, GHZ splitting,
and the disorder parameter of Ising-weighted (RK) wavefunctions.

The identity's evolution U = exp(-iHt) is built one flip sector at a
time: ``parity_sectors`` checks that H commutes with the global flip and
splits it into its even and odd blocks of dimension 2^{n-1}, each goes
through ``operators.evolution_unitary``, and U is assembled from the two
(``symmetric_unitary``; Pfeuty 1970 for the split of the transverse-field
Ising chain).  ``nested_identity_check`` reads one entry of O(t) = U^dag O U,
<1...1| O(t) |0...0>, from U's first and last columns; each [Z_v, .]
only scales that entry, so no 2^n x 2^n product is taken.

The GHZ splitting of the open transverse-field Ising chain is its lowest
free-fermion energy, twice the smallest singular value of an L x L
bidiagonal matrix (``ghz_splitting``); no 2^L matrix is built.  The dense
blocks of ``parity_sectors`` are the reference the tests hold that closed
form to.

The disorder parameter of the RK state reduces to a classical observable.
Writing the state in the Z basis, psi(s) = exp(beta*E(s)/2)/sqrt(Z) with
E(s) = sum over bonds of s_i s_j and Z = sum_s exp(beta*E(s)).  Flipping
the spins inside region R negates exactly the bonds crossing the region
boundary, so with B(s) = sum over crossing bonds of s_i s_j:

    <psi| D_R |psi> = sum_s psi(s) psi(flip_R s)
                    = sum_s exp(beta*E(s)) exp(-beta*B(s)) / Z
                    = < exp(-beta*B) >  under the Gibbs weight exp(beta*E).

Only the boundary shows up, which is why the decay follows a perimeter law
at every coupling and violates any volume-law envelope at large R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidityWindowError
from .lattice import FactorGraph
from .operators import (
    DEFAULT_QUBIT_CAP,
    HamiltonianSpec,
    LocalOperator,
    apply_local,
    evolution_unitary,
    hamiltonian_matrix,
)

SYMMETRY_TOL = 1e-10
RK_ENUM_CAP = 20


@dataclass(frozen=True)
class RKState:
    """Ising-weighted wavefunction on a lattice at inverse temperature beta."""

    beta: float
    graph: FactorGraph

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        return tuple(tuple(sorted(X)) for X in self.graph.factors if len(X) == 2)


@dataclass(frozen=True)
class DisorderRegion:
    """Vertex region together with the count of bonds crossing its boundary."""

    vertices: frozenset[int]
    boundary_bonds: int

    @classmethod
    def from_graph(cls, g: FactorGraph, vertices) -> "DisorderRegion":
        region = frozenset(vertices)
        crossing = sum(
            1 for X in g.factors
            if len(X) == 2 and len(X & region) == 1
        )
        return cls(region, crossing)


def square_region(g: FactorGraph, corner: tuple[int, ...], side: int) -> DisorderRegion:
    """Axis-aligned cube of vertices with the given corner coordinate."""
    if not g.coords:
        raise ValueError("graph lacks coordinates")
    members = [
        v for v, c in g.coords.items()
        if all(cc >= k and cc < k + side for cc, k in zip(c, corner))
    ]
    return DisorderRegion.from_graph(g, members)


def _check_flip_symmetric(M: np.ndarray, what: str) -> None:
    """Raise ValueError unless M commutes with the global flip D (X on every qubit).

    D sends basis state x to dim-1-x, so D M = M[::-1], M D = M[:, ::-1]
    and ||M D - D M|| = ||Delta|| with Delta = M - M[::-1, ::-1].  Delta
    reversed in both indices is -Delta, so its bottom half repeats its top
    half and ||Delta||_F = sqrt(2) ||Delta[:dim/2]||_F: only the top half
    is formed.  The gap is measured in the Frobenius norm, which bounds the
    spectral norm from above.
    """
    half = len(M) // 2
    gap = np.sqrt(2) * np.linalg.norm(M[:half] - M[::-1, ::-1][:half])
    if gap > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric under the global flip (gap {gap:.2e})")


def symmetric_unitary(H: HamiltonianSpec, t: float, region) -> np.ndarray:
    """exp(-iHt) on ``region``, evolved one flip sector at a time.

    A region above DEFAULT_QUBIT_CAP raises CapExceededError before H is
    assembled.  ``parity_sectors`` then checks that H commutes with the
    global flip D (ValueError otherwise) and splits it, before anything is
    diagonalized, into its even and odd blocks, each of dimension 2^{n-1}
    in the basis (|x> +- |x_bar>)/sqrt(2) of x < 2^{n-1}.  Each block goes
    through ``evolution_unitary``, a quarter of the ``eigh`` and product
    flops of the whole matrix.  With U_e and U_o the two sector evolutions,

        U[x, y] = U[x_bar, y_bar] = (U_e + U_o)[x, y] / 2,
        U[x, y_bar] = U[x_bar, y] = (U_e - U_o)[x, y] / 2,

    and x_bar = 2^n - 1 - x, so the bottom half of U is the top half with
    both indices reversed, and U commutes with D to the last bit.
    """
    region = tuple(sorted(region))
    n = len(region)
    if n > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"region of {n} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    even, odd = parity_sectors(hamiltonian_matrix(H, region, sparse=True).toarray(), n)
    U_even, U_odd = evolution_unitary(even, -t), evolution_unitary(odd, -t)
    half = len(U_even)
    U = np.empty((2 * half, 2 * half), dtype=complex)
    top = U[:half]
    np.add(U_even, U_odd, out=top[:, :half])
    np.subtract(U_even, U_odd, out=top[:, ::-1][:, :half])  # column y_bar
    top *= 0.5
    U[half:] = top[::-1, ::-1]
    return U


def nested_identity_check(
    U: np.ndarray,
    O: LocalOperator,
    v_list,
    region,
) -> tuple[complex, complex, float]:
    """Both sides of the flip/commutator identity, plus their gap.

    lhs = <psi| D O |psi> with |psi> = U |0...0> and D the global flip;
    rhs = 2^{-m} <0...0| D [[...[O(t), Z_{v1}], ...], Z_{vm}] |0...0>
    with O(t) = U^dag O U.  The two agree for any sites v_i whenever U
    commutes with D.

    D |0...0> = |1...1>, so rhs reads the one entry of the nested
    commutator at row |1...1> and column |0...0>.  Z is diagonal, so each
    [Z_v, C] scales C[x, y] by z_v(x) - z_v(y), which on that entry is
    -2 for every v.  So rhs is the entry <1...1| O(t) |0...0> times (-2)^m,
    and times (-1/2)^m for [C, Z_v] = -[Z_v, C] and the 2^{-m}: both
    sides come from the one vector O U|0...0> (``apply_local`` on U's
    first column) and U's last column.

    Raises ValueError, before any product, when U is not 2^n x 2^n for the
    region's n sites, when O's sites or some v leave the region, or when U
    does not commute with D.
    """
    region, v_list = tuple(sorted(region)), list(v_list)
    n = len(region)
    if np.shape(U) != (1 << n, 1 << n):
        raise ValueError(f"evolution of shape {np.shape(U)} does not act on {n} qubits")
    off = sorted(set(O.support).union(v_list) - set(region))
    if off:
        raise ValueError(f"sites {off} of O or v_list leave the region {list(region)}")
    _check_flip_symmetric(U, "evolution")
    O_psi = apply_local(O.matrix, [region.index(s) for s in O.support], U[:, 0], n)
    lhs = complex(np.vdot(U[:, 0], O_psi[::-1]))
    m = len(v_list)
    rhs = complex(np.vdot(U[:, -1], O_psi)) * (-2.0) ** m * (-0.5) ** m
    return lhs, rhs, abs(lhs - rhs)


def parity_sectors(H_mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonalize a flip-symmetric Hamiltonian into even/odd sectors.

    Basis pairs |x>, |x_bar> with x < 2^{n-1} combine into
    (|x> +- |x_bar>)/sqrt(2); returns the two sector Hamiltonians in that
    basis, in the order of x.  Raises ValueError for fewer than one qubit,
    a shape other than 2^n x 2^n, or a matrix that does not commute with
    the global flip.
    """
    if n < 1:
        raise ValueError(f"the flip pairs basis states of at least one qubit, got {n}")
    dim = 2**n
    if H_mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {H_mat.shape} does not match {n} qubits")
    _check_flip_symmetric(H_mat, "Hamiltonian")
    half = dim // 2
    # <x+-|H|y+-> = (H[x, y] + H[x_bar, y_bar] +- (H[x, y_bar] + H[x_bar, y])) / 2
    same = H_mat[:half, :half] + H_mat[::-1, ::-1][:half, :half]
    cross = H_mat[:half, ::-1][:, :half] + H_mat[::-1, :half][:half]
    return 0.5 * (same + cross), 0.5 * (same - cross)


def ghz_splitting(hamiltonian: str, L: int, g: float, J: float = 1.0) -> float:
    """|E_even - E_odd|: the gap between the lowest levels of the two flip sectors.

    ``hamiltonian`` names the model; only "tfim", H = -J sum Z_i Z_{i+1}
    - g sum X_i on the open chain of L sites, is supported.  The chain is
    free fermions (Pfeuty 1970), so the splitting is read off exactly:

    - Jordan-Wigner maps the flip prod X_i to the fermion parity;
    - H = sum_k eps_k (eta_k^dag eta_k - 1/2) with eps_k = 2 sigma_k(M), M the
      L x L upper-bidiagonal matrix with g on the diagonal and J above it;
    - any one-quasiparticle state flips the parity;
    - so |E_even - E_odd| = eps_min = 2 sigma_min(M).

    The singular values of a bidiagonal matrix carry a small relative error,
    so the splitting stays accurate far below the absolute rounding floor of
    a dense diagonalization of the 2^{L-1} sectors (9% off at L = 13, g = 0.1).
    """
    if hamiltonian != "tfim":
        raise ValueError(f"unknown Hamiltonian {hamiltonian!r}")
    if L < 1:
        raise ValueError(f"chain of {L} sites: need L >= 1")
    if L > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"chain of {L} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    M = np.diag(np.full(L, float(g))) + np.diag(np.full(L - 1, float(J)), 1)
    return float(2 * np.linalg.svd(M, compute_uv=False).min())


def rk_disorder_parameter(state: RKState, region: DisorderRegion, method: str = "auto") -> float:
    """<D_R> on the RK state: the Gibbs average of exp(-beta * crossing-bond energy).

    method "enumerate" sums all 2^N spin configurations (N <= 20);
    "transfer" uses the ring transfer matrix (1d periodic chains only);
    "auto" picks enumeration, falling back to the transfer matrix for long
    rings.
    """
    g = state.graph
    n = len(g.vertices)
    if method == "auto":
        method = "enumerate" if n <= RK_ENUM_CAP else "transfer"
    if method == "enumerate":
        if n > RK_ENUM_CAP:
            raise CapExceededError(f"{n} sites exceeds the 2^{RK_ENUM_CAP} enumeration cap")
        return _rk_enumerate(state, region)
    if method == "transfer":
        return _rk_transfer(state, region)
    raise ValueError(f"unknown method {method!r}")


def _rk_enumerate(state: RKState, region: DisorderRegion) -> float:
    """Sum over the 2^n configuration indices x, vertex v read from bit n-1-v.

    Each vertex's bit of x is one uint8 plane of 2^n entries.  A bond is
    unlike where its two planes differ, so each bond takes one XOR and one
    add into small-integer counters of unlike bonds, one over all bonds and
    one over the bonds crossing the region's boundary.  With s_u s_v =
    1 - 2 (bit_u xor bit_v), the energy is bonds - 2 unlike and the
    crossing energy B is crossing bonds - 2 unlike crossing: the same exact
    integers as sums of +-1 products, so the result does not depend on how
    they are counted.
    """
    n = len(state.graph.vertices)
    bonds = state.bonds
    codes = np.arange(2**n, dtype=np.uint32)
    planes = np.empty((n, 2**n), dtype=np.uint8)
    for v in range(n):
        np.bitwise_and(codes >> (n - 1 - v), 1, out=planes[v], casting="unsafe")
    count_type = np.min_scalar_type(len(bonds))
    unlike, unlike_crossing = np.zeros(2**n, count_type), np.zeros(2**n, count_type)
    differ = np.empty(2**n, dtype=np.uint8)
    crossing_bonds = 0
    for (u, v) in bonds:
        np.bitwise_xor(planes[u], planes[v], out=differ)
        unlike += differ
        if (u in region.vertices) != (v in region.vertices):
            unlike_crossing += differ
            crossing_bonds += 1
    del codes, planes, differ  # freed before the two float vectors are made
    energy = np.multiply(unlike, -2.0)
    energy += len(bonds)
    crossing = np.multiply(unlike_crossing, -2.0)
    crossing += crossing_bonds
    # the weights and the summand reuse the two vectors: no further 2^n arrays
    energy *= state.beta
    energy -= energy.max()
    np.exp(energy, out=energy)
    crossing *= -state.beta
    np.exp(crossing, out=crossing)
    crossing *= energy
    return float(np.sum(crossing) / np.sum(energy))


def _rk_transfer(state: RKState, region: DisorderRegion) -> float:
    """Ring transfer matrix; region must be a contiguous arc of the ring."""
    g = state.graph
    if g.dimension != 1 or not g.periodic:
        raise ValueError("transfer-matrix path needs a 1d periodic chain")
    n = len(g.vertices)
    members = sorted(region.vertices)
    if not _is_arc(members, n):
        raise ValueError("region must be a contiguous interval on the ring")
    length = len(members)
    if length == 0 or length == n:
        return 1.0
    beta = state.beta
    T = np.array([[np.exp(beta), np.exp(-beta)], [np.exp(-beta), np.exp(beta)]])
    # crossing bonds contribute exp(beta s s') * exp(-beta s s') = 1
    ones = np.ones((2, 2))
    numerator = np.trace(
        np.linalg.matrix_power(T, length - 1) @ ones
        @ np.linalg.matrix_power(T, n - length - 1) @ ones)
    denominator = np.trace(np.linalg.matrix_power(T, n))
    return float(numerator / denominator)


def _is_arc(members: list[int], n: int) -> bool:
    """Whether ``members`` is one contiguous arc of the n-ring; empty and full count."""
    member_set = set(members)
    ends = [v for v in members if (v + 1) % n not in member_set]
    return not members or len(ends) == 1 or len(member_set) == n


def disorder_bound_compare(results, params, t: float) -> dict:
    """Tabulate measured disorder values against the volume law in ``params.dimension``.

    ``results`` rows are dicts with keys "R" and "value" (extra keys pass
    through).  Rows outside the bound's validity window are marked
    valid=False; rows whose measurement exceeds the bound are flagged, and
    any flagged row marks the dataset as violating the envelope.
    """
    from .bounds import volume_bound

    rows = []
    any_violation = False
    for row in results:
        R, value = row["R"], row["value"]
        try:
            bound = volume_bound(params, R, t)
            valid = True
        except ValidityWindowError:
            bound, valid = None, False
        violates = bool(valid and value > bound)
        any_violation |= violates
        rows.append({**row, "bound": bound, "valid": valid, "violates_bound": violates})
    return {"rows": rows, "violates_volume_law": any_violation}
