"""Initial-state providers: anything exposing marginal(region) -> density matrix.

Product states also expose state_vector(region) so that expectation values
can be taken by pure-state evolution instead of density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import kron_all

MARGINAL_TOL = 1e-10


def _validate_density_matrix(dm: np.ndarray) -> np.ndarray:
    tr = np.trace(dm).real
    if abs(tr - 1.0) > MARGINAL_TOL:
        raise ValueError(f"marginal trace {tr} is not 1")
    eigs = np.linalg.eigvalsh(0.5 * (dm + dm.conj().T))
    if eigs.min() < -MARGINAL_TOL:
        raise ValueError(f"marginal has negative eigenvalue {eigs.min():.2e}")
    return dm


@dataclass(frozen=True)
class ProductState:
    """Unentangled state: one normalized 2-vector per vertex (default |0>)."""

    local: dict[int, np.ndarray] = field(default_factory=dict)

    def vector_at(self, v: int) -> np.ndarray:
        vec = np.asarray(self.local.get(v, np.array([1.0, 0.0])), dtype=complex)
        return vec / np.linalg.norm(vec)

    def state_vector(self, region) -> np.ndarray:
        out = np.array([1.0 + 0j])
        for v in sorted(region):
            out = np.kron(out, self.vector_at(v))
        return out

    def marginal(self, region) -> np.ndarray:
        dms = [np.outer(self.vector_at(v), self.vector_at(v).conj()) for v in sorted(region)]
        return _validate_density_matrix(kron_all(dms))

    @classmethod
    def all_zero(cls) -> "ProductState":
        return cls()

    @classmethod
    def all_plus(cls, vertices) -> "ProductState":
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        return cls({v: plus for v in vertices})


@dataclass(frozen=True)
class DenseState:
    """Explicit density matrix on a fixed vertex register; marginals by partial trace."""

    vertices: tuple[int, ...]
    rho: np.ndarray

    def __post_init__(self):
        vs = tuple(sorted(self.vertices))
        object.__setattr__(self, "vertices", vs)
        dm = np.asarray(self.rho, dtype=complex)
        if dm.shape != (2 ** len(vs),) * 2:
            raise ValueError("density matrix shape does not match vertex count")
        object.__setattr__(self, "rho", _validate_density_matrix(dm))

    def marginal(self, region) -> np.ndarray:
        region = tuple(sorted(region))
        if not set(region) <= set(self.vertices):
            raise ValueError("region outside the state's register")
        n = len(self.vertices)
        keep = [self.vertices.index(v) for v in region]
        drop = [i for i in range(n) if i not in keep]
        t = self.rho.reshape((2,) * (2 * n))
        for i in sorted(drop, reverse=True):
            t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
        k = len(keep)
        # axes are now the kept qubits in their original relative order
        return _validate_density_matrix(t.reshape(2**k, 2**k))
