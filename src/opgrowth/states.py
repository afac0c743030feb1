"""Initial states: unentangled product states, evolved as pure state vectors.

The paper's simulator starts from a product state, so that is the only kind
of state here; ``state_vector(region)`` gives its amplitudes on a region in
the qubit order of ``operators``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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

    @classmethod
    def all_zero(cls) -> "ProductState":
        return cls()

    @classmethod
    def all_plus(cls, vertices) -> "ProductState":
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        return cls({v: plus for v in vertices})
