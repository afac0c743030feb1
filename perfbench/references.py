"""Reference values the benchmark checks outputs against, kept apart from the code under test.

Two sources:

* ``free_fermion_z0`` — an exact formula, independent of opgrowth, for
  <0...0| Z_0(t) |0...0> on the open transverse-field Ising chain
  H = -J sum Z_k Z_{k+1} - g sum X_k.  Under Jordan-Wigner the end spin Z_0
  is a single Majorana mode, so the expectation is the (0, 0) entry of
  exp(2 t M), with M the real antisymmetric 2L x 2L matrix holding -g on
  (2k, 2k+1) and -J on (2k+1, 2k+2).
* ``recorded.json`` — cluster-expansion estimates recorded once, with the
  commit and seed they came from and the tolerance they are checked to.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import expm

ORACLE_TOL = 1e-10
RECORDED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")


def free_fermion_z0(L: int, J: float, g: float, t: float) -> float:
    """<0...0| Z_0(t) |0...0> on the open tfim chain of L sites."""
    M = np.zeros((2 * L, 2 * L))
    for k in range(L):
        M[2 * k, 2 * k + 1] = -g
    for k in range(L - 1):
        M[2 * k + 1, 2 * k + 2] = -J
    M = M - M.T
    return float(expm(2.0 * t * M)[0, 0])


def recorded(name: str) -> dict:
    """One recorded reference set: source, tolerance and values."""
    with open(RECORDED_PATH) as fh:
        return json.load(fh)[name]
