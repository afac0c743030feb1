"""Operator-growth light-cone bounds and cluster-expansion simulation."""

from .lattice import (
    BoxTiling,
    FactorGraph,
    ball_and_boundary,
    boundary_size,
    build_rectangular_lattice,
    build_square_lattice,
    enumerate_connected_subsets,
    factor_distance,
    tile_boxes,
)
from .operators import (
    HamiltonianSpec,
    LocalOperator,
    build_named_hamiltonian,
    check_quasilocal,
    exact_expectation,
    heisenberg_evolve,
    nested_commutator_norm,
    operator_norm,
    pauli_operator,
)
from .states import ProductState
from .causal import (
    CausalForest,
    IrreduciblePath,
    build_causal_forest,
    enumerate_irreducible_paths,
    term_vanishing_check,
)
from .bounds import (
    BoundParams,
    combinatorial_bound,
    matrix_exp_bound,
    path_sum_bound,
    quasilocal_nested_bound,
    quasilocal_pair_bound,
    truncation_error_bound,
    verify_reproducing,
    volume_bound,
)
from .simulate import (
    SimPlan,
    cluster_correction,
    operator_piece,
    plan,
    raw_cluster_expectation,
    simulate_expectation,
)
from .ssb import (
    DisorderRegion,
    RKState,
    disorder_bound_compare,
    ghz_splitting,
    nested_identity_check,
    parity_sectors,
    rk_disorder_parameter,
    square_region,
    symmetric_unitary,
)

__version__ = "0.1.0"
