"""Expected statistics of stochastic convex hulls.

A stochastic dataset is a finite point set where each point exists
independently with its own probability.  This package computes expected
values of hull statistics over the induced distribution of realizations:
exact-in-expectation bracketing estimators for the diameter and width,
closed-form face and membership probabilities, the exact expected face
counts and complexity for d = 2 and 3, and a brute-force enumeration oracle
for small inputs that everything else is tested against.

The root exports the estimators, the oracle and their inputs.  Internal
layers (flats and distances of point sets, the width kernel, the
witness-simplex decomposition, seeded streams) are imported from their
modules.
"""

from .complexity import (
    expected_complexity,
    expected_face_counts,
    face_prob,
    membership_prob_1d,
    membership_prob_2d,
)
from .dataset import (
    MAX_ENUM_POINTS,
    ORACLE_STATISTICS,
    StochasticDataset,
    dataset_to_json,
    load_dataset,
    oracle_expectation,
    oracle_face_expectations,
    parse_dataset,
    save_dataset,
)
from .diameter import (
    DIAMETER_WITNESS_FACTOR,
    TWO_APPROX_FACTOR,
    HardnessInstance,
    count_independent_sets,
    expected_diameter_two_approx,
    expected_diameter_witness,
    hardness_identity_check,
    hardness_identity_rhs,
    hardness_instance,
    parse_graph,
)
from .errors import CapabilityError, DatasetError, GeometryError, SchullError
from .geometry import HULL_DIMS
from .width import (
    FprasConfig,
    expected_width_fpras,
    expected_width_witness,
    fpras_gamma,
    fpras_sample_count,
    width_simplex_factor,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DatasetError",
    "DIAMETER_WITNESS_FACTOR",
    "FprasConfig",
    "GeometryError",
    "HardnessInstance",
    "HULL_DIMS",
    "MAX_ENUM_POINTS",
    "ORACLE_STATISTICS",
    "SchullError",
    "StochasticDataset",
    "TWO_APPROX_FACTOR",
    "count_independent_sets",
    "dataset_to_json",
    "expected_complexity",
    "expected_diameter_two_approx",
    "expected_diameter_witness",
    "expected_face_counts",
    "expected_width_fpras",
    "expected_width_witness",
    "face_prob",
    "fpras_gamma",
    "fpras_sample_count",
    "hardness_identity_check",
    "hardness_identity_rhs",
    "hardness_instance",
    "load_dataset",
    "membership_prob_1d",
    "membership_prob_2d",
    "oracle_expectation",
    "oracle_face_expectations",
    "parse_dataset",
    "parse_graph",
    "save_dataset",
    "width_simplex_factor",
]
