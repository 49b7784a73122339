"""Quantitative group testing from sparse graphs and binary codes.

Tests report exact defective counts per group.  A design places each of N
items in ell groups; each group runs s = t*b + 1 structured tests whose
integer sums pinpoint up to t defectives at a time.  Decoding peels resolved
groups until the whole support is recovered.  See the demos directory for
worked tours of the pieces.
"""

from .bch import BchSpec, build_parity_columns, make_bch
from .codec import (
    DEFAULT_BETA,
    DecodeOutcome,
    Signature,
    TrialConfig,
    build_signature,
    decode,
    derive_params,
    encode,
    load_support,
    load_test_vector,
    measurement_matrix,
    save_support,
    save_test_vector,
)
from .density import (
    DESIGN_TABLE,
    DeConfig,
    DeResult,
    c_of_t,
    de_fixed_point,
    de_step,
    design_constant,
    lambda_threshold,
    tests_needed,
)
from .gf2m import GF2m, make_field
from .graphs import BiRegularGraph, DefectiveView, sample_defectives, sample_graph
from .simulate import SweepPoint, groups_within_budget, run_sweep, run_trial, sweep_csv

__version__ = "0.1.0"

__all__ = [
    "BchSpec",
    "BiRegularGraph",
    "DEFAULT_BETA",
    "DESIGN_TABLE",
    "DeConfig",
    "DeResult",
    "DecodeOutcome",
    "DefectiveView",
    "GF2m",
    "Signature",
    "SweepPoint",
    "TrialConfig",
    "build_parity_columns",
    "build_signature",
    "c_of_t",
    "de_fixed_point",
    "de_step",
    "decode",
    "derive_params",
    "design_constant",
    "encode",
    "groups_within_budget",
    "lambda_threshold",
    "load_support",
    "load_test_vector",
    "make_bch",
    "make_field",
    "measurement_matrix",
    "run_sweep",
    "run_trial",
    "sample_defectives",
    "sample_graph",
    "save_support",
    "save_test_vector",
    "sweep_csv",
    "tests_needed",
    "__version__",
]
