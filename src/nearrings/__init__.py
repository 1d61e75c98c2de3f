"""Finite nearrings: validation, classification, theorem checks, and census."""

__version__ = "0.1.0"

from .errors import (
    AxiomViolation,
    InputError,
    NearringError,
    PreconditionError,
)
from .groups import (
    FiniteGroup,
    build_group,
    endomorphisms,
    exponent,
    p_component,
    subgroups,
)
from .core import (
    CandidateMultiplication,
    Nearring,
    PropertyFlags,
    annihilator,
    builtin,
    distributive_elements,
    ideals,
    is_ideal,
    units,
    validate,
)
from .checks import CheckVerdict, SuiteReport, run_suite, summarize_reports
from .census import (
    CensusResult,
    SearchSpec,
    brute_force_oracle,
    candidate_stream,
    canonicalize,
    census,
    census_suite,
)
