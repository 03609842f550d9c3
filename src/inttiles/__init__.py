"""Translational tilings of the integers.

Verify tilings of Z_M through two independent routes, compute minimal
tiling periods by proof-complete exhaustive search, check the
Coven-Meyerowitz conditions, and generate explicit long-period
constructions.
"""

from .cmcheck import CmReport, FiberDecomposition, check_t1, check_t2, cm_report, fiber_decompose, spectrum
from .constructions import (
    CounterexampleReport,
    ExponentReport,
    Theorem2Instance,
    Theorem2Params,
    diameter_counterexample,
    standard_tile,
    theorem2_exponent_report,
    theorem2_generate,
)
from .faults import (
    InconsistentRoutesError,
    InternalFaultError,
    InvalidShiftError,
    WitnessViolationError,
)
from .polyring import (
    Factorization,
    IntPolynomial,
    cyclotomic,
    cyclotomic_divides,
    divisors,
    euler_phi,
    exact_divide,
    factorize,
    mul_mod_cyclic,
)
from .search import (
    NodeBudgetExceeded,
    PeriodResult,
    SearchConfig,
    default_cap,
    find_complement,
    minimal_tiling_period,
    period_bound_check,
    top_power_witnesses,
)
from .tilingset import (
    CyclicTiling,
    IntegerSet,
    TilingVerdict,
    is_tiling,
    least_period,
)

__version__ = "0.1.0"

__all__ = [
    "CmReport",
    "CounterexampleReport",
    "CyclicTiling",
    "ExponentReport",
    "Factorization",
    "FiberDecomposition",
    "InconsistentRoutesError",
    "IntPolynomial",
    "IntegerSet",
    "InternalFaultError",
    "InvalidShiftError",
    "NodeBudgetExceeded",
    "PeriodResult",
    "SearchConfig",
    "Theorem2Instance",
    "Theorem2Params",
    "TilingVerdict",
    "WitnessViolationError",
    "check_t1",
    "check_t2",
    "cm_report",
    "cyclotomic",
    "cyclotomic_divides",
    "default_cap",
    "diameter_counterexample",
    "divisors",
    "euler_phi",
    "exact_divide",
    "factorize",
    "fiber_decompose",
    "find_complement",
    "is_tiling",
    "least_period",
    "minimal_tiling_period",
    "mul_mod_cyclic",
    "spectrum",
    "standard_tile",
    "period_bound_check",
    "theorem2_exponent_report",
    "theorem2_generate",
    "top_power_witnesses",
]
