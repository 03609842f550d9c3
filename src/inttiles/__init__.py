"""Translational tilings of the integers.

Verify tilings of Z_M through two independent routes, compute minimal
tiling periods by proof-complete exhaustive search, check the
Coven-Meyerowitz conditions, and generate explicit long-period
constructions.

The public names of `search` (complement search and minimal periods),
`cmcheck` (the Coven-Meyerowitz conditions) and `constructions` (the
paper's tilings and counterexamples) are resolved on first access, so
`import inttiles` loads none of the three, and neither does the CLI until
a subcommand needs one: `min-period` loads `search`, `analyze` loads
`cmcheck`, `corpus` loads both, `construct` and `counterexample` load
`constructions`, and `check-tiling` loads none of them. The value classes
derive from `polyring.Record`, so no module loads `dataclasses` (which
loads `inspect`, `ast`, `dis` and `tokenize`) or `typing`. `fractions`
(with `decimal` and `numbers`) is loaded only by `constructions`, so only
`construct` and `counterexample` load it, and no command loads `pathlib`.
"""

from importlib import import_module as _import_module

from .faults import (
    InconsistentRoutesError,
    InternalFaultError,
    InvalidShiftError,
    WitnessViolationError,
)
from .polyring import (
    IntPolynomial,
    cyclotomic_divides,
    divisors,
    euler_phi,
    factorize,
    mul_mod_cyclic,
)
from .tilingset import (
    CyclicTiling,
    IntegerSet,
    TilingVerdict,
    is_tiling,
    least_period,
)

__version__ = "0.1.0"

# public name -> the submodule that defines it, loaded on first access
_LAZY = {
    **dict.fromkeys(
        ("NodeBudgetExceeded", "PeriodResult", "default_cap", "find_complement",
         "minimal_tiling_period", "period_bound_check", "top_power_witnesses"),
        "search",
    ),
    **dict.fromkeys(
        ("CmReport", "FiberDecomposition", "check_t1", "check_t2", "cm_report",
         "fiber_decompose", "spectrum"),
        "cmcheck",
    ),
    **dict.fromkeys(
        ("CounterexampleReport", "Theorem2Instance", "Theorem2Params",
         "diameter_counterexample", "standard_tile", "theorem2_generate"),
        "constructions",
    ),
}


def __getattr__(name):
    # Nothing is cached here: each access reads the submodule's current
    # binding, so a name rebound there (a tracer, a test's monkeypatch) is
    # seen here too. The submodules resolve as attributes as well, so
    # `inttiles.cmcheck` works after a bare `import inttiles`.
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _LAZY.values():
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__all__ = [
    "CmReport",
    "CounterexampleReport",
    "CyclicTiling",
    "FiberDecomposition",
    "InconsistentRoutesError",
    "IntPolynomial",
    "IntegerSet",
    "InternalFaultError",
    "InvalidShiftError",
    "NodeBudgetExceeded",
    "PeriodResult",
    "Theorem2Instance",
    "Theorem2Params",
    "TilingVerdict",
    "WitnessViolationError",
    "check_t1",
    "check_t2",
    "cm_report",
    "cyclotomic_divides",
    "default_cap",
    "diameter_counterexample",
    "divisors",
    "euler_phi",
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
    "theorem2_generate",
    "top_power_witnesses",
]
