"""Exact and interval-certified monotonicity checks for root-ratio sequences.

For a positive sequence a_n the root ratio is r_n = a_{n+1}^(1/(n+1)) / a_n^(1/n).
This package computes the classical sequences exactly (big integers and
fractions), compares r_n against r_{n+1} with machine-checked rigor (exact
integer cross-powering or fixed-point integer enclosures wrapped in dyadic
intervals, never bare floating point), and ships a small suite of named
finite checks plus a command-line interface.

Importing the package loads none of its modules: each public name imports the
module that defines it when the name is first used (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "compare": (
        "DEFAULT_ENGINE", "Direction", "Engine", "LogCombination", "Method", "MethodStats",
        "MonotonicityReport", "Verdict", "check_monotone", "cmp_roots", "combine_reports",
        "find_min_start", "ratio_step_combination", "ratio_step_verdict", "ratio_table",
        "sign_of_log_combination",
    ),
    "numerics": (
        "Dyadic", "DyadicInterval", "NonPositiveArgument", "Ordering", "interval_e",
        "interval_ln",
    ),
    "paperchecks": (
        "CheckResult", "CheckStatus", "NotUnitDiscriminant", "check_derangement_offset",
        "check_derangement_window", "check_firoozbakht", "check_harmonic_window",
        "check_harmonic_xlogx", "check_log_quadratic_bound", "check_lucas_gap_bound",
        "check_offset_second_difference", "check_prime_ratio_refinement",
        "check_stirling_remainder", "check_unit_discriminant_tail", "constants_suite",
        "paper_suite",
    ),
    "sequences": (
        "Derangement", "Harmonic", "IndexBelowDomainStart", "InvalidParameters", "Lucas",
        "LucasConstants", "Primes", "Product", "Sequence", "SquarefreeSum",
        "derangement_term", "fibonacci", "harmonic_term", "lucas_constants", "lucas_term",
        "nth_prime", "squarefree_sum",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # looked up in the owning module on every access and never stored here, so a
    # name rebound in its module (as a tracer does) is seen, and unbound, at once
    if name in _EXPORTS:  # a submodule not imported yet, as in `ratiocert.compare`
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNER.keys())
