"""Crossings and nestings on Motzkin paths and pattern-restricted permutations.

Everything is exact integer arithmetic: statistics and bijections on the
combinatorial objects themselves, q-polynomial recurrences and tableaux,
continued-fraction expansions of the matching generating series, and a
brute-force oracle that checks each identity by enumeration.

Importing the package loads the engine modules and nothing else.  The
oracle (``crossnest.oracle``) loads on first use of ``run_suite`` or
``VerificationReport``, which resolve through the module ``__getattr__``
(PEP 562).
"""

from .bijections import (
    involution_shape_path,
    phi1,
    phi2,
    phi3,
    phi3_inverse,
)
from .paths import (
    PathStatRecord,
    check_path,
    enumerate_paths,
    parse_path,
    path_from_head_tail,
    path_statistics,
    sequential_matching,
    step_height,
    strip_decomposition,
    tunnel_matching,
)
from .permutations import (
    PermClass,
    SizeLimitError,
    StatRecord,
    StatSpec,
    avoids_barred_3142,
    check_permutation,
    contains_321,
    contains_3412,
    contains_4321,
    contains_classical,
    cycle_string,
    distribution,
    enumerate_class,
    head_tail_pairs,
    in_class,
    is_involution,
    one_line,
    parse_permutation,
    perm_statistics,
    permutation_from_head_tail,
)
from .polynomials import MultiPoly, UniPoly
from .qmotzkin import (
    h_recursion_rhs,
    h_tableau,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
    stieltjes_tableau,
)
from .series import (
    PRESETS,
    FractionSpec,
    PowerSeries,
    jfraction_series,
    named_series,
)

__version__ = "0.1.0"

__all__ = [
    "FractionSpec",
    "MultiPoly",
    "PathStatRecord",
    "PermClass",
    "PowerSeries",
    "PRESETS",
    "SizeLimitError",
    "StatRecord",
    "StatSpec",
    "UniPoly",
    "VerificationReport",
    "avoids_barred_3142",
    "check_path",
    "check_permutation",
    "contains_321",
    "contains_3412",
    "contains_4321",
    "contains_classical",
    "cycle_string",
    "distribution",
    "enumerate_class",
    "enumerate_paths",
    "h_recursion_rhs",
    "h_tableau",
    "head_tail_pairs",
    "in_class",
    "involution_shape_path",
    "is_involution",
    "jfraction_series",
    "motzkin_number",
    "named_series",
    "one_line",
    "parse_path",
    "parse_permutation",
    "path_from_head_tail",
    "path_statistics",
    "perm_statistics",
    "permutation_from_head_tail",
    "phi1",
    "phi2",
    "phi3",
    "phi3_inverse",
    "q_motzkin",
    "q_motzkin_tilde",
    "run_suite",
    "sequential_matching",
    "step_height",
    "stieltjes_tableau",
    "strip_decomposition",
    "tunnel_matching",
]

_ORACLE_NAMES = ("VerificationReport", "run_suite")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
