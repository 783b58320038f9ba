"""Truncated power series in t and their continued-fraction expansions.

A ``PowerSeries`` of order N keeps coefficients of t^0 .. t^N; every
coefficient is a ``MultiPoly`` over one fixed variable tuple.  It is a
value with no series arithmetic.  A ``FractionSpec`` is a J-fraction

    1 / (1 - a_1 t - b_1 t^2 / (1 - a_2 t - b_2 t^2 / ...))

with level coefficients a_k, b_k for k >= 1.  ``jfraction_series`` expands
it to a given order: the t^n coefficient is the weighted count of Motzkin
paths of length n (Flajolet, 1980), which is column 0 of the Stieltjes
tableau with alpha = a and beta = b, its rows cut to the order.  The
levels are ``MultiPoly``s with nonnegative coefficients.  The tableau runs
on the package's one packed engine, ``qmotzkin._PackedTableau``: one
variable of each entry is packed into a big int (Kronecker substitution;
Harvey, 2009), so a level term is a key offset and a shift, not a product.
The J-fraction presets are the rows of one level table,
``qmotzkin._FRACTIONS``.

The one nested fraction, the left side of main12, is an S-fraction over
Dyck paths that ``_preset_main12_lhs`` expands on packed ints, without the
tableau and without a product.  Both read their slots back with
``MultiPoly._from_slots``: only ``polynomials`` reads the layouts.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

from .polynomials import MultiPoly, UniPoly, _check_size, _slot_bytes
from .qmotzkin import (_FRACTIONS, _Q, _fraction, _PackedTableau, q_motzkin,
                       q_motzkin_tilde)


class PowerSeries:
    """Power series in t truncated at a fixed order: a value, no arithmetic."""

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Sequence[MultiPoly]):
        coeffs = tuple(coeffs)  # read an iterator once
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        variables = tuple(variables)
        for c in coeffs:
            if not isinstance(c, MultiPoly):
                raise ValueError(f"coefficient {c!r} is not a MultiPoly")
            if c.variables != variables:
                raise ValueError("coefficient variables do not match series")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> MultiPoly:
        if type(n) is not int or not 0 <= n <= self.order:
            raise ValueError(f"order {self.order} series has no t^{n} term")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.variables == other.variables
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.coeffs))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "vars": list(self.variables),
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"PowerSeries(order={self.order}, [{head}{tail}])"


class FractionSpec(NamedTuple):
    """The J-fraction with level coefficients alpha(k), beta(k), k >= 1."""

    variables: tuple[str, ...]
    alpha: Callable[[int], MultiPoly]
    beta: Callable[[int], MultiPoly]


def jfraction_series(spec: FractionSpec, order: int) -> PowerSeries:
    """Expand a J-fraction to a power series truncated at t^order.

    The t^n coefficient is column 0 of row n of the Stieltjes tableau,

        h[n][i] = h[n-1][i+1] + alpha(i+1) h[n-1][i] + beta(i) h[n-1][i-1],

    in the cut mode of ``qmotzkin._PackedTableau``: alpha(k) is consulted
    for k <= (order+1)/2 and beta(k) for k <= order/2, each once and never
    at 0, and must be a ``MultiPoly`` over ``spec.variables`` with
    nonnegative coefficients, or ``ValueError`` is raised.
    """
    _check_size(order, "order")
    table = _PackedTableau(spec.variables, spec.alpha, spec.beta, order, cut=True)
    column = [table.multipoly(row[0], 0) for row in table.rows()]
    return PowerSeries(spec.variables, [MultiPoly.one(spec.variables), *column])


def _dyck_rows(order: int, bits: int) -> Iterator[list[int]]:
    """Rows 1..order of the Dyck-path loop of ``_preset_main12_lhs``, each
    weight q^k a shift by k * ``bits``: packed ints, or at bits = 0 the
    plain ints at q = 1."""
    prev2: list[int] = []
    prev1 = [1] * (order + 1)  # row 0: the prefixes of up steps only
    for m in range(1, order + 1):
        row = []
        acc = 0
        for h in range(order - m + 1):
            if h % 2 == 0:
                acc += prev1[h + 1] << h // 2 * bits
            if prev2:
                acc += prev2[h + 1] << h * bits
            row.append(acc)
        yield row
        prev2, prev1 = prev1, row


def _preset_main12_lhs(order: int) -> PowerSeries:
    """1 / (1 - c_1 / (1 - c_2 / ...)) read as a sum over Dyck paths.

    c_k = L_k t + q^(k-1) t^2 with L_k = q^((k-1)/2) for odd k and 0 for
    even k.  F_k = 1 / (1 - c_k F_{k+1}) sums the Dyck paths in which a down
    step from height h+1 to h weighs c_{h+1} (Flajolet, 1980).  D[m][h],
    the weight of the path prefixes of t-degree m that end at height h,
    comes from a last step up or a last step down:

        D[m][h] = D[m][h-1] + L_{h+1} D[m-1][h+1] + q^h D[m-2][h+1],

    and t^m is D[m][0].  Each of the h down steps still owed costs at least
    one t, so row m keeps h <= order - m, and only rows m-1 and m-2 are
    held.  The weights are monomials, so the loop runs on packed ints, one
    slot per power of q (Kronecker substitution), and q^k is a shift by k
    slots.  No slot carries: every coefficient of an entry, and of its
    partial sums, is at most the entry at q = 1, so a first run in plain
    ints sizes the slot from every entry of every row; column 0 holds the
    smallest entry of a row.  The loop never touches the tableau, so the
    two sides of main12 stay independent computations.
    """
    slot = _slot_bytes(max((max(row) for row in _dyck_rows(order, 0)), default=1))
    return PowerSeries(_Q, [MultiPoly.one(_Q), *(
        MultiPoly._from_slots(_Q, 0, [(0, row[0])], slot, 0)
        for row in _dyck_rows(order, 8 * slot))])


def _preset_family(family: Callable[[int], UniPoly], order: int) -> PowerSeries:
    family(order)  # one run of the tableau rows caches t^0..t^order
    return PowerSeries(_Q, [MultiPoly.from_unipoly(family(n), _Q)
                            for n in range(order + 1)])


# Builders for series with a fixed combinatorial meaning; the verification
# suite checks each against brute-force enumeration.  The cached families
# override the table's rows A and main12-rhs.
#   motzkin       plain Motzkin numbers (all fraction coefficients 1)
#   I-abcd        joint (hor, up, sh_u, sh_h) over Motzkin paths:
#                 a^hor b^up c^sh_u d^sh_h summed over paths of each length
#   I4321-joint   joint (fp, exc, crs, nes) over 4321-avoiding involutions
#   I3412-joint   joint (fp, exc, crs, nes) over 3412-avoiding involutions
#   A             crs+nes over 4321-avoiding involutions: the M family
#   S321-exc-crs  joint (exc, crs) over 321-avoiding permutations that also
#                 avoid the barred pattern
#   M, Mtilde     the two q-Motzkin families, each column 0 of the cut tableau
#                 of its J-fraction (qmotzkin)
#   main12-lhs    nested-fraction form of the Mtilde generating series
#   main12-rhs    j-fraction form of the same series: the Mtilde family
PRESETS: dict[str, Callable[[int], PowerSeries]] = {
    **{name: partial(jfraction_series, FractionSpec(*_fraction(name)))
       for name in _FRACTIONS},
    "M": partial(_preset_family, q_motzkin),
    "A": partial(_preset_family, q_motzkin),
    "Mtilde": partial(_preset_family, q_motzkin_tilde),
    "main12-rhs": partial(_preset_family, q_motzkin_tilde),
    "main12-lhs": _preset_main12_lhs,
}


def named_series(name: str, order: int) -> PowerSeries:
    """Build one of the preset series; see ``PRESETS`` for the catalogue."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown series preset {name!r} (known: {known})")
    _check_size(order, "order")
    return PRESETS[name](order)
