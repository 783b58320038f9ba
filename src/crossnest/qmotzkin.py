"""Motzkin numbers, their q-analogues, and Stieltjes-type tableaux.

The two q-analogues are the t^n coefficients of two J-fractions, column 0
of the Stieltjes tableau with levels alpha(k), beta(k) (Flajolet, 1980):

* ``q_motzkin``:        alpha(k) = q^(k-1), beta(k) = q^(2(k-1)), row ``A``;
* ``q_motzkin_tilde``:  alpha(k) = beta(k) = q^(k-1), row ``main12-rhs``,
  also the first column of ``h_tableau``.

They satisfy the product recurrences

* M_n  = M_{n-1}  + sum_{k=0}^{n-2} q^k    M_k  M_{n-2-k}
* M~_n = M~_{n-1} + sum_{k=0}^{n-2} q^e(k) M~_k M~_{n-2-k},
  with e(k) = k + 1, except e(n-2) = 0,

and setting q = 1 in either recovers the Motzkin numbers.  The library
never runs those recurrences: the oracle does, one ``UniPoly`` product per
term, in ``oracle._product_recurrence``, and its rows
``a-series-recurrence``, ``dumont-expansion``, ``tableau-first-column``
and ``tableau-row-pair`` compare them with the tableau.

Every Stieltjes tableau of the package, ``stieltjes_tableau``,
``h_tableau``, the two q-Motzkin families and the J-fractions of
``series.jfraction_series``, runs on one packed engine, ``_PackedTableau``:
full rows for the first two, rows cut to the order for the others, by
shifts and adds with no product, and each entry divided by the power of
the packed variable that its up steps carry.  Levels must be nonnegative.
The built-in tableaux read their monomial levels from one table,
``_FRACTIONS``, through ``_fraction``; only ``polynomials`` reads the key
and slot layouts (``_exponent_spread``, ``MultiPoly._along``,
``._from_slots``, ``_slot_coeffs``), and the rows come back through the
trusted ``UniPoly._trusted`` and ``MultiPoly._nonzero``, with no check per
coefficient.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from typing import Any, Callable, Iterator, Sequence

from .polynomials import (UNI_ONE, MultiPoly, UniPoly, _check_size,
                          _exponent_spread, _slot_bytes, _slot_coeffs)

_motzkin_cache: list[int] = [1, 1]
_q_motzkin_cache: list[UniPoly] = [UNI_ONE, UNI_ONE]
_q_tilde_cache: list[UniPoly] = [UNI_ONE, UNI_ONE]
_h_rows: list[list[UniPoly]] = [[UNI_ONE]]


def motzkin_number(n: int) -> int:
    """n-th Motzkin number.

    >>> [motzkin_number(n) for n in range(10)]
    [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
    """
    _check_size(n)
    while len(_motzkin_cache) <= n:
        m = len(_motzkin_cache)
        total = _motzkin_cache[m - 1]
        for k in range(m - 1):
            total += _motzkin_cache[k] * _motzkin_cache[m - 2 - k]
        _motzkin_cache.append(total)
    return _motzkin_cache[n]


LevelSeq = Callable[[int], "UniPoly | int"]


def _level(level: Callable, name: str, k: int, variables: tuple) -> MultiPoly:
    """Level ``name``(k), which must be a ``MultiPoly`` over ``variables``."""
    value = level(k)
    if not isinstance(value, MultiPoly) or value.variables != variables:
        raise ValueError(f"{name}({k}) is not a MultiPoly over {variables}")
    return value


def _split(value: MultiPoly, name: str, k: int, var: int) -> list:
    """Level ``name``(k) split along variable ``var`` by ``MultiPoly._along``;
    its coefficients must be nonnegative."""
    terms = value._along(var)
    if any(c < 0 for *_, c in terms):
        raise ValueError(f"{name}({k}) has a negative coefficient")
    return terms


def _step(alpha: list, beta: list, down: list, ints: bool) -> Callable:
    """Entry i of a row from entries i-1, i, i+1 of the row before, ints or
    dicts of them.  An alpha term (key offset, shift, coefficient) equal to
    the step down, ``down[i]``, is added first: (h[n-1][i+1] + h[n-1][i]) << s."""
    down = down + [0]
    fold = [(0, s, 1) in terms for terms, s in zip(alpha, down)] + [False]
    alpha = [[t for t in terms if t != (0, s, 1)] for terms, s in zip(alpha, down)]
    alpha, beta = alpha + [[]], [[]] + beta

    def int_step(i: int, below: int, level: int, above: int) -> int:
        acc = (above + level if fold[i] else above) << down[i]
        for terms, entry in ((alpha[i], level), (beta[i], below)):
            for _, shift, c in terms:
                term = entry if c == 1 else c * entry
                acc += term << shift if shift else term  # << 0 copies
        return acc

    def dict_step(i: int, below: dict, level: dict, above: dict) -> dict:
        if fold[i]:
            above = dict(above)
            for k, v in level.items():
                above[k] = above.get(k, 0) + v
        s = down[i]
        acc = {k: v << s for k, v in above.items()} if s else dict(above)
        get = acc.get
        for terms, entry in ((alpha[i], level), (beta[i], below)):
            for off, shift, c in terms:
                for key, val in entry.items():
                    k, val = key + off, val if c == 1 else c * val
                    acc[k] = get(k, 0) + (val << shift if shift else val)
        return acc

    return int_step if ints else dict_step


def _rows(start: Any, zero: Any, step: Callable, n_max: int,
          cut: bool) -> Iterator[list]:
    """Rows 1..n_max of a tableau after row 0 = [start], missing entries
    ``zero``; row n keeps i <= n, or cut, i <= min(n, n_max - n)."""
    prev = [start]
    for n in range(1, n_max + 1):
        p = [zero, *prev, zero, zero]
        prev = [step(i, p[i], p[i + 1], p[i + 2])
                for i in range(min(n, n_max - n) + 1 if cut else n + 1)]
        yield prev


@lru_cache(maxsize=64)
def _slot_for_shape(alpha: tuple, beta: tuple, n_max: int, cut: bool) -> int:
    """The slot width, in bytes, of a packed tableau whose levels sum to
    ``alpha`` and ``beta`` with every variable at 1: its largest entry is
    at most the largest entry of the same tableau in plain ints.  That pass
    reads nothing else, so tableaux of one shape share it."""
    ones = ([[(0, 0, c)] for c in side] for side in (alpha, beta))
    int_rows = _rows(1, 0, _step(*ones, [0] * len(beta), True), n_max, cut)
    return _slot_bytes(max((max(row) for row in int_rows), default=1))


class _PackedTableau:
    """The Stieltjes tableau of ``stieltjes_tableau`` on packed big ints.

    Row n keeps the heights i <= n, or cut, i <= min(n, n_max - n), which
    can still return to 0 by row n_max; so alpha(k) and beta(k) are read
    for k <= n_max, or cut, for k <= (n_max+1)/2 and k <= n_max/2.  Each
    level is read once, never at 0, and must be a ``MultiPoly`` over
    ``variables`` with nonnegative coefficients, or ``ValueError`` is raised.

    An entry maps the key of every variable but one, x, to its polynomial
    in x, one int of ``slot`` bytes per coefficient (the int alone when no
    level has another variable), so a level term c*m is a key offset and a
    shift, times c.  x has the most distinct exponents, ties to the last.
    A path to height i climbs through levels 1..i, so entry (n, i) is a
    multiple of x^z_i, z_i = m_1 + ... + m_i, m_k the least power of x in
    beta(k) (0 if none), and is carried divided by it: the step down from
    i+1 shifts by m_(i+1), the step up at level i takes beta(i) / x^m_i,
    and unpacking puts ``zeros[i]`` = z_i back.  No slot carries: each
    nonnegative coefficient of an entry, and of its partial sums, is at
    most its value with every variable at 1, bounded by the same tableau in
    plain ints; ``slot`` holds that with a bit to spare (``_slot_bytes``),
    from a pass cached by shape (``_slot_for_shape``).  The levels' keys are
    read once, by ``_exponent_spread``, to choose x, and each level is split
    along x alone, by ``MultiPoly._along``, which is where a negative
    coefficient is refused; ``multipoly`` reads an entry back with
    ``MultiPoly._from_slots``: the engine never reads a layout.
    """

    def __init__(self, variables: tuple, alpha: Callable, beta: Callable,
                 n_max: int, cut: bool = False):
        self.variables, self.n_max, self.cut = variables, n_max, cut
        tops = ((n_max + 1) // 2, n_max // 2) if cut else (n_max, n_max)
        names = ("alpha", "beta")
        alpha, beta = (
            [_level(level, name, k, variables) for k in range(1, top + 1)]
            for level, name, top in zip((alpha, beta), names, tops)
        )
        spread = _exponent_spread(alpha + beta, len(variables))
        var = self.var = max(reversed(range(len(spread))),
                             key=spread.__getitem__, default=0)
        alpha, beta = ([_split(value, name, k, var) for k, value in enumerate(side, 1)]
                       for side, name in zip((alpha, beta), names))
        low = [min((e for _, e, _ in terms), default=0) for terms in beta]
        self.zeros = list(accumulate(low, initial=0))

        sums = (tuple(sum(c for *_, c in terms) for terms in side)
                for side in (alpha, beta))
        self.slot = _slot_for_shape(*sums, n_max, cut)
        bits = 8 * self.slot
        ints = not any(key for terms in alpha + beta for key, _, _ in terms)

        def shifts(terms: list, m: int = 0) -> list[tuple[int, int, int]]:
            return [(key, (e - m) * bits, c) for key, e, c in terms]

        alpha = [shifts(terms) for terms in alpha]
        step = _step(alpha, list(map(shifts, beta, low)), [m * bits for m in low], ints)
        self._packed = (1, 0, step) if ints else ({0: 1}, {}, step)

    def rows(self) -> Iterator[list]:
        """Rows 1..n_max, every entry packed and divided by its x^z_i."""
        return _rows(*self._packed, self.n_max, self.cut)

    def multipoly(self, entry: "int | dict[int, int]", i: int) -> MultiPoly:
        """Entry (n, i) of a row as a ``MultiPoly``, its x^z_i put back."""
        entries = entry.items() if isinstance(entry, dict) else [(0, entry)]
        return MultiPoly._from_slots(self.variables, self.var, entries,
                                     self.slot, self.zeros[i])


_Q = ("q",)

# The J-fractions with monomial levels, one row each: variables, then
# alpha(k) and beta(k) as {variable: (base, slope)}, meaning
# variable^(base + slope * (k - 1)) at level k.
_FRACTIONS: dict[str, tuple[tuple[str, ...], dict, dict]] = {
    "motzkin": (("q",), {}, {}),
    "I-abcd": (("a", "b", "c", "d"),
               {"a": (1, 0), "d": (0, 1)}, {"b": (1, 0), "c": (0, 1)}),
    "I4321-joint": (("x", "y", "p", "q"),
                    {"x": (1, 0), "q": (0, 1)}, {"y": (1, 0), "p": (0, 2)}),
    "I3412-joint": (("x", "y", "p", "q"),
                    {"x": (1, 0), "q": (0, 1)}, {"y": (1, 0), "q": (0, 2)}),
    "S321-exc-crs": (("y", "q"), {"q": (0, 1)}, {"y": (1, 0), "q": (0, 1)}),
    "A": (_Q, {"q": (0, 1)}, {"q": (0, 2)}),
    "main12-rhs": (_Q, {"q": (0, 1)}, {"q": (0, 1)}),
}


def _fraction(name: str) -> tuple[tuple[str, ...], Callable, Callable]:
    """Row ``name`` of ``_FRACTIONS`` as (variables, alpha, beta)."""
    variables, *sides = _FRACTIONS[name]

    def level(exps: dict) -> Callable[[int], MultiPoly]:
        return lambda k: MultiPoly.monomial(
            variables, {v: base + slope * (k - 1) for v, (base, slope) in exps.items()}
        )

    return variables, *map(level, sides)


def _unipoly_rows(table: _PackedTableau) -> list[list[UniPoly]]:
    """Rows 0..n_max of a full tableau in q, each entry a ``UniPoly``."""
    zeros = [[0] * z for z in table.zeros]
    return [[UNI_ONE]] + [
        [UniPoly._trusted(zeros[i] + _slot_coeffs(e, table.slot))
         for i, e in enumerate(row)]
        for row in table.rows()
    ]


def stieltjes_tableau(
    alpha: LevelSeq, beta: LevelSeq, n_max: int
) -> list[list[UniPoly]]:
    """Triangular tableau driven by level sequences alpha and beta.

    Row n has entries i = 0..n with h[0][0] = 1 and

        h[n][i] = beta(i) * h[n-1][i-1]
                  + alpha(i+1) * h[n-1][i]
                  + h[n-1][i+1]

    where entries outside 0 <= i <= n-1 in row n-1 count as zero; alpha and
    beta are consulted once per level, and only for level >= 1.  Levels are
    ``UniPoly``s or ints with nonnegative coefficients, or ``ValueError`` is
    raised: the rows are the full rows of ``_PackedTableau``.
    """
    _check_size(n_max, "n_max")

    def level(name: str, seq: LevelSeq, k: int) -> MultiPoly:
        if type(value := seq(k)) is not int and not isinstance(value, UniPoly):
            raise ValueError(f"{name}({k}) is not a UniPoly or an int")
        return MultiPoly.from_unipoly(UNI_ONE * value, _Q)

    levels = (partial(level, "alpha", alpha), partial(level, "beta", beta))
    return _unipoly_rows(_PackedTableau(_Q, *levels, n_max))


def h_tableau(n_max: int) -> list[list[UniPoly]]:
    """``stieltjes_tableau`` with alpha(i) = beta(i) = q^(i-1).

    Rows are cached; each call returns fresh lists, and a call past the
    cache builds the tableau again from row 0, as the full rows of
    ``_PackedTableau``, which divides entry (n, i) by q^(i(i-1)/2), the
    weight of its up steps.  Its first column is ``q_motzkin_tilde``, from
    the cut rows of the same tableau; the oracle's ``tableau-first-column``
    and ``tableau-row-pair`` check columns 0 and 1 against the product
    recurrence, and ``tableau-recursion`` every entry against
    ``h_recursion_rhs``:

    >>> str(h_tableau(4)[4][0])
    '5 + 3*q + q^2'
    """
    _check_size(n_max, "n_max")
    if len(_h_rows) <= n_max:
        _h_rows[:] = _unipoly_rows(_PackedTableau(*_fraction("main12-rhs"), n_max))
    return [list(row) for row in _h_rows[: n_max + 1]]


def _first_column(cache: list[UniPoly], n: int, name: str) -> UniPoly:
    """Entry n of column 0 of the tableau of row ``name``, in q.  A call past
    ``cache`` runs its cut rows from row 0 to n and caches entries 0..n."""
    _check_size(n)
    if len(cache) <= n:
        table = _PackedTableau(*_fraction(name), n, cut=True)
        cache[:] = [UNI_ONE, *(UniPoly._trusted(_slot_coeffs(row[0], table.slot))
                               for row in table.rows())]
    return cache[n]


def q_motzkin(n: int) -> UniPoly:
    """q-Motzkin polynomial of the first kind: the t^n coefficient of the
    J-fraction with alpha(k) = q^(k-1), beta(k) = q^(2(k-1)), the ``A``
    preset.  The oracle's ``a-series-recurrence`` checks it against the
    product recurrence, and the ``dist-4321-crs-nes`` and ``dist-3412-nes``
    rows against enumeration.

    >>> str(q_motzkin(4))
    '5 + 2*q + 2*q^2'
    """
    return _first_column(_q_motzkin_cache, n, "A")


def q_motzkin_tilde(n: int) -> UniPoly:
    """q-Motzkin polynomial of the second kind: the t^n coefficient of the
    J-fraction with alpha(k) = beta(k) = q^(k-1), the ``main12-rhs`` preset
    and the first column of ``h_tableau``.  The oracle's
    ``dumont-expansion``, ``tableau-first-column`` and ``tableau-row-pair``
    check it against the product recurrence, and ``dist-321-crs`` against
    enumeration.

    >>> str(q_motzkin_tilde(4))
    '5 + 3*q + q^2'
    """
    return _first_column(_q_tilde_cache, n, "main12-rhs")


def h_recursion_rhs(n: int, i: int, table: Sequence[Sequence[UniPoly]]) -> UniPoly:
    """Closed-form right side for entry (n, i) of the ``h_tableau``.

        q^(i-1) * ( h[n-1][i-1]
                    + sum_{k=i-1}^{n-2} q^(1+k) h[k][i-1] h[n-1-k][0] )

    Requires 1 <= i <= n and a table computed at least to row n.
    """
    _check_size(n)
    _check_size(i, "i")
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    if len(table) <= n:
        raise ValueError(f"table only has rows up to {len(table) - 1}, need {n}")
    acc = table[n - 1][i - 1]
    for k in range(i - 1, n - 1):
        prod = table[k][i - 1] * table[n - 1 - k][0]
        acc = acc + prod.times_q_power(1 + k)
    return acc.times_q_power(i - 1)
