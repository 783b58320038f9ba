"""Motzkin numbers, their q-analogues, and Stieltjes-type tableaux.

Two q-analogues are built from the same product recurrence, differing only
in the exponent placed on the product term:

* ``q_motzkin``:        M_n = M_{n-1} + sum_{k=0}^{n-2} q^k     M_k M_{n-2-k}
* ``q_motzkin_tilde``:  M~_n = M~_{n-1} + sum_{k=0}^{n-2} q^e(k) M~_k M~_{n-2-k}
  with e(k) = k + 1, except e(n-2) = 0.

Setting q = 1 in either recovers the Motzkin numbers.

Both run on packed integers, one ``slot``-byte field per coefficient, so
that multiplying two polynomials is one big-integer product and a power of
q is a shift.  The terms k and n-2-k share their product, which is added in
at both shifts.  Coefficients are nonnegative, so none exceeds the value at
q = 1, a Motzkin number, and a slot that holds that number with a bit to
spare never carries into the next (see ``_q_recurrence``).

``h_tableau``, the tableau with levels q^(i-1), runs packed too, on its
entries divided by the q^(i(i-1)/2) that every path to height i carries:
a step is an add, a shift and an add per entry, with no product.
``stieltjes_tableau`` takes any levels, so it stays on polynomial products
(``_tableau_rows``).
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from .permutations import _check_size
from .polynomials import UNI_ONE, UniPoly, _pack_slots, _unpack_slots

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


def _q_recurrence(
    cache: list[UniPoly], n: int, exponent: Callable[[int, int], int]
) -> UniPoly:
    """Extend ``cache`` to index n by M_m = M_{m-1} + sum_k q^e M_k M_{m-2-k},
    e = exponent(k, m), and return M_n.

    Runs on packed integers: each polynomial is one int holding its
    coefficients in ``slot``-byte fields, lowest degree lowest, so that
    multiplying by q^e is a shift by 8*slot*e bits.  One slot width serves
    the whole extension, ``slot = (motzkin_number(n).bit_length() + 8) // 8``
    bytes.  No field ever carries into the next: every coefficient is
    nonnegative, so each coefficient of every partial sum at step m, and of
    every product M_k M_{m-2-k} in it, is at most M_m(1) = motzkin_number(m)
    <= motzkin_number(n) < 2**(8*slot - 1).  The terms k and m-2-k share one
    product, added in at both of their shifts.  Each cached entry is packed
    once per extension and each new entry unpacked once.
    """
    _check_size(n)
    if len(cache) > n:
        return cache[n]
    slot = (motzkin_number(n).bit_length() + 8) // 8
    bits = 8 * slot
    packed = [_pack_slots(p.coeffs, slot) for p in cache]
    for m in range(len(cache), n + 1):
        total = packed[m - 1]
        for k in range(m // 2):
            j = m - 2 - k
            prod = packed[k] * packed[j]
            total += prod << (exponent(k, m) * bits)
            if j != k:
                total += prod << (exponent(j, m) * bits)
        packed.append(total)
        count = -(-total.bit_length() // bits)
        cache.append(UniPoly(_unpack_slots(total, slot, count)))
    return cache[n]


def q_motzkin(n: int) -> UniPoly:
    """q-Motzkin polynomial of the first kind.

    >>> str(q_motzkin(4))
    '5 + 2*q + 2*q^2'
    """
    return _q_recurrence(_q_motzkin_cache, n, lambda k, m: k)


def q_motzkin_tilde(n: int) -> UniPoly:
    """q-Motzkin polynomial of the second kind.

    >>> str(q_motzkin_tilde(4))
    '5 + 3*q + q^2'
    """
    return _q_recurrence(
        _q_tilde_cache, n, lambda k, m: 0 if k == m - 2 else k + 1
    )


LevelSeq = Callable[[int], "UniPoly | int"]


def _tableau_rows(
    alpha: Callable[[int], Any], beta: Callable[[int], Any], row: list
) -> Iterator[list]:
    """Yield rows n+1, n+2, ... of a Stieltjes tableau, given its row n.

    Each row follows from the one before by the recurrence of
    ``stieltjes_tableau``, entries missing from it counting as zero, and row
    m has the entries i = 0..m.  Entries are polynomials of one type, level
    values polynomials of that type or ints; each level is consulted once,
    and only for level >= 1.  It serves ``stieltjes_tableau`` alone, whose
    levels are arbitrary and may have negative coefficients, and is the
    tests' reference for the packed tableaux: ``h_tableau`` and
    ``jfraction_series`` each run their own.
    """
    alpha, beta = cache(alpha), cache(beta)
    zero = row[0] * 0
    prev = row
    while True:
        last = len(prev) - 1
        cur = []
        for i in range(last + 2):
            acc = prev[i + 1] if i < last else zero
            if i <= last:
                acc = acc + alpha(i + 1) * prev[i]
            if i:
                acc = acc + beta(i) * prev[i - 1]
            cur.append(acc)
        yield cur
        prev = cur


def stieltjes_tableau(
    alpha: LevelSeq, beta: LevelSeq, n_max: int
) -> list[list[UniPoly]]:
    """Triangular tableau driven by level sequences alpha and beta.

    Row n has entries i = 0..n with h[0][0] = 1 and

        h[n][i] = beta(i) * h[n-1][i-1]
                  + alpha(i+1) * h[n-1][i]
                  + h[n-1][i+1]

    where entries outside 0 <= i <= n-1 in row n-1 count as zero; alpha and
    beta are only consulted for level >= 1.
    """
    _check_size(n_max, "n_max")
    rows = [[UNI_ONE]]
    rows += islice(_tableau_rows(alpha, beta, rows[0]), n_max)
    return rows


def _h_step(prev: list[int], bits: int) -> list[int]:
    """Row n of the reduced tableau g from its row n-1,

        g[n][i] = g[n-1][i-1] + q^i (g[n-1][i] + g[n-1][i+1]),

    entries outside row n-1 counting as zero, each entry packed ``bits``
    bits per coefficient.  With ``bits`` = 0 it is the tableau at q = 1.
    """
    p = [0, *prev, 0, 0]
    return [
        p[i] + ((p[i + 1] + p[i + 2]) << i * bits) for i in range(len(prev) + 1)
    ]


def _h_packed_rows(row: list[UniPoly], n_max: int) -> Iterator[list[UniPoly]]:
    """Yield rows len(row) .. n_max of ``h_tableau``, given the row before.

    The given row is packed once, its low zeros divided out, at one slot
    width for the whole extension, sized from the q = 1 tableau to n_max;
    each new entry is unpacked once, with its low zeros put back.
    """
    n = len(row) - 1
    ones = [sum(h.coeffs) for h in row]
    for _ in range(n, n_max):
        ones = _h_step(ones, 0)
    slot = (max(ones).bit_length() + 8) // 8
    slot = 1 << (slot - 1).bit_length() if slot <= 8 else -(-slot // 8) * 8
    bits = 8 * slot
    g = [_pack_slots(h.coeffs[i * (i - 1) // 2 :], slot) for i, h in enumerate(row)]
    for _ in range(n, n_max):
        g = _h_step(g, bits)
        yield [
            UniPoly(
                [0] * (i * (i - 1) // 2)
                + _unpack_slots(v, slot, -(-v.bit_length() // bits))
            )
            for i, v in enumerate(g)
        ]


def h_tableau(n_max: int) -> list[list[UniPoly]]:
    """Tableau with alpha(i) = beta(i) = q^(i-1).

    Rows are cached and extended on demand; each call returns fresh lists.
    Its first column reproduces ``q_motzkin_tilde``:

    >>> str(h_tableau(4)[4][0])
    '5 + 3*q + q^2'

    Entry (n, i) is a multiple of q^(i(i-1)/2): a path to height i climbs
    through levels 1..i, and those up steps weigh q^0, ..., q^(i-1).  So the
    rows are built from g[n][i] = h[n][i] / q^(i(i-1)/2), which obeys

        g[n][i] = g[n-1][i-1] + q^i (g[n-1][i] + g[n-1][i+1]),

    one add, one shift and one add per entry, on ints about half as long
    and with no product.  Each g entry is one int, ``slot`` bytes per
    coefficient.  No slot carries: every coefficient is nonnegative, so each
    one of an entry, and of its partial sums, is at most the entry's value
    at q = 1, and the q = 1 tableau only grows down each column, so the
    last row built bounds them all.  ``slot`` holds that bound with a bit to
    spare, rounded up to 1, 2, 4 or 8 bytes, or to a multiple of 8 above
    that: the widths ``_unpack_slots`` reads without a call per slot.
    """
    _check_size(n_max, "n_max")
    rows = _h_rows
    if len(rows) <= n_max:
        rows += _h_packed_rows(rows[-1], n_max)
    return [list(row) for row in rows[: n_max + 1]]


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
