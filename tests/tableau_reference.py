"""Test-only reference for every packed Stieltjes tableau.

``tableau_rows`` runs the tableau on polynomial products, one product per
entry and level, with no packing: the reference for ``h_tableau``,
``stieltjes_tableau`` and ``jfraction_series``, which all run
``qmotzkin._PackedTableau``.
"""

from functools import cache
from typing import Any, Callable, Iterator


def tableau_rows(
    alpha: Callable[[int], Any], beta: Callable[[int], Any], row: list
) -> Iterator[list]:
    """Yield rows n+1, n+2, ... of a Stieltjes tableau, given its row n.

    Each row follows from the one before by the recurrence of
    ``stieltjes_tableau``, entries missing from it counting as zero, and row
    m has the entries i = 0..m.  Entries are polynomials of one type, level
    values polynomials of that type or ints; each level is consulted once,
    and only for level >= 1.  Levels may have negative coefficients.
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
