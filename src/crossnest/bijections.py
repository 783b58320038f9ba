"""Bijections between Motzkin paths and pattern-restricted permutations.

Three maps send a Motzkin path of length n to a permutation of the same
size, each turning step-height statistics into arc statistics:

* ``phi1`` pairs the k-th up step with the k-th down step and reads the
  pairs as 2-cycles; it lands in the 4321-avoiding involutions and carries
  (hor, up, 2*sh_u, sh_h) to (fp, exc, crs, nes).
* ``phi2`` pairs each up step with the down step closing its tunnel; it
  lands in the 3412-avoiding involutions, kills all crossings, and carries
  2*sh_u + sh_h to nes.
* ``phi3`` reads the strip decomposition as head/tail pairs and rebuilds
  the permutation with those pairs; it lands in the 321-avoiding
  permutations that also avoid the barred pattern, with
  (exc, crs) = (up, sh_u + sh_h) and inv = area - sh_u.

phi1 and phi3 read the same pairs: the strips are the sequential-matching
pairs (p, r), with head r - 1 and tail p + height(p).

``involution_shape_path`` inverts both phi1 and phi2 (they share it),
``phi3_inverse`` inverts phi3.

Each map validates its argument once, through the first callee that takes
it, and the validators remember the objects of 16 or more letters they
passed, by identity, so a path or an image handed from one map to the next
is not walked again.  With each such object they keep its facts, the
results of computations on it: a path's matchings and strips, an image's
involution test and class tests.  So ``phi1`` and ``strip_decomposition``
share one sequential matching, ``phi3`` reads the strips a caller already
asked for, and ``involution_shape_path`` and ``phi3_inverse`` reuse the
tests ``in_class`` ran on the same image.  A fact is immutable, so every
caller gets the same object back.  The head/tail pairs that ``phi3`` and
``phi3_inverse`` build by construction go straight to the trusted kernels
``_permutation_from_head_tail`` and ``_path_from_head_tail``, unchecked.

The images are born valid, and the maps store them as they build them
(``permutations._remember_built``): every image is a permutation, being
built by swaps or insertions, and the images of ``phi1`` and ``phi2`` are
involutions, since the 2-cycles of a matching are disjoint.  So ``phi1``
and ``phi2`` store theirs with the involution test passed, ``phi3`` with
no fact, and ``in_class``, ``involution_shape_path`` and ``phi3_inverse``
neither walk an image nor run the involution test on those two.  No class
test is stored with an image, since the class is what the paper proves:
``check=True`` still scans each image for its class's patterns, and trusts
only the involution test, by construction.
"""

from __future__ import annotations

from typing import Sequence

from .paths import (
    _path_from_head_tail,
    sequential_matching,
    strip_decomposition,
    tunnel_matching,
)
from .permutations import (
    PermClass,
    _fact,
    _in_class,
    _is_involution,
    _permutation_from_head_tail,
    _remember_built,
    check_permutation,
    in_class,
)


def _involution_from_pairs(
    pairs: Sequence[tuple[int, int]], n: int
) -> tuple[int, ...]:
    """The involution with the given 2-cycles, stored as built with its
    involution test passed: the pairs of a matching are disjoint."""
    word = list(range(1, n + 1))
    for a, b in pairs:
        word[a - 1], word[b - 1] = b, a
    return _remember_built(tuple(word), {_is_involution: True})


def phi1(word: str, *, check: bool = False) -> tuple[int, ...]:
    """Involution whose 2-cycles are the sequential matching of the path.

    The image is stored as built, with its involution test passed; with
    ``check=True`` it is still scanned for 4321.

    >>> phi1("uhd")
    (3, 2, 1)
    """
    result = _involution_from_pairs(sequential_matching(word), len(word))
    if check and not in_class(result, PermClass.I4321):
        raise AssertionError(f"phi1 image left its class: {result}")
    return result


def phi2(word: str, *, check: bool = False) -> tuple[int, ...]:
    """Involution whose 2-cycles are the tunnel matching of the path.

    The image is stored as built, with its involution test passed; with
    ``check=True`` it is still scanned for 3412.

    >>> phi2("uudd")
    (4, 3, 2, 1)
    """
    result = _involution_from_pairs(tunnel_matching(word), len(word))
    if check and not in_class(result, PermClass.I3412):
        raise AssertionError(f"phi2 image left its class: {result}")
    return result


def involution_shape_path(word: Sequence[int]) -> str:
    """Shared inverse of phi1 and phi2.

    Reads off one letter per position: 'u' where the involution goes up
    (word[i] > i), 'h' on fixed points, 'd' where it comes down.  The
    result is always a Motzkin path: each 2-cycle (a, b), a < b, puts its
    'u' at a before its 'd' at b, so no prefix has more 'd' than 'u'.

    >>> involution_shape_path((3, 2, 1))
    'uhd'
    """
    w = check_permutation(word)
    if not _fact(w, _is_involution):
        raise ValueError(f"not an involution: {w}")
    letters = []
    for i, v in enumerate(w, start=1):
        letters.append("u" if v > i else "h" if v == i else "d")
    return "".join(letters)


def phi3(word: str, *, check: bool = False) -> tuple[int, ...]:
    """Permutation built from the path's strip decomposition.

    The image is stored as built, with no fact; with ``check=True`` it is
    still scanned for 321 and the barred pattern.

    >>> phi3("ud")
    (2, 1)
    """
    result = _remember_built(
        _permutation_from_head_tail(strip_decomposition(word), len(word))
    )
    if check and not in_class(result, PermClass.S321_B3142):
        raise AssertionError(f"phi3 image left its class: {result}")
    return result


def phi3_inverse(word: Sequence[int]) -> str:
    """Path whose strips encode the permutation's head/tail pairs.

    The permutation must avoid 321 and the barred pattern.  The pairs are then
    the excedances (w[t] - 1, t): with no 321, an excedance letter has only
    smaller letters on its left, and any other letter has all of them there.
    They are the strips of the path that phi3 sends to the permutation, so
    they pass ``path_from_head_tail``'s checks and go to its kernel.

    >>> phi3_inverse((2, 1))
    'ud'
    """
    w = check_permutation(word)
    if not _in_class(w, PermClass.S321_B3142):
        raise ValueError(f"permutation is outside the 321/barred class: {w}")
    excedances = [(v - 1, t) for t, v in enumerate(w, start=1) if v > t]
    return _path_from_head_tail(excedances, len(w))
