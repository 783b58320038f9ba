"""Permutations of {1..n}: statistics, patterns, classes, decompositions.

A permutation is a tuple of the integers 1..n in one-line notation, so
``(4, 6, 2, 9, 8, 1, 7, 3, 10, 5)`` maps 1 to 4, 2 to 6, and so on.  The
empty tuple is the (unique) permutation of the empty set.  Indices and
values are 1-based throughout; position i holds ``word[i - 1]``.

Statistics follow the crossing/nesting conventions for the diagram that
draws an arc from i to word[i]:

* a pair i < j crosses   when i < j < word[i] < word[j]
                         or word[i] < word[j] <= i < j,
* a pair i < j nests     when i < j < word[j] < word[i]
                         or word[j] < word[i] <= i < j.

Inversions, excedances, descents and fixed points are the usual ones, and
``inv = exc + crs + 2 * nes`` holds for every permutation.

4321 and 3412 each have one scan of prefix registers (West 1995), which
the word test runs over the whole word (321 runs the 4321 scan behind a
letter above them all).  The barred 3-bar-1-42 is the vincular pattern
23-1 (Claesson 2001), tested in one pass.  Like ``contains_classical``,
the fast tests raise ValueError on a word that is not a permutation.
Each family is one ``_CLASS_RULES`` row: its word test (for ``in_class``,
which validates the word once), its members and its statistics tally.

Every family but ``ALL`` is one generating tree without dead subtrees,
written once, as a factory of its root state and its ``moves``: each move
names a child's level, state, statistics step and letter.  One involution
tree serves the three involution families, each with its range of
partners for the next 2-cycle, and runs no pattern scan: an involution
contains 4321 exactly when two of its 2-cycles nest, and 3412 exactly
when two cross.  ``_walk`` places the moves' letters depth first for
``enumerate_class``; filtering every involution or permutation through
the word tests is its test reference.  The statistics come from one
forward pass over the same moves' states (``_state_pass``), not from the
members: the future of a node depends only on its state, so nodes with
equal states merge, and the work grows with the distinct states.  Each
state carries its tally as {the other statistics, packed: the counts
along the last one, packed}, one slot per value of the last statistic
(nes, or inv for the 321/barred tree), as ``qmotzkin._PackedTableau``
packs its entries, so a step is one addition and one shift per entry.
A slot holds the size of the tree's base family (the involutions, or
n!), and no count of nodes at one level exceeds the leaves below them,
so no slot carries.  Each statistic rule lives only in these moves.
``_fp_exc_crs_nes_inv`` is the one statistics kernel
that ``perm_statistics``, ``ALL``'s distribution and the oracle checks
run: one left-to-right pass with sets of letters and positions as
bitmasks, O(n) big-int operations on n-bit masks.  The O(n^2) loop over
all pairs that restates the definitions above is its test reference, and
that loop or the kernel over every member of ``enumerate_class`` is the
test reference of the state passes; a pass with one dict entry per
statistics tuple is the test reference of their packed tallies.  Head/tail
pairs are read off the inversion table by the same kind of pass and rebuilt
by insertion; the public pair and rebuild functions validate their input
and then call the trusted kernels ``_head_tail_pairs`` and
``_permutation_from_head_tail``.

Every public function that takes a word validates it through
``check_permutation``, and each kernel behind them trusts its word.  The
same word often reaches several entry points in a row, so
``check_permutation`` here and ``paths.check_path`` share one cache of the
last eight exact tuples and exact strings of 16 or more letters they
passed, looked up by identity, and walk such an object only once.  It
never stores a list, a subclass or the copy made of one, and never
matches by equality, under which ``(True, 2)`` would pass for ``(1, 2)``.
Each entry also holds a table of facts: the results of computations on
that exact object (its involution test, each class rule's word test, a
path's matchings and strips), filled on first use through ``_fact`` and
dropped with the entry.  Facts are immutable (bools, tuples of int pairs),
so a caller gets back the same object as the call that computed it; an
object not in the cache gets a fresh computation at every call.  The maps
of ``crossnest.bijections`` store the images they build through
``_remember_built``, unwalked, since each is a permutation by
construction; ``phi1`` and ``phi2`` seed their images' involution test,
and no class test is ever seeded.

``distribution`` sums a monomial over a family, the ground truth the rest
of the package is tested against; it lives here, beside the trees and
their state passes, with ``StatSpec`` and the size guard, and
``crossnest.oracle`` re-exports them.  Family sizes grow fast, so sizes
above a guard (default 12, override with the CROSSNEST_ENUM_LIMIT
environment variable or allow_large=True) are refused with
``SizeLimitError`` rather than silently churning.  Every statistic is a
projection of one (fp, exc, crs, nes) tally, so each family and size is
tallied once per process: ``_family_tally`` keeps the last 64 as immutable
tuples, and ``distribution`` reads it only after the guard.  The uncached
rule tally, ``_CLASS_RULES[cls].tally(n)``, is its test reference.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .polynomials import MultiPoly, _check_size, _slot_bytes, _slot_coeffs


def is_permutation_word(word: Sequence[int]) -> bool:
    """True when ``word`` lists each of 1..n exactly once, as plain ints.

    Python counts a bool as an int, but ``True`` is not the letter 1, so
    bools (and other int subclasses) are refused.

    >>> is_permutation_word((2, 1, 3))
    True
    >>> is_permutation_word((1, 1))
    False
    >>> is_permutation_word((2, True))
    False
    """
    n = len(word)
    seen = [False] * (n + 1)
    for v in word:
        if type(v) is not int or not 1 <= v <= n or seen[v]:
            return False
        seen[v] = True
    return True


# The exact tuples and strs that check_permutation and paths.check_path
# passed last, looked up by identity: id -> (the object itself, its facts).
# A hit needs the stored object to be the argument, never an equal one,
# since (True, 2) == (1, 2) and a bool is not a letter.  The entry's strong
# reference keeps each object alive, so its id is not reused while stored.
# _remember stores in turn along a ring of eight ids, which holds what one
# object's round of calls validates or builds (a path, its three images
# and a word) with room to spare.  The facts are what _fact computed on the
# object so far, or what it was built to be, keyed by the computation; they
# leave with the entry.
_VALIDATED: dict[int, tuple[object, dict]] = {}
_VALIDATED_IDS = [0] * 8
_VALIDATED_TURN = itertools.count()
# A word or path shorter than this is walked in about the time the cache's
# bookkeeping takes, so it is walked at every call and never stored.
_CACHED_FROM = 16


def _passed(obj: object) -> bool:
    """True when ``obj`` itself is in the cache of passed words and paths."""
    entry = _VALIDATED.get(id(obj))
    return entry is not None and entry[0] is obj


def _remember(obj: object, facts: dict | None = None) -> None:
    """Store ``obj``, which a validator has just passed or the package has
    just built valid, and which cannot change, evicting the object stored
    eight calls before.

    Its fact table starts as ``facts``, a new dict the caller hands over
    (what the object is known to be by construction), or empty.  The
    table goes in with the entry in one assignment.

    Each step is one dict, list or counter operation and a lookup checks
    identity, so a race between threads can only cost a miss: it never
    raises, never admits an object that was neither passed nor built
    valid, and never shows an entry without its starting facts.
    """
    k = next(_VALIDATED_TURN) % len(_VALIDATED_IDS)
    _VALIDATED.pop(_VALIDATED_IDS[k], None)
    _VALIDATED_IDS[k] = key = id(obj)
    _VALIDATED[key] = (obj, {} if facts is None else facts)
    if len(_VALIDATED) > len(_VALIDATED_IDS):  # only after racing stores
        _VALIDATED.clear()


def _remember_built(
    word: tuple[int, ...], facts: dict | None = None
) -> tuple[int, ...]:
    """``word``, a new exact tuple that the package built as a permutation,
    stored with ``facts`` when it is long enough to be cached, so the next
    entry point that takes it does not walk it.

    Only facts that hold by construction belong in ``facts``: the maps
    seed their images' involution test, never a class test.
    """
    if len(word) >= _CACHED_FROM:
        _remember(word, facts)
    return word


def _fact(obj: object, compute: Callable):
    """``compute(obj)`` for a word or path that a validator has passed or
    the package has built, remembered in ``obj``'s fact table while
    ``obj`` is in the cache.

    ``compute`` is one of the package's computations on a trusted object
    (``_is_involution``, a class rule's word test, a path's matchings or
    strips) and names the fact; its values are immutable and never None,
    so every caller gets the same object back.  An object too short to be
    stored is computed at once, so the many short calls pay one length
    test and no lookup; any other object not in the cache (a list, a
    subclass, evicted) pays one failed lookup.  Either is computed at
    every call.  A race can only compute a fact twice, never mix two
    objects' facts.
    """
    if len(obj) < _CACHED_FROM:
        return compute(obj)
    entry = _VALIDATED.get(id(obj))
    if entry is None or entry[0] is not obj:
        return compute(obj)
    facts = entry[1]
    value = facts.get(compute)
    if value is None:
        value = facts[compute] = compute(obj)
    return value


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    """Validate and return the word as a tuple; raise ValueError otherwise.

    ``tuple(word)`` is the word itself when it is an exact tuple.  Such a
    tuple of 16 or more letters that passed is remembered, by a strong
    reference, until eight more words or paths have been stored, and is
    not walked again meanwhile; the facts that ``_fact`` computes on it (its
    involution test and class tests) are kept with it and leave with it.
    The lookup is by identity, never by equality, under which ``(True, 2)``
    would pass for ``(1, 2)``; a tuple of plain ints cannot change, so it
    stays valid.  Any other argument, a list say, makes a new tuple at
    every call, which is walked every time and never stored, since no
    later call could hand the same copy back.  An image that a map of
    ``crossnest.bijections`` built is stored already, by
    ``_remember_built``, so its first check here is a hit.
    """
    w = tuple(word)
    cached = w is word and len(w) >= _CACHED_FROM
    if cached and _passed(w):
        return w
    if not is_permutation_word(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    if cached:
        _remember(w)
    return w


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse one-line notation, values separated by whitespace.

    >>> parse_permutation("3 1 2")
    (3, 1, 2)
    >>> parse_permutation("")
    ()
    """
    fields = text.split()
    try:
        values = tuple(int(f) for f in fields)
    except ValueError:
        raise ValueError(f"not a permutation word: {text!r}") from None
    return check_permutation(values)


def one_line(word: Sequence[int]) -> str:
    """One-line notation as text, the inverse of ``parse_permutation``."""
    return " ".join(str(v) for v in word)


def cycle_string(word: Sequence[int]) -> str:
    """Cycle notation with cycles by smallest element, fixed points shown.

    >>> cycle_string((2, 1, 3))
    '(1 2)(3)'
    >>> cycle_string(())
    '()'
    """
    w = check_permutation(word)
    n = len(w)
    if n == 0:
        return "()"
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = w[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = w[nxt - 1]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts)


def is_involution(word: Sequence[int]) -> bool:
    """True when the permutation is its own inverse.

    >>> is_involution((2, 1, 3))
    True
    >>> is_involution((2, 3, 1))
    False
    """
    return _fact(check_permutation(word), _is_involution)


def _is_involution(w: tuple[int, ...]) -> bool:
    # is_involution on a word already known to be a permutation.
    return all(w[w[i] - 1] == i + 1 for i in range(len(w)))


class StatRecord(NamedTuple):
    """Statistics of one permutation."""

    exc: int
    fp: int
    crs: int
    nes: int
    inv: int
    exc_set: tuple[int, ...]
    des_set: tuple[int, ...]
    is_involution: bool


def _fp_exc_crs_nes_inv(w: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """Fixed points, excedances, crossings, nestings and inversions.

    The statistics kernel behind ``perm_statistics``, ``distribution`` and the
    oracle checks; it trusts ``w`` to be a valid permutation word.

    Sets of letters and positions are bitmasks, v as bit v (Knuth, TAOCP 4A,
    7.1.3), so no pair of positions is visited: one pass over the word, a
    few big-int operations and popcounts on n-bit masks per letter.  At
    position i with letter s, ``placed`` holds the earlier letters and
    ``above`` counts those above s, the inversions that end at i.  Each
    crossing and nesting is counted at its right end i, and pairs i with an
    earlier arc of its own kind, excedance or weak deficiency:

    * when s > i, the earlier letters above i, all at excedances, are the
      crossings and nestings at i: those above s nest (a < i < s < w[a]),
      the rest cross (a < i < w[a] < s);
    * when s <= i, ``wd`` and ``wdpos`` hold the letters and positions of
      the earlier weak deficiencies, and those at positions a >= s are the
      crossings and nestings at i: the letters above s nest
      (s < w[a] <= a < i), the rest cross (w[a] < s <= a < i).
    """
    fp = exc = crs = nes = inv = placed = wd = wdpos = 0
    for i, s in enumerate(w, 1):
        bit = 1 << s
        above = (placed >> s).bit_count()
        inv += above
        if s > i:
            exc += 1
            nes += above
            crs += (placed >> (i + 1)).bit_count() - above
        else:
            if s == i:
                fp += 1
            k = (wd >> s).bit_count()
            nes += k
            crs += (wdpos >> s).bit_count() - k
            wd |= bit
            wdpos |= 1 << i
        placed |= bit
    return fp, exc, crs, nes, inv


def perm_statistics(word: Sequence[int]) -> StatRecord:
    """All statistics of a permutation.

    fp, exc, crs, nes and inv come from the bitmask kernel
    ``_fp_exc_crs_nes_inv``; the excedance set, the descent set and the
    involution test are one more pass over the word each.

    >>> r = perm_statistics((3, 2, 1))
    >>> (r.exc, r.fp, r.crs, r.nes, r.inv)
    (1, 1, 0, 1, 3)
    """
    w = check_permutation(word)
    n = len(w)
    fp, exc, crs, nes, inv = _fp_exc_crs_nes_inv(w)
    return StatRecord(
        exc=exc,
        fp=fp,
        crs=crs,
        nes=nes,
        inv=inv,
        exc_set=tuple(i for i in range(1, n + 1) if w[i - 1] > i),
        des_set=tuple(i for i in range(1, n) if w[i - 1] > w[i]),
        is_involution=_fact(w, _is_involution),
    )


def contains_classical(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """Classical pattern containment by order-isomorphic subsequence.

    >>> contains_classical((2, 1, 4, 3), (2, 1, 4, 3))
    True
    >>> contains_classical((1, 2, 3), (2, 1))
    False
    """
    w = check_permutation(word)
    p = check_permutation(pattern)
    if not p:
        raise ValueError("pattern must be nonempty")
    n, k = len(w), len(p)
    # Depth first without recursion: chosen holds the positions matched to
    # p[0], p[1], ..., and pos is the next position to try for the next one.
    chosen: list[int] = []
    pos = 0
    while len(chosen) < k:
        m = len(chosen)
        if pos <= n - (k - m):
            v = w[pos]
            if all((v > w[c]) == (p[m] > p[t]) for t, c in enumerate(chosen)):
                chosen.append(pos)
            pos += 1
        elif chosen:
            pos = chosen.pop() + 1
        else:
            return False
    return True


def contains_321(word: Sequence[int]) -> bool:
    """True when some decreasing subsequence has length three."""
    # A letter above every letter of w, placed first, turns each 321 of w
    # into a 4321 and makes no other 4321.
    w = check_permutation(word)
    return _grow_4321((len(w) + 1, 0, 0), w) is None


def contains_4321(word: Sequence[int]) -> bool:
    """True when some decreasing subsequence has length four."""
    return _grow_4321((0, 0, 0), check_permutation(word)) is None


def contains_3412(word: Sequence[int]) -> bool:
    """True when some subsequence has the pattern 3412."""
    return _grow_3412((0, 0, 0), check_permutation(word)) is None


def avoids_barred_3142(word: Sequence[int]) -> bool:
    """Avoidance of the barred pattern built on 3142 with the 1 barred.

    A permutation fails exactly when it contains an occurrence of 231 (as
    positions i < j < k with word[k] < word[i] < word[j]) that cannot be
    completed to 3142 by a letter below word[k] strictly between i and j.

    That is the vincular 23-1 (Claesson 2001): an adjacent ascent
    word[m] < word[m + 1] with a later letter below word[m], a 231 with
    nothing to complete it.  Conversely, if no letter between i and j lies
    below word[k], the letters from i to j all lie above word[k] and climb
    from word[i] to word[j], so two adjacent ones among them rise.

    >>> avoids_barred_3142((2, 3, 1))
    False
    >>> avoids_barred_3142((3, 1, 2))
    True
    """
    return _avoids_23_1(check_permutation(word))


def _avoids_23_1(w: tuple[int, ...]) -> bool:
    # avoids_barred_3142 on a word already known to be a permutation.
    low = len(w) + 1  # the smallest of w[m + 2:]
    for m in range(len(w) - 3, -1, -1):
        if w[m + 2] < low:
            low = w[m + 2]
        if low < w[m] < w[m + 1]:
            return False
    return True


class PermClass(enum.Enum):
    """Enumerable permutation families."""

    ALL = "all"
    INVOLUTIONS = "involutions"
    I4321 = "I4321"
    I3412 = "I3412"
    S321_B3142 = "S321B3142"

    @classmethod
    def from_name(cls, name: str) -> "PermClass":
        return _member_named(cls, name, "class")


def _member_named(kind: type[enum.Enum], name: str, noun: str):
    """The member of ``kind`` whose value is ``name``; ValueError otherwise."""
    for member in kind:
        if member.value == name:
            return member
    known = ", ".join(m.value for m in kind)
    raise ValueError(f"unknown {noun} {name!r} (known: {known})")


def _next_free(i: int, arcs: int) -> tuple[int, int]:
    # The first free position past i, where arcs has a bit for each filled
    # position past i, and the arcs still open over it.
    past = arcs >> (i + 1)
    k = i + (~past & (past + 1)).bit_length()
    return k, arcs & (-1 << k)


def _involution_tree(
    n: int, partners: Callable[[int, int, int], tuple[int, int]]
) -> tuple:
    # (start, moves, w, fields, slot) of the involution tree whose partner
    # range is lo, hi = partners(i, arcs, n).  A node at level i has the
    # positions before i filled; its state arcs has bit b for each 2-cycle
    # (a b) with a < i < b, and these b are the filled positions past i.
    # Its children leave i fixed, then pair it with each free j in range(lo,
    # hi).  An involution holds 4321 exactly when two of its 2-cycles nest,
    # and 3412 exactly when two cross:
    # * Nested 2-cycles a < c < d < b read b d c a, crossing ones
    #   a < c < b < d read b d a c.
    # * With no nesting, the letters at openers rise, the letters at
    #   closers rise, and the fixed points rise, so a falling run takes at
    #   most one letter of each kind: three letters.
    # * With no crossing, the word is the direct sum of a block (b, s + 1,
    #   1), where (1 b) is the cycle of 1 (the block is just 1 when b = 1)
    #   and s a non-crossing involution, and a non-crossing involution t.
    #   3412 is sum-indecomposable, so an occurrence lies in one summand,
    #   and in the block it can use neither b, first and largest, nor 1,
    #   last and smallest; induction on s and t gives the rest.
    # A new 2-cycle (i j) nests under each open arc closing after j and
    # crosses each one closing before it, so I4321 takes its partners past
    # every open arc and I3412 before the first one closes, all free, and
    # every pairing completes to a member: no subtree is dead.  A fixed
    # point under an open arc makes one nesting with it, and (i j) two
    # crossings or two nestings with each (Flajolet 1980: the open arcs are
    # the height of the path), so the state keeps where each arc closes.
    # A move adds to the key (fp, exc, crs) and shifts along nes; a count
    # is at most I(n), the number of involutions, which sizes the slot.
    w = _stat_width(n)
    slot = _slot_bytes(_involution_count(n))
    exc, crs, nes = 1 << w, 1 << 2 * w, 8 * slot  # key units; fp's is 1

    def moves(i: int, arcs: int) -> Iterator[tuple[int, int, int, int, int]]:
        yield (*_next_free(i, arcs), 1, nes * arcs.bit_count(), i + 1)
        lo, hi = partners(i, arcs, n)
        for j in range(lo, hi):
            bit = 1 << j
            if not arcs & bit:
                outer = (arcs >> j).bit_count()
                crossed = arcs.bit_count() - outer
                yield (*_next_free(i, arcs | bit), exc + 2 * crs * crossed,
                       2 * nes * outer, j + 1)

    return 0, moves, w, 3, slot


def _involution_count(n: int) -> int:
    # I(n), the number of involutions of size n: I(n) = I(n-1) + (n-1) I(n-2).
    before, count = 0, 1
    for k in range(1, n + 1):
        before, count = count, count + (k - 1) * before
    return count


def _free_partners(i: int, arcs: int, n: int) -> tuple[int, int]:
    # Every involution: any later position; the tree skips the filled ones.
    return i + 1, n


def _nonnesting_partners(i: int, arcs: int, n: int) -> tuple[int, int]:
    # I4321: the positions past the end of every open arc.
    return max(i + 1, arcs.bit_length()), n


def _noncrossing_partners(i: int, arcs: int, n: int) -> tuple[int, int]:
    # I3412: the positions before the first open arc's end.
    return i + 1, (arcs & -arcs).bit_length() - 1 if arcs else n


def _grow_4321(regs: tuple[int, int, int], letters: Sequence[int]) -> tuple | None:
    # The 4321 machine: the registers of a prefix run on over more letters,
    # or None once the letters so far hold 4321.  bj is the largest last
    # letter over decreasing subsequences of length j so far; a larger last
    # letter is always easier to extend.  Letters are distinct, so each
    # letter that does not complete 4321 raises one register: that of the
    # longest decreasing subsequence it ends.
    b1, b2, b3 = regs
    for v in letters:
        if b3 > v:
            return None
        if b2 > v:
            b3 = v
        elif b1 > v:
            b2 = v
        else:
            b1 = v
    return b1, b2, b3


def _grow_3412(regs: tuple[int, int, int], letters: Sequence[int]) -> tuple | None:
    # The 3412 machine, run on like _grow_4321.  An occurrence is an ascent
    # (the 34), then a "1" below its low letter, then a later "2" between
    # the two.  seen: bit v for each letter v so far; low: the largest low
    # letter of an ascent so far, the best "3"; banned: bit v for each v
    # that would end a 3412 as its "2".  A letter u below low is a "1"
    # after that ascent, so every v with u < v < low is banned from then on.
    seen, low, banned = regs
    for v in letters:
        bit = 1 << v
        if banned & bit:
            return None
        if v < low:
            banned |= (1 << low) - (bit << 1)
        else:  # the best ascent ending at v starts at v's predecessor
            below = (seen & (bit - 1)).bit_length() - 1
            if below > low:
                low = below
        seen |= bit
    return seen, low, banned


def _avoider_tree(n: int) -> tuple:
    # (start, moves, w, fields, slot) of the 321/barred tree.  Every letter
    # not yet placed comes later.  A word holds 321 or 23-1 exactly when
    # some letter v has a later letter x < v and (a) a larger letter before
    # it, or (b) just before it a letter between x and v.  So with s the
    # smallest unplaced letter, v may follow a prefix when v = s, or when v
    # is above every placed letter and the last one is below s.  s is always
    # a child, so no branch dies, and the state is (placed, last < s), with
    # bit 0 set in placed.  The pass carries fp, exc and inv: letter v makes
    # an inversion with each placed letter above it.  Each move adds to the
    # key (fp, exc) and shifts along inv; a count is at most n!, which sizes
    # the slot.
    w = _stat_width(n)
    slot = _slot_bytes(math.factorial(n))
    exc, inv = 1 << w, 8 * slot  # key units; fp's is 1

    def moves(i: int, state: tuple[int, bool]) -> Iterator[tuple]:
        # s is at most i + 1, a fixed point when equal, and leaves the next
        # smallest above it, so its child is low.  Every other letter lies
        # above s and all i placed ones, so past i + 1: an excedance with no
        # inversion, and the smallest unplaced is still s.
        placed, low = state
        s = (~placed & (placed + 1)).bit_length() - 1
        yield (i + 1, (placed | 1 << s, True), 1 if s == i + 1 else 0,
               inv * (placed >> s).bit_count(), s)
        if low:
            for v in range(max(placed.bit_length(), s + 1), n + 1):
                yield i + 1, (placed | 1 << v, False), exc, 0, v

    return (1, True), moves, w, 2, slot


def _avoider_tally(n: int) -> dict[tuple[int, int, int, int], int]:
    # The (fp, exc, crs, nes) tally of the 321/barred tree.  A member avoids
    # 321, so it has no nesting, and inv = exc + crs + 2 nes gives crs (the
    # oracle rows class-nonnesting and inv-identity check both against the
    # kernel).
    tally = _state_pass(n, *_avoider_tree(n))
    return {(fp, e, iv - e, 0): count for (fp, e, iv), count in tally.items()}


def _stat_width(n: int) -> int:
    # Bits per statistic in a packed tally key: every statistic of a
    # permutation of size n, inv included, is below n * n.
    return max(1, (n * n).bit_length())


def _state_pass(
    n: int, start: object, moves: Callable, w: int, fields: int, slot: int
) -> dict[tuple[int, ...], int]:
    """The tally of a generating tree's leaves, by one pass over its states.

    A state stands for all the nodes whose subtrees it determines; the
    root has state ``start`` at level 0, and the leaves sit at level n.
    ``moves(i, state)`` yields (level, state, key delta, shift, letter) per
    child of a node at level i, each at a higher level; the pass ignores
    the letter, which ``_walk`` places.  Levels run in ascending
    order, so nodes with equal states are stepped together, not one member
    at a time, and no level is kept once it has been read.

    Each state holds {key: counts}: the key packs the first ``fields``
    statistics, w bits each, the first lowest, and the counts are the
    number of nodes at each value of the last statistic, one slot of
    ``slot`` bytes per value, lowest first, as in ``qmotzkin._PackedTableau``.
    So a child adds its key delta to each key and shifts the counts left by
    its shift, 8 * ``slot`` bits per unit of the last statistic.  No slot
    carries: every count, and every partial sum of a merge, counts distinct
    nodes at one level; each has a leaf below it (no tree has a dead
    subtree), and their leaf sets are disjoint, so no count exceeds the
    number of leaves, nor the bound that sized the slot (``_slot_bytes``).  The
    leaves come back as {statistics tuple, the last one last: count}.
    """
    levels: list = [{} for _ in range(n + 1)]
    levels[0][start] = {0: 1}
    for i in range(n):
        level, levels[i] = levels[i], None
        for state, tally in level.items():
            for k, new, dk, ds, _ in moves(i, state):
                target = levels[k].get(new)
                if target is None:
                    levels[k][new] = {key + dk: c << ds for key, c in tally.items()}
                else:
                    for key, c in tally.items():
                        key += dk
                        target[key] = target.get(key, 0) + (c << ds)
    total: dict = {}
    for tally in levels[n].values():
        for key, counts in tally.items():
            total[key] = total.get(key, 0) + counts
    mask = (1 << w) - 1
    leaves = {}
    for key, counts in total.items():
        stats = tuple([key >> (w * f) & mask for f in range(fields)])
        for last, c in enumerate(_slot_coeffs(counts, slot)):
            if c:
                leaves[(*stats, last)] = c
    return leaves


def _walk(
    n: int, start: object, moves: Callable, involutive: bool
) -> Iterator[tuple[int, ...]]:
    # The leaves of a generating tree as words, depth first, by a stack of
    # move iterators: a child places its letter v at its parent's level i,
    # and in an involution tree i + 1 at position v too, so each position is
    # written on the way to a leaf.  Moves come in increasing letter, so the
    # words come in lexicographic order.
    if n == 0:
        yield ()
        return
    word = [0] * n
    stack = [(0, moves(0, start))]
    while stack:
        i, children = stack[-1]
        for k, state, _, _, v in children:
            word[i] = v
            if involutive:
                word[v - 1] = i + 1
            if k == n:
                yield tuple(word)
            else:
                stack.append((k, moves(k, state)))
                break
        else:
            stack.pop()


def _kernel_tally(n: int) -> Counter:
    # ALL: the statistics kernel over every word of S_n.
    words = enumerate_class(n, PermClass.ALL)
    return Counter(_fp_exc_crs_nes_inv(w)[:4] for w in words)


class _ClassRule(NamedTuple):
    involutive: bool  # drawn from the involutions; _walk writes both ends
    avoids: Callable | None  # word test for in_class, trusting it to validate
    members: Callable  # size n -> the members in lexicographic order
    tally: Callable  # size n -> {(fp, exc, crs, nes): number of members}


def _tree_rule(involutive: bool, avoids, tree: Callable, tally=None) -> _ClassRule:
    # A family grown by tree(n) = (start, moves, w, fields, slot): the walk
    # over the moves, and the pass over their states (or ``tally``, its own).
    return _ClassRule(
        involutive, avoids,
        lambda n: _walk(n, *tree(n)[:2], involutive),
        tally or (lambda n: _state_pass(n, *tree(n))),
    )


_CLASS_RULES = {
    PermClass.ALL: _ClassRule(
        False, None, lambda n: itertools.permutations(range(1, n + 1)), _kernel_tally
    ),
    PermClass.INVOLUTIONS: _tree_rule(
        True, None, lambda n: _involution_tree(n, _free_partners)
    ),
    PermClass.I4321: _tree_rule(
        True, lambda w: _grow_4321((0, 0, 0), w) is not None,
        lambda n: _involution_tree(n, _nonnesting_partners),
    ),
    PermClass.I3412: _tree_rule(
        True, lambda w: _grow_3412((0, 0, 0), w) is not None,
        lambda n: _involution_tree(n, _noncrossing_partners),
    ),
    PermClass.S321_B3142: _tree_rule(
        False,
        lambda w: _grow_4321((len(w) + 1, 0, 0), w) is not None and _avoids_23_1(w),
        _avoider_tree, _avoider_tally,
    ),
}


@lru_cache(maxsize=64)
def _family_tally(cls: PermClass, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # The rule's tally of family cls at size n as ((fp, exc, crs, nes),
    # count) pairs, shared by every StatSpec.  A tuple, so no caller can
    # change what the next one reads.  64 entries, as for
    # qmotzkin._slot_for_shape, hold the oracle's distributions suite (32 at
    # its full bounds).  Callers validate cls and n and apply the guard first.
    return tuple(_CLASS_RULES[cls].tally(n).items())


def _class_rule(cls: PermClass) -> _ClassRule:
    if not isinstance(cls, PermClass):
        raise ValueError(f"unknown class {cls!r}")
    return _CLASS_RULES[cls]


def enumerate_class(n: int, cls: PermClass) -> Iterator[tuple[int, ...]]:
    """Yield the family's members of size n in lexicographic order.

    ``ALL`` runs ``itertools.permutations``.  The other families walk the
    moves of their generating trees, which have no dead subtrees, placing
    each child's letter left to right.  ``I4321`` pairs the next free
    position only past the end of every open 2-cycle (no two nest), and
    ``I3412`` only before the first one ends (no two cross).  Filtering
    every involution or permutation through ``in_class``, which runs the
    pattern scans, is the test reference.  ``distribution`` steps the same
    moves over the trees' states, and counting over these words is its
    test reference.

    >>> list(enumerate_class(3, PermClass.S321_B3142))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)]
    """
    _check_size(n)
    return _class_rule(cls).members(n)


def in_class(word: Sequence[int], cls: PermClass) -> bool:
    """Membership test matching ``enumerate_class``, by the word tests.

    The involution test and the class rule's word test are facts of a
    cached word: a second call on it reruns neither, and a call for
    another involution family reuses the involution test.
    """
    return _in_class(check_permutation(word), cls)


def _in_class(w: tuple[int, ...], cls: PermClass) -> bool:
    # in_class on a word already known to be a permutation.
    rule = _class_rule(cls)
    if rule.involutive and not _fact(w, _is_involution):
        return False
    return rule.avoids is None or _fact(w, rule.avoids)


DEFAULT_ENUM_LIMIT = 12
ENUM_LIMIT_ENV = "CROSSNEST_ENUM_LIMIT"


class SizeLimitError(ValueError):
    """Raised when an enumeration would exceed the size guard."""


class StatSpec(enum.Enum):
    """Statistic (or joint statistic) to distribute over a family."""

    CRS = "crs"
    NES = "nes"
    CRS_PLUS_NES = "crs+nes"
    JOINT_FP_EXC_CRS_NES = "fp-exc-crs-nes"
    JOINT_EXC_CRS = "exc-crs"

    @classmethod
    def from_name(cls, name: str) -> "StatSpec":
        return _member_named(cls, name, "statistic")

    @property
    def variables(self) -> tuple[str, ...]:
        return _STAT_RULES[self][0]

    def exponents(self, fp: int, exc: int, crs: int, nes: int) -> tuple[int, ...]:
        return _STAT_RULES[self][1](fp, exc, crs, nes)


# Each statistic: (variables, its exponents from fp, exc, crs, nes).
_STAT_RULES = {
    StatSpec.CRS: (("q",), lambda fp, exc, crs, nes: (crs,)),
    StatSpec.NES: (("q",), lambda fp, exc, crs, nes: (nes,)),
    StatSpec.CRS_PLUS_NES: (("q",), lambda fp, exc, crs, nes: (crs + nes,)),
    StatSpec.JOINT_FP_EXC_CRS_NES: (
        ("x", "y", "p", "q"), lambda fp, exc, crs, nes: (fp, exc, crs, nes)
    ),
    StatSpec.JOINT_EXC_CRS: (("y", "q"), lambda fp, exc, crs, nes: (exc, crs)),
}


def _enum_limit() -> int:
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENUM_LIMIT_ENV} must be an integer, got {raw!r}"
        ) from None
    _check_size(limit, ENUM_LIMIT_ENV)
    return limit


def distribution(
    cls: PermClass, n: int, spec: StatSpec, *, allow_large: bool = False
) -> MultiPoly:
    """Monomial sum of a statistic over one family of size n.

    Every family but ``ALL`` is counted by one forward pass over its
    generating tree's states, never member by member: each state carries
    the number of nodes per (fp, exc, crs, nes), and equal states merge.
    The counts are packed along the last statistic the pass carries, one
    slot per value, sized for the size of the tree's base family (the
    involutions, or n!); no count of nodes at one level exceeds the leaves
    below them, so no slot carries (``_state_pass``).  ``ALL`` runs the
    bitmask statistics kernel ``_fp_exc_crs_nes_inv`` on every word.  The
    tests take the kernel, or the pair loop over every pair of positions
    that defines the statistics, over every member of ``enumerate_class``
    as the reference.  The spec's exponents are taken once per distinct
    statistics tuple.

    The tally does not depend on ``spec``, so one tally per family and size
    serves every statistic: it is cached (the last 64 families and sizes),
    immutable, and read only once ``spec``, ``cls``, ``n`` and the guard
    have passed, so a size cached under ``allow_large=True`` is still
    refused without it.

    >>> str(distribution(PermClass.I4321, 3, StatSpec.CRS_PLUS_NES))
    '3 + q'
    """
    if not isinstance(spec, StatSpec):
        raise ValueError(f"unknown statistic {spec!r}")
    _class_rule(cls)
    _check_size(n)
    limit = _enum_limit()
    if n > limit and not allow_large:
        raise SizeLimitError(
            f"n={n} exceeds the enumeration guard ({limit}); raise "
            f"{ENUM_LIMIT_ENV} or pass allow_large=True"
        )
    keys: Counter = Counter()
    for stats, count in _family_tally(cls, n):
        keys[spec.exponents(*stats)] += count
    return MultiPoly.from_terms(spec.variables, keys)


def head_tail_pairs(word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Head/tail pairs of the canonical reduced decomposition, by ascending head.

    They are the inversion table: with L_v the number of letters below v
    standing left of v, v gives the pair (v - 1, 1 + L_v) when 1 + L_v < v.
    ``permutation_from_head_tail`` puts each v at index L_v, so this inverts it.
    The word is validated here; ``_head_tail_pairs`` is the trusted kernel,
    for words that are permutations by construction.

    >>> head_tail_pairs((3, 2, 1))
    ((1, 1), (2, 1))
    >>> head_tail_pairs((1, 2, 3))
    ()
    """
    return _head_tail_pairs(check_permutation(word))


def _head_tail_pairs(w: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``head_tail_pairs`` of a word known to be a permutation.

    One pass over the word, with the earlier letters as a bitmask: of the
    i - 1 letters before position i, a popcount counts those above its
    letter s, and the rest are the L_s below it.  ``tails[s - 1]`` is
    1 + L_s, and head s - 1 gets a pair when that is at most s - 1.
    """
    tails = [0] * len(w)
    placed = 0  # bit v for each letter v so far
    for i, s in enumerate(w, 1):
        tails[s - 1] = i - (placed >> s).bit_count()
        placed |= 1 << s
    return tuple([(h, t) for h, t in enumerate(tails) if t <= h])


def _check_head_tail(
    pairs: Sequence[tuple[int, int]], n: int
) -> tuple[tuple[int, int], ...]:
    """The pairs as a tuple, read once, when they have the head/tail shape
    for size n; raise ValueError otherwise.

    Each pair is read once too: tuple pairs are checked and handed on as
    they are, and when some pair is not a tuple (a list, an iterator),
    every such pair is read into a new tuple by ``_read_pair`` and the
    tuples are checked instead, so the rebuild unpacks what was checked.
    """
    _check_size(n)
    try:
        pairs = tuple(pairs)
    except TypeError:
        raise ValueError(f"not a sequence of (head, tail) pairs: {pairs!r}") from None
    prev_head = 0
    for pair in pairs:
        if type(pair) is not tuple:
            return _check_head_tail(tuple(map(_read_pair, pairs)), n)
        try:
            h, t = pair
        except ValueError:
            raise ValueError(f"{pair!r} is not a (head, tail) pair") from None
        if type(h) is not int or type(t) is not int or not 1 <= t <= h <= n - 1:
            raise ValueError(f"pair ({h}, {t}) needs 1 <= tail <= head <= {n - 1}")
        if h <= prev_head:
            raise ValueError("heads must be strictly increasing")
        prev_head = h
    return pairs


def _read_pair(pair: object) -> tuple:
    """``pair`` if it is a tuple, else its items read once into a new one,
    no deeper than it takes to refuse it; raise ValueError unless that
    gives two items."""
    if type(pair) is tuple:
        return pair
    try:
        items = tuple(itertools.islice(pair, 3))
    except TypeError:
        items = ()
    if len(items) != 2:
        raise ValueError(f"{pair!r} is not a (head, tail) pair")
    return items


def permutation_from_head_tail(
    pairs: Sequence[tuple[int, int]], n: int
) -> tuple[int, ...]:
    """Rebuild the permutation with the given head/tail pairs.

    Each pair (h, t) stands for the block s_h s_{h-1} ... s_t of adjacent
    transpositions, applied to the identity in ascending head order.  The
    pairs are validated here; ``_permutation_from_head_tail`` is the trusted
    kernel, for pairs that ``_head_tail_pairs`` made.

    >>> permutation_from_head_tail(((1, 1), (2, 1)), 3)
    (3, 2, 1)
    >>> permutation_from_head_tail((), 4)
    (1, 2, 3, 4)
    """
    return _permutation_from_head_tail(_check_head_tail(pairs, n), n)


def _permutation_from_head_tail(
    pairs: Sequence[tuple[int, int]], n: int
) -> tuple[int, ...]:
    """``permutation_from_head_tail`` of pairs known to have the head/tail shape.

    The block (h, t) moves the letter h + 1, still at position h + 1, left
    to position t, and later, larger letters never change how many smaller
    letters stand left of it.  So each v = 1..n is inserted into the word so
    far at index t - 1 when v - 1 heads a pair (v - 1, t), and at the end
    otherwise.
    """
    at = list(range(n))  # at[v - 1]: where letter v is inserted
    for h, t in pairs:
        at[h] = t - 1
    w: list[int] = []
    for v, i in enumerate(at, 1):
        w.insert(i, v)
    return tuple(w)
