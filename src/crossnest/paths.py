"""Motzkin paths: words over u/h/d staying weakly above the axis.

A path of length n is a lowercase word of n letters, 'u' for an up step,
'h' for a horizontal step, 'd' for a down step, whose running height never
dips below zero and ends at zero.  Steps are numbered 1..n and the height
of a step is the y-coordinate where it starts, so the first step of
"uhd" has height 0, the second and third have height 1.

Step-height statistics sum those starting heights over each step kind
(sh_u, sh_h, sh_d), and ``area`` is the exact lattice area between the
path and the axis.  For every path

    area = 2 * sh_d + sh_h - down = 2 * sh_u + sh_h + up

The sequential matching pairs the k-th up step p with the k-th down step
r.  The strip decomposition is the same pairs read as head/tail pairs
(r - 1, p + height(p)), and ``path_from_head_tail`` inverts it directly.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from .permutations import _CACHED_FROM, _check_head_tail, _passed, _remember
from .polynomials import _check_size

_STEPS = frozenset("uhd")


def parse_path(text: str) -> str:
    """Normalize and validate a path word; whitespace is ignored.

    >>> parse_path("UH D")
    'uhd'
    >>> parse_path("udd")
    Traceback (most recent call last):
        ...
    ValueError: height drops below zero at index 3
    """
    word = "".join(text.split()).lower()
    return check_path(word)


def check_path(word: str) -> str:
    """Validate a path word, reporting the first offending index (1-based).

    An exact ``str`` of 16 or more steps that passed is remembered, by a
    strong reference in the cache that ``permutations.check_permutation``
    also fills, and is not walked again until eight more words or paths
    have passed.  The cache matches the very object, never an equal one,
    as it must for the tuples it shares; a str cannot change, so it stays
    valid.  Any other sequence of steps, a str subclass included, is
    walked at every call and never stored.
    """
    cached = type(word) is str and len(word) >= _CACHED_FROM
    if cached and _passed(word):
        return word
    _walk_path(word)
    if cached:
        _remember(word)
    return word


def _walk_path(word: str) -> None:
    # check_path's walk: raise ValueError at the first offending step.
    height = 0
    for i, ch in enumerate(word, start=1):
        if ch not in _STEPS:
            raise ValueError(f"illegal character {ch!r} at index {i}")
        if ch == "u":
            height += 1
        elif ch == "d":
            height -= 1
            if height < 0:
                raise ValueError(f"height drops below zero at index {i}")
    if height != 0:
        raise ValueError(
            f"path ends at height {height}, not 0 (length {len(word)})"
        )


def _start_heights(word: str) -> list[int]:
    heights = []
    h = 0
    for ch in word:
        heights.append(h)
        if ch == "u":
            h += 1
        elif ch == "d":
            h -= 1
    return heights


def step_height(word: str, i: int) -> int:
    """Starting height of step i (1-based).

    >>> step_height("uhd", 2)
    1
    """
    w = check_path(word)
    if type(i) is not int or not 1 <= i <= len(w):
        raise ValueError(f"step index {i} out of range 1..{len(w)}")
    return _start_heights(w)[i - 1]


class PathStatRecord(NamedTuple):
    """Statistics of one path."""

    hor: int
    up: int
    down: int
    sh_u: int
    sh_h: int
    sh_d: int
    area: int


def path_statistics(word: str) -> PathStatRecord:
    """Step counts, step-height sums, and exact area.

    >>> path_statistics("uhd")
    PathStatRecord(hor=1, up=1, down=1, sh_u=0, sh_h=1, sh_d=1, area=2)
    """
    w = check_path(word)
    hor = up = down = sh_u = sh_h = sh_d = 0
    height = 0
    doubled_area = 0
    for ch in w:
        if ch == "u":
            up += 1
            sh_u += height
            doubled_area += 2 * height + 1
            height += 1
        elif ch == "h":
            hor += 1
            sh_h += height
            doubled_area += 2 * height
        else:
            down += 1
            sh_d += height
            doubled_area += 2 * height - 1
            height -= 1
    assert doubled_area % 2 == 0
    return PathStatRecord(
        hor=hor,
        up=up,
        down=down,
        sh_u=sh_u,
        sh_h=sh_h,
        sh_d=sh_d,
        area=doubled_area // 2,
    )


def enumerate_paths(n: int) -> Iterator[str]:
    """All paths of length n, lexicographic with u < h < d.

    >>> list(enumerate_paths(3))
    ['uhd', 'udh', 'hud', 'hhh']
    """
    _check_size(n)
    return _paths(n)


def _steps(height: int, remaining: int) -> list[str]:
    # Steps from a height below `remaining`, last-tried first (d, h, u).
    steps = ["d", "h"] if height else ["h"]
    if height + 2 <= remaining:
        steps.append("u")
    return steps


def _paths(n: int) -> Iterator[str]:
    # Depth-first with an explicit stack of (height, untried steps) frames,
    # frame i choosing step i of `word`.  Steps past the deepest frame are
    # kept as "d", so once the height equals the steps left, `word` is
    # already the path's only completion.
    if n == 0:
        yield ""
        return
    word = ["d"] * n
    stack = [(0, _steps(0, n))]
    while stack:
        height, untried = stack[-1]
        i = len(stack) - 1
        if not untried:
            stack.pop()
            word[i] = "d"
            continue
        ch = word[i] = untried.pop()
        h = height + 1 if ch == "u" else height - 1 if ch == "d" else height
        if h == n - i - 1:
            yield "".join(word)
        else:
            stack.append((h, _steps(h, n - i - 1)))


def sequential_matching(word: str) -> tuple[tuple[int, int], ...]:
    """Match the k-th up step with the k-th down step.

    >>> sequential_matching("uudd")
    ((1, 3), (2, 4))
    """
    w = check_path(word)
    ups = [i for i, ch in enumerate(w, start=1) if ch == "u"]
    downs = [i for i, ch in enumerate(w, start=1) if ch == "d"]
    return tuple(zip(ups, downs))


def tunnel_matching(word: str) -> tuple[tuple[int, int], ...]:
    """Match each up step with the down step closing its tunnel.

    This is the balanced-parenthesis matching: a down step pairs with the
    most recent unmatched up step.

    >>> tunnel_matching("uudd")
    ((1, 4), (2, 3))
    """
    w = check_path(word)
    stack: list[int] = []
    pairs = []
    for i, ch in enumerate(w, start=1):
        if ch == "u":
            stack.append(i)
        elif ch == "d":
            pairs.append((stack.pop(), i))
    pairs.sort()
    return tuple(pairs)


def strip_decomposition(word: str) -> tuple[tuple[int, int], ...]:
    """Head/tail pairs of the path's strips, sorted by ascending head.

    Peeling a strip flattens the last remaining up step and the last
    remaining down step, so the rounds peel the sequential-matching pairs
    (p, r) from the last to the first, and each strip is
    (r - 1, p + height(p)).  Flattening a later pair (p_j > p_k) never
    changes the height at p_k, and when the round of (p_k, r_k) comes, r_k
    starts at height exactly 1: the k + 1 remaining up steps all come
    before r_k, and only k remaining down steps do.

    >>> strip_decomposition("ud")
    ((1, 1),)
    >>> strip_decomposition("hh")
    ()
    """
    matching = sequential_matching(word)  # validates the word
    heights = _start_heights(word)
    return tuple((r - 1, p + heights[p - 1]) for p, r in matching)


def path_from_head_tail(
    pairs: Sequence[tuple[int, int]], n: int
) -> str:
    """Rebuild the path carrying the given head/tail pairs.

    Inverts ``strip_decomposition``: the k-th pair (h, t), k counted from
    0, puts a down step at h + 1 and its up step p at the (t - k)-th
    position that is not a down step, because p + height(p) = t and
    height(p) = k - (down steps before p).  The shape rules give
    2k + 1 <= t <= n - 1 - 2(m - 1 - k) for m pairs, so that position
    exists and the up steps are distinct.  The result is always a Motzkin
    path: the heads before h are exactly the k earlier pairs, so t <= h
    leaves at least t - k positions before h + 1 that are not down steps,
    and the k-th up step comes before the k-th down step.  The pairs are
    validated here; ``_path_from_head_tail`` is the trusted kernel, for
    pairs made by construction.

    >>> path_from_head_tail(((1, 1),), 2)
    'ud'
    >>> path_from_head_tail((), 3)
    'hhh'
    """
    _check_head_tail(pairs, n)
    for (_, prev_tail), (_, t) in itertools.pairwise(pairs):
        if t < prev_tail + 2:
            raise ValueError(
                f"tail {t} must exceed the previous tail {prev_tail} by at least 2"
            )
    return _path_from_head_tail(pairs, n)


def _path_from_head_tail(pairs: Sequence[tuple[int, int]], n: int) -> str:
    """``path_from_head_tail`` of pairs known to pass its checks."""
    w = ["h"] * n
    for h, _ in pairs:
        w[h] = "d"
    free = [i for i, ch in enumerate(w) if ch == "h"]
    for k, (_, t) in enumerate(pairs):
        w[free[t - k - 1]] = "u"
    return "".join(w)
