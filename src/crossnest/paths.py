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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    """Validate a path word, reporting the first offending index (1-based)."""
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
    return word


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
    if not 1 <= i <= len(w):
        raise ValueError(f"step index {i} out of range 1..{len(w)}")
    return _start_heights(w)[i - 1]


@dataclass(frozen=True)
class PathStatRecord:
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    buf: list[str] = []

    def rec(height: int, remaining: int) -> Iterator[str]:
        if remaining == 0:
            yield "".join(buf)
            return
        if height + 1 <= remaining - 1:
            buf.append("u")
            yield from rec(height + 1, remaining - 1)
            buf.pop()
        if height <= remaining - 1:
            buf.append("h")
            yield from rec(height, remaining - 1)
            buf.pop()
        if height >= 1:
            buf.append("d")
            yield from rec(height - 1, remaining - 1)
            buf.pop()

    return rec(0, n)


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
    """Peel maximal strips off the path, producing head/tail pairs.

    Each round locates the last up step (index p, height y_p) and the last
    down step (index r, height y_r), records the pair
    (r + y_r - 2, p + y_p), and flattens both steps to horizontal; the
    rounds repeat until the path is a row of horizontal steps.  Pairs are
    returned sorted by ascending head.

    >>> strip_decomposition("ud")
    ((1, 1),)
    >>> strip_decomposition("hh")
    ()
    """
    w = list(check_path(word))
    pairs = []
    while True:
        p = r = -1
        for i, ch in enumerate(w):
            if ch == "u":
                p = i
            elif ch == "d":
                r = i
        if p < 0:
            break
        heights = _start_heights("".join(w))
        pairs.append((r + 1 + heights[r] - 2, p + 1 + heights[p]))
        w[p] = "h"
        w[r] = "h"
    return tuple(reversed(pairs))


def path_from_head_tail(
    pairs: Sequence[tuple[int, int]], n: int
) -> str:
    """Rebuild the path carrying the given head/tail pairs.

    Inverts ``strip_decomposition``: starting from n horizontal steps,
    insert strips in ascending head order.  For a pair (h, t), the up step
    goes at the unique horizontal step p with p + height(p) = t, and the
    down step at the later horizontal step r at height 0 whose head
    equation (using its post-insertion height of 1) pins r = h + 1.
    Steps between them ride one level up.

    >>> path_from_head_tail(((1, 1),), 2)
    'ud'
    >>> path_from_head_tail((), 3)
    'hhh'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev_head = 0
    prev_tail = -1
    for h, t in pairs:
        if not 1 <= t <= h <= n - 1:
            raise ValueError(f"pair ({h}, {t}) needs 1 <= tail <= head <= {n - 1}")
        if h <= prev_head:
            raise ValueError("heads must be strictly increasing")
        if prev_tail >= 0 and t < prev_tail + 2:
            raise ValueError(
                f"tail {t} must exceed the previous tail {prev_tail} by at least 2"
            )
        prev_head, prev_tail = h, t
    w = ["h"] * n
    for h, t in pairs:
        heights = _start_heights("".join(w))
        p_candidates = [
            i + 1
            for i, ch in enumerate(w)
            if ch == "h" and (i + 1) + heights[i] == t
        ]
        if len(p_candidates) != 1:
            state = "no" if not p_candidates else "multiple"
            raise ValueError(f"{state} up-step positions for pair ({h}, {t})")
        p = p_candidates[0]
        # After raising, the down step starts at height 1, so its head
        # equation r + 1 - 2 = h fixes r; it must be horizontal at height
        # zero and come after the up step.
        r_candidates = [
            i + 1
            for i, ch in enumerate(w)
            if ch == "h"
            and heights[i] == 0
            and i + 1 > p
            and (i + 1) + (heights[i] + 1) - 2 == h
        ]
        if len(r_candidates) != 1:
            state = "no" if not r_candidates else "multiple"
            raise ValueError(f"{state} down-step positions for pair ({h}, {t})")
        r = r_candidates[0]
        w[p - 1] = "u"
        w[r - 1] = "d"
    word = "".join(w)
    return check_path(word)
