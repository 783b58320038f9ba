"""The benchmark's own combinatorics: input sampling and independent checks.

Nothing here imports crossnest.  The counting table, the statistics and the
pattern tests are written from the definitions, so that an output check
never compares crossnest with itself.
"""

from __future__ import annotations

import bisect
import random


def motzkin_numbers(n_max: int) -> list[int]:
    """M_0 .. M_{n_max} from M_n = M_{n-1} + sum_k M_k M_{n-2-k}."""
    m = [1, 1]
    for n in range(2, n_max + 1):
        m.append(m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return m[: n_max + 1]


class MotzkinSampler:
    """Uniform Motzkin paths of length n from a completion-count table.

    ``ways[r][h]`` is the number of ways to finish at height 0 from height
    h with r steps left; each step is drawn with probability proportional
    to the completions it leaves, which makes every path equally likely.
    """

    def __init__(self, n_max: int):
        self.ways = [[1] + [0] * (n_max + 1)]
        for r in range(1, n_max + 1):
            prev = self.ways[-1]
            row = [0] * (n_max + 2)
            for h in range(0, min(r, n_max) + 1):
                row[h] = prev[h + 1] + prev[h] + (prev[h - 1] if h else 0)
            self.ways.append(row)

    def sample(self, n: int, rng: random.Random) -> str:
        steps = []
        h = 0
        for r in range(n, 0, -1):
            rest = self.ways[r - 1]
            pick = rng.randrange(self.ways[r][h])
            up = rest[h + 1]
            flat = rest[h]
            if pick < up:
                steps.append("u")
                h += 1
            elif pick < up + flat:
                steps.append("h")
            else:
                steps.append("d")
                h -= 1
        return "".join(steps)


def random_permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def path_stats(word: str) -> dict[str, int]:
    """hor, up, sh_u, sh_h and area of a Motzkin path, from its heights."""
    stats = {"hor": 0, "up": 0, "sh_u": 0, "sh_h": 0, "area": 0}
    h = 0
    for ch in word:
        after = h + (ch == "u") - (ch == "d")
        # Area of the trapezoid under the step, doubled, halved at the end.
        stats["area"] += h + after
        if ch == "u":
            stats["up"] += 1
            stats["sh_u"] += h
        elif ch == "h":
            stats["hor"] += 1
            stats["sh_h"] += h
        h = after
    stats["area"] //= 2
    return stats


def perm_stats(w: tuple[int, ...]) -> dict[str, int]:
    """fp, exc, crs, nes and inv straight from their definitions.

    Positions i < j with values a = w(i), b = w(j) form a crossing when
    j < a < b (two upper arcs interleave) or a < b <= i (two lower arcs
    interleave), and a nesting when j < b < a or b < a <= i.
    """
    n = len(w)
    fp = sum(1 for i in range(n) if w[i] == i + 1)
    exc = sum(1 for i in range(n) if w[i] > i + 1)
    crs = nes = inv = 0
    for i in range(1, n):
        a = w[i - 1]
        for j in range(i + 1, n + 1):
            b = w[j - 1]
            if a > b:
                inv += 1
                if j < b or a <= i:
                    nes += 1
            elif j < a or b <= i:
                crs += 1
    return {"fp": fp, "exc": exc, "crs": crs, "nes": nes, "inv": inv}


def longest_decreasing(w: tuple[int, ...]) -> int:
    """Length of the longest decreasing subsequence, by patience sorting."""
    tails: list[int] = []
    for v in w:
        k = bisect.bisect_left(tails, -v)
        if k == len(tails):
            tails.append(-v)
        else:
            tails[k] = -v
    return len(tails)


def has_3412(w: tuple[int, ...]) -> bool:
    """Some i<j<k<l with w_k < w_l < w_i < w_j, by bisection on sorted prefixes.

    For the "4" at j, the best "3" is the largest value left of j below
    w_j; for the "1" at k, the best "2" is the smallest value right of k
    above w_k.  An occurrence exists iff some k has a best "2" below the
    best "3" of some j < k.
    """
    n = len(w)
    best3, seen = [], []
    for v in w:
        p = bisect.bisect_left(seen, v)
        best3.append(seen[p - 1] if p else 0)
        bisect.insort(seen, v)
    best2, seen = [n + 1] * n, []
    for k in range(n - 1, -1, -1):
        p = bisect.bisect_right(seen, w[k])
        if p < len(seen):
            best2[k] = seen[p]
        bisect.insort(seen, w[k])
    top3 = 0
    for k in range(n):
        if best2[k] < top3:
            return True
        top3 = max(top3, best3[k])
    return False


def is_involution(w: tuple[int, ...]) -> bool:
    return all(w[v - 1] == i for i, v in enumerate(w, start=1))
