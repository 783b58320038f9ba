import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from crossnest.paths import (
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
from crossnest.qmotzkin import motzkin_number

SHOWCASE_PATH = "uuhuudddudduuhdd"


def shoelace_area(word: str) -> int:
    # Independent area computation: close the path along the axis and
    # apply the shoelace formula to the polygon.
    points = [(0, 0)]
    x, y = 0, 0
    for ch in word:
        x += 1
        y += {"u": 1, "h": 0, "d": -1}[ch]
        points.append((x, y))
    points.append((0, 0))
    doubled = 0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        doubled += x0 * y1 - x1 * y0
    assert doubled % 2 == 0
    return abs(doubled) // 2


def paths_up_to(n_max: int):
    for n in range(n_max + 1):
        yield from enumerate_paths(n)


RISE = {"u": 1, "h": 0, "d": -1}


def random_path(rng: random.Random, n: int) -> str:
    # Each step is drawn among those that can still return to the axis.
    steps = []
    height = 0
    for remaining in range(n, 0, -1):
        ch = rng.choice([c for c in "uhd" if 0 <= height + RISE[c] < remaining])
        steps.append(ch)
        height += RISE[ch]
    return "".join(steps)


def heights_of(word: str) -> list[int]:
    heights, h = [], 0
    for ch in word:
        heights.append(h)
        h += RISE[ch]
    return heights


def peeling_strip_decomposition(word: str) -> tuple[tuple[int, int], ...]:
    # Reference: peel strips one round at a time.  Each round takes the
    # last up step p and the last down step r, records
    # (r + y_r - 2, p + y_p) from the current heights, and flattens both.
    w = list(check_path(word))
    pairs = []
    while "u" in w:
        p = max(i for i, ch in enumerate(w) if ch == "u")
        r = max(i for i, ch in enumerate(w) if ch == "d")
        heights = heights_of("".join(w))
        pairs.append((r + 1 + heights[r] - 2, p + 1 + heights[p]))
        w[p] = w[r] = "h"
    return tuple(reversed(pairs))


def searching_path_from_head_tail(pairs, n: int) -> str:
    # Reference: insert strips in ascending head order, searching every
    # horizontal step for the up step p with p + height(p) = t and for the
    # down step r at height 0 after p whose head equation gives h.
    w = ["h"] * n
    for h, t in pairs:
        heights = heights_of("".join(w))
        ups = [i + 1 for i, ch in enumerate(w)
               if ch == "h" and i + 1 + heights[i] == t]
        assert len(ups) == 1, ("up-step positions", pairs, ups)
        p = ups[0]
        downs = [i + 1 for i, ch in enumerate(w)
                 if ch == "h" and heights[i] == 0 and i + 1 > p
                 and i + 1 + heights[i] + 1 - 2 == h]
        assert len(downs) == 1, ("down-step positions", pairs, downs)
        w[p - 1] = "u"
        w[downs[0] - 1] = "d"
    return check_path("".join(w))


def shape_ok(pairs, n: int) -> bool:
    prev_h, prev_t = 0, -1
    for h, t in pairs:
        if not (1 <= t <= h <= n - 1) or h <= prev_h:
            return False
        if prev_t >= 0 and t < prev_t + 2:
            return False
        prev_h, prev_t = h, t
    return True


def shape_valid_pair_sets(n: int):
    cells = [(h, t) for h in range(1, n) for t in range(1, h + 1)]
    for k in range(n // 2 + 1):
        for combo in itertools.combinations(cells, k):
            if shape_ok(combo, n):
                yield combo


class TestParsing:
    def test_normalization(self):
        assert parse_path("UH D") == "uhd"
        assert parse_path("") == ""
        assert parse_path(SHOWCASE_PATH) == SHOWCASE_PATH

    def test_below_axis_reports_index(self):
        with pytest.raises(ValueError, match="index 3"):
            parse_path("ud d")

    def test_illegal_character_reports_index(self):
        with pytest.raises(ValueError, match=r"'x' at index 2"):
            parse_path("uxd")

    def test_unbalanced_end(self):
        with pytest.raises(ValueError, match="ends at height 2"):
            parse_path("uu")

    @settings(max_examples=100)
    @given(st.text())
    def test_any_text_returns_or_raises_value_error(self, text):
        try:
            word = parse_path(text)
        except ValueError:
            return
        assert check_path(word) == word

    def test_check_path_passthrough(self):
        assert check_path("uhd") == "uhd"
        with pytest.raises(ValueError):
            check_path("UHD")


class TestHeights:
    def test_showcase_heights(self):
        assert step_height(SHOWCASE_PATH, 7) == 3
        assert step_height(SHOWCASE_PATH, 14) == 2

    def test_small(self):
        assert step_height("h", 1) == 0
        assert step_height("uhd", 1) == 0
        assert step_height("uhd", 2) == 1
        assert step_height("uhd", 3) == 1

    def test_bounds(self):
        # True and 1.0 equal 1, but neither is a step index.
        for i in (0, 4, True, False, 1.0, 2.0):
            message = re.escape(f"step index {i} out of range 1..3")
            with pytest.raises(ValueError, match=f"^{message}$"):
                step_height("uhd", i)

    def test_definition_from_prefix_counts(self):
        for p in paths_up_to(7):
            for i in range(1, len(p) + 1):
                prefix = p[:i]
                ups = prefix.count("u")
                downs = prefix.count("d")
                offset = {"u": -1, "h": 0, "d": 1}[p[i - 1]]
                assert step_height(p, i) == ups - downs + offset, (p, i)


class TestStatistics:
    def test_showcase_record(self):
        r = path_statistics(SHOWCASE_PATH)
        assert (r.hor, r.up, r.down) == (2, 7, 7)
        assert (r.sh_u, r.sh_h, r.sh_d) == (8, 4, 15)
        assert r.area == 27

    def test_small_records(self):
        r = path_statistics("uhd")
        assert (r.hor, r.up, r.down, r.sh_u, r.sh_h, r.sh_d, r.area) == (
            1, 1, 1, 0, 1, 1, 2,
        )
        r = path_statistics("hhh")
        assert (r.hor, r.up, r.down, r.sh_u, r.sh_h, r.sh_d, r.area) == (
            3, 0, 0, 0, 0, 0, 0,
        )
        r = path_statistics("")
        assert (r.hor, r.up, r.down, r.area) == (0, 0, 0, 0)

    def test_area_against_shoelace(self):
        for p in paths_up_to(8):
            assert path_statistics(p).area == shoelace_area(p), p

    def test_height_identities(self):
        for p in paths_up_to(9):
            r = path_statistics(p)
            assert r.area == 2 * r.sh_d + r.sh_h - r.down, p
            assert r.area == 2 * r.sh_u + r.sh_h + r.up, p
            assert r.sh_u == r.sh_d - r.down, p

    def test_step_counts_sum(self):
        for p in paths_up_to(7):
            r = path_statistics(p)
            assert r.hor + r.up + r.down == len(p)
            assert r.up == r.down


class TestEnumeration:
    def test_order_n3(self):
        assert list(enumerate_paths(3)) == ["uhd", "udh", "hud", "hhh"]

    def test_empty(self):
        assert list(enumerate_paths(0)) == [""]

    def test_counts_match_recurrence(self):
        for n in range(11):
            assert sum(1 for _ in enumerate_paths(n)) == motzkin_number(n), n

    def test_all_valid_and_distinct(self):
        for n in range(9):
            words = list(enumerate_paths(n))
            assert len(set(words)) == len(words)
            for w in words:
                assert check_path(w) == w

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_paths(-2))

    def test_long_paths_without_recursion(self):
        assert next(enumerate_paths(3000)) == "u" * 1500 + "d" * 1500


class TestMatchings:
    def test_sequential_examples(self):
        assert sequential_matching("uudd") == ((1, 3), (2, 4))
        assert sequential_matching("uhd") == ((1, 3),)
        assert sequential_matching("hhh") == ()
        assert sequential_matching(
            SHOWCASE_PATH
        ) == ((1, 6), (2, 7), (4, 8), (5, 10), (9, 11), (12, 15), (13, 16))

    def test_tunnel_examples(self):
        assert tunnel_matching("uudd") == ((1, 4), (2, 3))
        assert tunnel_matching("uhd") == ((1, 3),)
        assert tunnel_matching(
            SHOWCASE_PATH
        ) == ((1, 11), (2, 8), (4, 7), (5, 6), (9, 10), (12, 16), (13, 15))

    def test_matchings_are_perfect(self):
        for p in paths_up_to(8):
            ups = {i for i, ch in enumerate(p, start=1) if ch == "u"}
            downs = {i for i, ch in enumerate(p, start=1) if ch == "d"}
            for pairs in (sequential_matching(p), tunnel_matching(p)):
                assert {a for a, _ in pairs} == ups
                assert {b for _, b in pairs} == downs
                assert all(a < b for a, b in pairs)

    def test_tunnel_pairs_nest_or_disjoint(self):
        for p in paths_up_to(8):
            pairs = tunnel_matching(p)
            for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
                assert not (a1 < a2 < b1 < b2), (p, (a1, b1), (a2, b2))


class TestStripDecomposition:
    def test_showcase(self):
        assert strip_decomposition(SHOWCASE_PATH) == (
            (5, 1), (6, 3), (7, 6), (9, 8), (10, 10), (14, 12), (15, 14),
        )

    def test_small(self):
        assert strip_decomposition("ud") == ((1, 1),)
        assert strip_decomposition("hh") == ()
        assert strip_decomposition("") == ()
        assert strip_decomposition("hud") == ((2, 2),)

    def test_pair_shape_invariants(self):
        for p in paths_up_to(9):
            pairs = strip_decomposition(p)
            heads = [h for h, _ in pairs]
            tails = [t for _, t in pairs]
            n = len(p)
            assert heads == sorted(heads) and len(set(heads)) == len(heads)
            assert all(1 <= t <= h <= n - 1 for h, t in pairs)
            assert all(b >= a + 2 for a, b in zip(tails, tails[1:]))

    def test_matches_peeling_exhaustive(self):
        for p in paths_up_to(12):
            assert strip_decomposition(p) == peeling_strip_decomposition(p), p

    def test_matches_peeling_random_long(self):
        rng = random.Random(20200722)
        for _ in range(24):
            p = random_path(rng, rng.randint(100, 400))
            assert strip_decomposition(p) == peeling_strip_decomposition(p), p


class TestPathFromHeadTail:
    def test_inverse_examples(self):
        assert path_from_head_tail(((1, 1),), 2) == "ud"
        assert path_from_head_tail((), 3) == "hhh"
        assert path_from_head_tail((), 0) == ""
        pairs = ((5, 1), (6, 3), (7, 6), (9, 8), (10, 10), (14, 12), (15, 14))
        assert path_from_head_tail(pairs, 16) == SHOWCASE_PATH

    def test_roundtrip_exhaustive(self):
        for p in paths_up_to(9):
            assert path_from_head_tail(strip_decomposition(p), len(p)) == p

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="head"):
            path_from_head_tail(((1, 2),), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            path_from_head_tail(((2, 1), (2, 2)), 5)
        message = "^tail 2 must exceed the previous tail 1 by at least 2$"
        with pytest.raises(ValueError, match=message):
            path_from_head_tail(((1, 1), (2, 2)), 5)
        with pytest.raises(ValueError):
            path_from_head_tail(((4, 1),), 4)

    def test_preconditions_characterize_the_image(self):
        # Every pair set passing the three shape rules rebuilds to a path
        # whose decomposition is the same set, and the number of such sets
        # is the Motzkin number: the shape rules are exact, so no pair set
        # that passes them needs a further guard.
        for n in range(9):
            solved = 0
            for combo in shape_valid_pair_sets(n):
                rebuilt = path_from_head_tail(combo, n)
                assert strip_decomposition(rebuilt) == combo
                solved += 1
            assert solved == motzkin_number(n), n

    def test_matches_search_on_every_shape_valid_set(self):
        for n in range(9):
            for combo in shape_valid_pair_sets(n):
                assert path_from_head_tail(combo, n) == (
                    searching_path_from_head_tail(combo, n)
                ), (combo, n)

    def test_matches_search_random_long(self):
        rng = random.Random(20200723)
        for _ in range(24):
            p = random_path(rng, rng.randint(100, 400))
            pairs = peeling_strip_decomposition(p)
            assert searching_path_from_head_tail(pairs, len(p)) == p
            assert path_from_head_tail(pairs, len(p)) == p


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=30))
def test_path_count_property(n):
    # Counting by first return splits any path as h*rest or u*inner*d*rest.
    if n >= 2:
        assert motzkin_number(n) == motzkin_number(n - 1) + sum(
            motzkin_number(k) * motzkin_number(n - 2 - k) for k in range(n - 1)
        )
