from functools import cache
from pathlib import Path
from typing import Callable

import pytest

from crossnest import qmotzkin
from crossnest.oracle import run_suite
from crossnest.polynomials import UNI_ONE, UniPoly, _unpack_slots
from crossnest.qmotzkin import (
    h_recursion_rhs,
    h_tableau,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
    stieltjes_tableau,
)

BFILE = Path(__file__).parent / "data" / "b001006.txt"


def bfile_values() -> dict[int, int]:
    values = {}
    for line in BFILE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, v = line.split()
        values[int(n)] = int(v)
    return values


def first_exponent(k: int, m: int) -> int:
    return k


def tilde_exponent(k: int, m: int) -> int:
    return 0 if k == m - 2 else k + 1


def product_recurrence(
    n: int, exponent: Callable[[int, int], int]
) -> list[UniPoly]:
    """Test-only reference: M_0..M_n by one UniPoly product per term k."""
    values = [UNI_ONE, UNI_ONE]
    for m in range(2, n + 1):
        total = values[m - 1]
        for k in range(m - 1):
            prod = values[k] * values[m - 2 - k]
            total = total + prod.times_q_power(exponent(k, m))
        values.append(total)
    return values[: n + 1]


# Sizes whose Motzkin number fills whole bytes: there the recurrence's slot
# width is one byte more than its largest coefficient could need.
SLOT_BOUNDARY_SIZES = (13, 24, 29, 40)


@pytest.fixture
def cold_caches(monkeypatch):
    monkeypatch.setattr(qmotzkin, "_q_motzkin_cache", [UNI_ONE, UNI_ONE])
    monkeypatch.setattr(qmotzkin, "_q_tilde_cache", [UNI_ONE, UNI_ONE])


class TestMotzkinNumbers:
    def test_first_values(self):
        assert [motzkin_number(n) for n in range(10)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323, 835,
        ]

    def test_against_local_bfile(self):
        values = bfile_values()
        for n, v in sorted(values.items()):
            assert motzkin_number(n) == v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            motzkin_number(-1)


class TestQMotzkin:
    def test_base_cases(self):
        assert q_motzkin(0) == UNI_ONE
        assert q_motzkin(1) == UNI_ONE
        assert q_motzkin_tilde(0) == UNI_ONE
        assert q_motzkin_tilde(1) == UNI_ONE

    def test_first_kind_small(self):
        assert q_motzkin(2) == UniPoly((2,))
        assert str(q_motzkin(3)) == "3 + q"
        assert str(q_motzkin(4)) == "5 + 2*q + 2*q^2"

    def test_second_kind_small(self):
        assert q_motzkin_tilde(2) == UniPoly((2,))
        assert str(q_motzkin_tilde(3)) == "3 + q"
        assert str(q_motzkin_tilde(4)) == "5 + 3*q + q^2"

    def test_both_collapse_to_motzkin_at_one(self):
        for n in range(25):
            m = motzkin_number(n)
            assert q_motzkin(n).evaluate(1) == m
            assert q_motzkin_tilde(n).evaluate(1) == m

    def test_nonnegative_coefficients(self):
        for n in range(20):
            assert all(c >= 0 for c in q_motzkin(n).coeffs)
            assert all(c >= 0 for c in q_motzkin_tilde(n).coeffs)

    def test_recurrences_unrolled_directly(self):
        # Independent unrolling of both product recurrences.
        for n in range(2, 15):
            first = q_motzkin(n - 1)
            second = q_motzkin_tilde(n - 1)
            for k in range(n - 1):
                first = first + (q_motzkin(k) * q_motzkin(n - 2 - k)).times_q_power(k)
                exp = 0 if k == n - 2 else k + 1
                second = second + (
                    q_motzkin_tilde(k) * q_motzkin_tilde(n - 2 - k)
                ).times_q_power(exp)
            assert q_motzkin(n) == first
            assert q_motzkin_tilde(n) == second


class TestPackedRecurrence:
    REFERENCE = {
        "_q_motzkin_cache": product_recurrence(40, first_exponent),
        "_q_tilde_cache": product_recurrence(40, tilde_exponent),
    }
    KINDS = (("_q_motzkin_cache", q_motzkin), ("_q_tilde_cache", q_motzkin_tilde))

    def test_one_step_at_a_time_matches_reference(self, cold_caches):
        for name, kind in self.KINDS:
            for n in range(41):
                assert kind(n) == self.REFERENCE[name][n], (name, n)

    def test_one_extension_matches_reference(self, cold_caches):
        for name, kind in self.KINDS:
            assert kind(40) == self.REFERENCE[name][40]
            assert getattr(qmotzkin, name) == self.REFERENCE[name]

    @pytest.mark.parametrize("n", SLOT_BOUNDARY_SIZES)
    def test_slot_boundary_sizes(self, cold_caches, n):
        assert motzkin_number(n).bit_length() % 8 == 0
        for name, kind in self.KINDS:
            assert kind(n) == self.REFERENCE[name][n]
            assert getattr(qmotzkin, name) == self.REFERENCE[name][: n + 1]

    def test_stepwise_extension_matches_one_fresh_call(self, monkeypatch):
        # Each extension picks its own slot width.
        for name, kind in self.KINDS:
            monkeypatch.setattr(qmotzkin, name, [UNI_ONE, UNI_ONE])
            fresh = kind(30)
            fresh_cache = getattr(qmotzkin, name)
            monkeypatch.setattr(qmotzkin, name, [UNI_ONE, UNI_ONE])
            kind(3)
            kind(13)
            assert kind(30) == fresh
            assert getattr(qmotzkin, name) == fresh_cache

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_motzkin(-1)
        with pytest.raises(ValueError):
            q_motzkin_tilde(-1)


@cache
def reference_h_tableau(n: int) -> list[list[UniPoly]]:
    """Test-only reference: the generic tableau with levels q^(i-1), one
    UniPoly product per level and entry."""

    def level(i: int) -> UniPoly:
        return UniPoly.q_power(i - 1)

    return stieltjes_tableau(level, level, n)


# All fifteen tableau entries for n <= 4 in canonical rendering.
TABLE_RENDERED = [
    ["1"],
    ["1", "1"],
    ["2", "1 + q", "q"],
    ["3 + q", "2 + 2*q + q^2", "q + q^2 + q^3", "q^3"],
    [
        "5 + 3*q + q^2",
        "3 + 4*q + 3*q^2 + 2*q^3",
        "2*q + 2*q^2 + 3*q^3 + q^4 + q^5",
        "q^3 + q^4 + q^5 + q^6",
        "q^6",
    ],
]


class TestTableau:
    def test_shape(self):
        table = h_tableau(6)
        assert len(table) == 7
        for n, row in enumerate(table):
            assert len(row) == n + 1

    def test_small_table_rendering(self):
        table = h_tableau(4)
        rendered = [[str(entry) for entry in row] for row in table]
        assert rendered == TABLE_RENDERED

    def test_first_column_is_second_kind(self):
        table = h_tableau(15)
        for n in range(16):
            assert table[n][0] == q_motzkin_tilde(n)

    def test_column_recursion_from_row_pair(self):
        table = h_tableau(15)
        for n in range(2, 16):
            assert table[n][0] == table[n - 1][0] + table[n - 1][1]
        assert table[1][0] == table[0][0]

    def test_returned_table_is_a_copy(self):
        table = h_tableau(4)
        table[4][0] = UniPoly((99,))
        table[3].append(UNI_ONE)
        table.append([UNI_ONE])
        rendered = [[str(entry) for entry in row] for row in h_tableau(4)]
        assert rendered == TABLE_RENDERED
        assert len(h_tableau(5)[5]) == 6

    def test_cache_extension_matches_a_fresh_tableau(self, monkeypatch):
        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        assert h_tableau(3) == reference_h_tableau(50)[:4]
        assert h_tableau(12) == reference_h_tableau(50)[:13]
        assert len(qmotzkin._h_rows) == 13

    def test_fresh_tableau_matches_reference_at_every_size(self, monkeypatch):
        for n in range(31):
            monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
            assert h_tableau(n) == reference_h_tableau(50)[: n + 1], n

    def test_extension_across_slot_widths_matches_reference(self, monkeypatch):
        # Row 40 fits 8-byte slots, one cast; rows 41..50 need 16-byte ones,
        # read as 64-bit limbs, and row 40 is packed again at that width.
        widths = []

        def recording(packed, slot, count):
            widths.append(slot)
            return _unpack_slots(packed, slot, count)

        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        monkeypatch.setattr(qmotzkin, "_unpack_slots", recording)
        h_tableau(40)
        assert set(widths) == {8}
        widths.clear()
        assert h_tableau(50) == reference_h_tableau(50)
        assert set(widths) == {16}

    def test_entries_have_their_up_steps_as_low_zeros(self):
        # Entry (n, i) has exactly i(i-1)/2 leading zero coefficients, which
        # h_tableau divides out; checked on the reference, not on h_tableau.
        table = reference_h_tableau(50)
        for n in range(1, 31):
            for i in range(1, n + 1):
                coeffs = table[n][i].coeffs
                low = next(k for k, c in enumerate(coeffs) if c)
                assert low == i * (i - 1) // 2, (n, i)

    def test_suite_builds_each_row_once(self, monkeypatch):
        built = []
        real = qmotzkin._h_packed_rows

        def counting(*args, **kwargs):
            for row in real(*args, **kwargs):
                built.append(len(row) - 1)
                yield row

        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        monkeypatch.setattr(qmotzkin, "_h_packed_rows", counting)
        assert run_suite("qpoly", 99).passed
        assert built == list(range(1, 31))

    def test_all_ones_levels_give_motzkin_column(self):
        table = stieltjes_tableau(lambda i: 1, lambda i: 1, 12)
        for n in range(13):
            assert table[n][0] == UniPoly((motzkin_number(n),))

    def test_level_sequences_not_consulted_at_zero(self):
        def poisoned(i):
            assert i >= 1, "level sequences are 1-based"
            return UNI_ONE

        stieltjes_tableau(poisoned, poisoned, 6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stieltjes_tableau(lambda i: 1, lambda i: 1, -1)
        with pytest.raises(ValueError):
            h_tableau(-1)


class TestRecursionRhs:
    def test_small_entry(self):
        table = h_tableau(6)
        assert h_recursion_rhs(2, 1, table) == UniPoly((1, 1))

    def test_matches_tableau_everywhere(self):
        table = h_tableau(12)
        for n in range(1, 13):
            for i in range(1, n + 1):
                assert h_recursion_rhs(n, i, table) == table[n][i], (n, i)

    def test_bounds_checked(self):
        table = h_tableau(4)
        with pytest.raises(ValueError):
            h_recursion_rhs(3, 0, table)
        with pytest.raises(ValueError):
            h_recursion_rhs(3, 4, table)
        with pytest.raises(ValueError):
            h_recursion_rhs(5, 1, table)
