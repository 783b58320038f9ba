from functools import cache, lru_cache
from itertools import islice
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st
from tableau_reference import tableau_rows

from crossnest import polynomials, qmotzkin
from crossnest.oracle import run_suite
from crossnest.polynomials import UNI_ONE, MultiPoly, UniPoly, _unpack_slots
from crossnest.qmotzkin import (
    _PackedTableau,
    h_recursion_rhs,
    h_tableau,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
    stieltjes_tableau,
)
from crossnest.series import named_series

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


# The slot width of the cut tableau that builds M_n and M~_n, in bytes, on
# both sides of each of its first four changes: n = 8, 13, 24 and 45.
SLOT_WIDTHS = {7: 1, 8: 2, 12: 2, 13: 4, 23: 4, 24: 8, 44: 8, 45: 16}
SLOT_BOUNDARY_SIZES = tuple(SLOT_WIDTHS)


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
    """Both families, column 0 of the cut rows of the packed tableau (the
    row recurrence of ``_PackedTableau`` on packed ints), against the
    test-only product recurrence."""

    REFERENCE = {
        "_q_motzkin_cache": product_recurrence(45, first_exponent),
        "_q_tilde_cache": product_recurrence(45, tilde_exponent),
    }
    KINDS = (("_q_motzkin_cache", q_motzkin), ("_q_tilde_cache", q_motzkin_tilde))

    def test_one_step_at_a_time_matches_reference(self, cold_caches):
        for name, kind in self.KINDS:
            for n in range(46):
                assert kind(n) == self.REFERENCE[name][n], (name, n)

    def test_one_extension_matches_reference(self, cold_caches):
        for name, kind in self.KINDS:
            assert kind(45) == self.REFERENCE[name][45]
            assert getattr(qmotzkin, name) == self.REFERENCE[name]

    @pytest.mark.parametrize("n", SLOT_BOUNDARY_SIZES)
    def test_slot_boundary_sizes(self, cold_caches, monkeypatch, n):
        widths = []

        def recording(packed, slot, count):
            widths.append(slot)
            return _unpack_slots(packed, slot, count)

        monkeypatch.setattr(polynomials, "_unpack_slots", recording)
        for name, kind in self.KINDS:
            widths.clear()
            assert kind(n) == self.REFERENCE[name][n]
            assert getattr(qmotzkin, name) == self.REFERENCE[name][: n + 1]
            assert set(widths) == {SLOT_WIDTHS[n]}, name

    def test_stepwise_extension_matches_one_fresh_call(self, monkeypatch):
        # Each call past the cache runs the rows again from row 0, at its
        # own slot width.
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
    """Test-only reference: the tableau with levels q^(i-1) on
    ``tableau_rows``, one UniPoly product per level and entry."""

    def level(i: int) -> UniPoly:
        return UniPoly.q_power(i - 1)

    return [[UNI_ONE], *islice(tableau_rows(level, level, [UNI_ONE]), n)]


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
        # read as 64-bit limbs, and the tableau is built again at that width.
        widths = []

        def recording(packed, slot, count):
            widths.append(slot)
            return _unpack_slots(packed, slot, count)

        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        monkeypatch.setattr(polynomials, "_unpack_slots", recording)
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
        # Every tableau row of the suite asks for one cap; only the first
        # call builds, in full mode, and the J-fraction presets run cut.
        built = []
        real = _PackedTableau.rows

        def counting(self):
            for row in real(self):
                if not self.cut:
                    built.append(len(row) - 1)
                yield row

        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        monkeypatch.setattr(_PackedTableau, "rows", counting)
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

    def test_level_with_a_negative_coefficient_refused(self):
        # The packed engine needs nonnegative levels: a negative coefficient
        # could borrow from the slot below.
        def beta(i: int) -> UniPoly:
            return UniPoly((1, -1)) if i == 3 else UNI_ONE

        with pytest.raises(ValueError, match=r"^beta\(3\) has a negative coefficient$"):
            stieltjes_tableau(lambda i: 1, beta, 5)
        negative = r"^alpha\(2\) has a negative coefficient$"
        with pytest.raises(ValueError, match=negative):
            stieltjes_tableau(lambda i: 1 - i, lambda i: 1, 5)

    @pytest.mark.parametrize("value", [1.5, "1", None, MultiPoly.one(("q",)), True])
    def test_level_that_is_not_a_unipoly_or_an_int_refused(self, value):
        # Refused as a value, not with a TypeError from the sum that turns an
        # int level into a UniPoly.
        refused = r"\) is not a UniPoly or an int$"
        with pytest.raises(ValueError, match=r"^alpha\(1" + refused):
            stieltjes_tableau(lambda i: value, lambda i: 1, 3)
        with pytest.raises(ValueError, match=r"^beta\(2" + refused):
            stieltjes_tableau(lambda i: 1, lambda i: value if i == 2 else 1, 5)

    def test_matches_reference_on_mixed_levels(self):
        # Int and UniPoly levels, a zero level, and low powers of q that
        # change from level to level.
        def alpha(i: int) -> "UniPoly | int":
            return (0, 2, UniPoly((0, 1, 3)), UniPoly.q_power(5))[i % 4]

        def beta(i: int) -> "UniPoly | int":
            return UniPoly((0,) * (i % 3) + (1, 1)) if i != 4 else 0

        reference = [[UNI_ONE], *islice(tableau_rows(alpha, beta, [UNI_ONE]), 14)]
        assert stieltjes_tableau(alpha, beta, 14) == reference


@st.composite
def tableau_inputs(draw):
    """Variables, nonnegative levels alpha(k) and beta(k) for k <= n_max as
    term dicts, n_max and the mode.  Levels may be zero, constant, or have
    a least power of each variable that changes from level to level, and a
    coefficient may need more than 64 bits."""
    nvars = draw(st.integers(1, 3))
    n_max = draw(st.integers(0, 10))
    coeff = st.one_of(st.integers(0, 3), st.just(1), st.integers(0, 1 << 80))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), coeff)
    level = st.one_of(
        st.just({}),
        st.builds(lambda c: {(0,) * nvars: c}, coeff),
        st.lists(term, max_size=3).map(dict),
    )
    alpha, beta = (draw(st.lists(level, min_size=n_max, max_size=n_max))
                   for _ in range(2))
    return ("x", "y", "z")[:nvars], alpha, beta, n_max, draw(st.booleans())


def check_engine_against_reference(variables, alpha, beta, n_max, cut):
    """Every entry the engine keeps, unpacked, equals the product tableau's."""

    def level(terms: list) -> Callable[[int], MultiPoly]:
        return lambda k: MultiPoly.from_terms(variables, terms[k - 1])

    table = _PackedTableau(variables, level(alpha), level(beta), n_max, cut)
    one = MultiPoly.one(variables)
    reference = islice(tableau_rows(level(alpha), level(beta), [one]), n_max)
    for n, (row, full) in enumerate(zip(table.rows(), reference), 1):
        assert len(row) == (min(n, n_max - n) if cut else n) + 1, n
        for i, entry in enumerate(row):
            assert table.multipoly(entry, i) == full[i], (n, i)
    return table


class TestPackedTableau:
    @settings(max_examples=80, deadline=None)
    @given(tableau_inputs())
    def test_matches_product_reference(self, inputs):
        check_engine_against_reference(*inputs)

    @pytest.mark.parametrize("name", sorted(qmotzkin._FRACTIONS))
    def test_levels_split_along_the_packed_variable_alone(self, name, monkeypatch):
        # The packed variable has the most distinct exponents over the
        # levels, ties to the last; each level is split along it alone.
        variables, alpha, beta = qmotzkin._fraction(name)
        real, axes = MultiPoly._along, []
        monkeypatch.setattr(MultiPoly, "_along",
                            lambda poly, i: axes.append(i) or real(poly, i))
        table = _PackedTableau(variables, alpha, beta, 12)
        exps = [e for f in (alpha, beta) for k in range(1, 13)
                for e, _ in f(k).terms_sorted()]
        spread = [len({e[j] for e in exps}) for j in range(len(variables))]
        assert table.var == max(reversed(range(len(variables))), key=spread.__getitem__)
        assert axes == [table.var] * 24

    @pytest.mark.parametrize("cut", [False, True])
    def test_wide_slots_in_both_modes(self, cut):
        # Coefficients past 64 bits, two variables, low powers of x that
        # change from level to level: 16-byte slots read as 64-bit limbs.
        alpha = [{(1, k % 2): 3 << 70, (0, 0): 1} for k in range(12)]
        beta = [{(k % 3, 1): 1 << 66, (2, 2): 5} for k in range(12)]
        table = check_engine_against_reference(("x", "y"), alpha, beta, 12, cut)
        assert table.slot % 8 == 0 and table.slot > 8


class TestSizingPass:
    """The integer pass that sizes a packed tableau's slot reads only the
    level sums at 1, n_max and the mode, and is cached by them."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # A cold cache around the real pass, recording each shape it runs.
        shapes = []
        real = qmotzkin._slot_for_shape.__wrapped__

        def counting(*shape):
            shapes.append(shape)
            return real(*shape)

        monkeypatch.setattr(qmotzkin, "_slot_for_shape", lru_cache(counting))
        return shapes

    def test_both_families_share_one_pass(self, cold_caches, passes):
        reference = TestPackedRecurrence.REFERENCE
        assert q_motzkin(30) == reference["_q_motzkin_cache"][30]
        assert q_motzkin_tilde(30) == reference["_q_tilde_cache"][30]
        (shape,) = passes
        assert shape == ((1,) * 15, (1,) * 15, 30, True)

    def test_joint_presets_share_one_pass(self, passes):
        for name in ("I4321-joint", "I3412-joint", "I-abcd"):
            named_series(name, 16)
        assert len(passes) == 1

    def test_other_level_sums_run_their_own_pass(self, passes):
        # alpha = 2 and beta = 1 + q sum to 2 at q = 1, not 1 as q^(k-1)
        # does: that shape gets its own pass, and a third tableau with the
        # same sums (alpha = 2q, beta = q + q^3) shares it.
        def check(alpha, beta):
            reference = [[UNI_ONE], *islice(tableau_rows(alpha, beta, [UNI_ONE]), 12)]
            assert stieltjes_tableau(alpha, beta, 12) == reference

        check(UniPoly.q_power, UniPoly.q_power)
        check(lambda k: 2, lambda k: UniPoly((1, 1)))
        assert [shape[:2] for shape in passes] == [((1,) * 12,) * 2, ((2,) * 12,) * 2]
        check(lambda k: UniPoly((0, 2)), lambda k: UniPoly((0, 1, 0, 1)))
        assert len(passes) == 2


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
