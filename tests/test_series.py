from itertools import islice, permutations
from math import factorial
from typing import Iterator

import pytest
from tableau_reference import tableau_rows

import crossnest.polynomials as polynomials_module
import crossnest.qmotzkin as qmotzkin_module
import crossnest.series as series_module
from crossnest.paths import enumerate_paths, path_statistics
from crossnest.permutations import perm_statistics
from crossnest.polynomials import (
    UNI_ONE,
    UNI_ZERO,
    MultiPoly,
    UniPoly,
    _slot_bytes,
    _unpack_slots,
)
from crossnest.qmotzkin import (
    _FRACTIONS,
    _fraction,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
)
from crossnest.series import (
    PRESETS,
    FractionSpec,
    PowerSeries,
    jfraction_series,
    named_series,
)


# The J-fraction levels of every preset the engine expands from a spec, and
# of A and main12-rhs, which are the cached q_motzkin and q_motzkin_tilde
# families: both routes must give the same series.
LEVEL_SPECS = _FRACTIONS


def uni_coeffs(series: PowerSeries) -> list[UniPoly]:
    return [c.as_unipoly("q") for c in series.coeffs]


def tableau_column(spec: FractionSpec, order: int) -> PowerSeries:
    """Reference expansion: column 0 of the generic tableau, to t^order.

    Rows of ``tableau_rows`` over the ``MultiPoly`` levels, uncut, one
    ``MultiPoly`` product per entry and level; no packing.
    """
    one = MultiPoly.one(spec.variables)
    rows = islice(tableau_rows(spec.alpha, spec.beta, [one]), order)
    return PowerSeries(spec.variables, [one] + [row[0] for row in rows])


def corteel_spec() -> FractionSpec:
    """Corteel's J-fraction of S_n with y, p, q marking exc, crs, nes.

    alpha_k = [k]_{p,q} + y [k-1]_{p,q} and beta_k = y [k]_{p,q}^2, where
    [k]_{p,q} = sum_j p^j q^(k-1-j).  Its levels are not monomials, and its
    coefficients outgrow the Motzkin numbers.
    """
    v = ("y", "p", "q")
    y = MultiPoly.variable(v, "y")

    def qint(k: int) -> MultiPoly:
        return MultiPoly.from_terms(v, {(0, j, k - 1 - j): 1 for j in range(k)})

    return FractionSpec(
        v, lambda k: qint(k) + y * qint(k - 1), lambda k: y * qint(k) * qint(k)
    )


def even_q_spec() -> FractionSpec:
    """Levels in q^2 only, so every packed entry has a zero in each odd slot."""
    v = ("q",)

    def powers(*exps: int) -> MultiPoly:
        return MultiPoly.from_terms(v, {(e,): 1 for e in exps})

    return FractionSpec(
        v, lambda k: powers(2 * k), lambda k: powers(2 * k - 2, 2 * k + 2)
    )


def matchings_spec() -> FractionSpec:
    """Perfect matchings with p, q marking crs, nes: alpha_k = 0 and
    beta_k = [k]_{p^2,q^2}.  Every odd t^n is 0, and the packed q slots of
    every entry alternate with zeros."""
    v = ("p", "q")

    def beta(k: int) -> MultiPoly:
        return MultiPoly.from_terms(v, {(2 * j, 2 * (k - 1 - j)): 1 for j in range(k)})

    return FractionSpec(v, lambda k: MultiPoly.zero(v), beta)


def stored_zeros(series: PowerSeries) -> int:
    """How many coefficient dicts of the series hold a zero coefficient."""
    return sum(0 in c._terms.values() for c in series.coeffs)


def level_by_level(spec: FractionSpec, order: int) -> PowerSeries:
    """Reference j-fraction expansion from the deepest level up.

    Level k is 1 / (1 - a_k t - b_k t^2 G) with G the expansion of level
    k+1 (G = 1 past the last level that can reach t^order), kept to the
    order t^(order - 2(k-1)) that is still visible from the top.
    Independent of the tableau.
    """
    v = spec.variables
    depth = (order + 1) // 2 + 1
    inner = [MultiPoly.one(v)]
    for k in range(depth, 0, -1):
        a, b = spec.alpha(k), spec.beta(k)
        out = [MultiPoly.one(v)]
        for m in range(1, max(0, order - 2 * (k - 1)) + 1):
            term = a * out[m - 1]
            for r in range(min(m - 1, len(inner))):
                term = term + b * inner[r] * out[m - 2 - r]
            out.append(term)
        inner = out
    zero = MultiPoly.zero(v)
    return PowerSeries(v, (inner + [zero] * order)[: order + 1])


def main12_lhs_level_by_level(order: int) -> list[UniPoly]:
    """Reference expansion of 1 / (1 - c_1 / (1 - c_2 / ...)), deepest first.

    c_k = L_k t + q^(k-1) t^2 with L_k = q^((k-1)/2) for odd k and 0 for
    even k.  Level k is 1 / (1 - c_k G) with G the expansion of level k+1,
    each as a series product.  Levels 1..k-1 take at least (k-1) + (k-1)//2
    powers of t, so level k is kept to what is still visible from the top,
    and levels past order + 1 cannot reach t^order.
    """
    inner = [UNI_ONE]
    for k in range(order + 1, 0, -1):
        lin = UniPoly.q_power((k - 1) // 2) if k % 2 else UNI_ZERO
        quad = UniPoly.q_power(k - 1)
        out = [UNI_ONE]
        conv = []  # conv[j] is the t^j coefficient of G * out
        for m in range(1, max(0, order - (k - 1) - (k - 1) // 2) + 1):
            s = UNI_ZERO
            for r in range(min(m, len(inner))):
                s = s + inner[r] * out[m - 1 - r]
            conv.append(s)
            term = lin * s
            if m >= 2:
                term = term + quad * conv[m - 2]
            out.append(term)
        inner = out
    return inner


def main12_lhs_dyck_unipoly(order: int) -> Iterator[list[UniPoly]]:
    """Reference Dyck-path loop of ``series._preset_main12_lhs`` in
    ``UniPoly``: rows 1..order of D, every weight q^k a ``times_q_power``
    shift, every entry a tuple of coefficients, with no packing and no slot
    to size.  Column 0 of the rows is t^1..t^order."""
    prev2: list[UniPoly] = []
    prev1 = [UNI_ONE] * (order + 1)  # row 0: the prefixes of up steps only
    for m in range(1, order + 1):
        row = []
        acc = UNI_ZERO
        for h in range(order - m + 1):
            if h % 2 == 0:
                acc = acc + prev1[h + 1].times_q_power(h // 2)
            if prev2:
                acc = acc + prev2[h + 1].times_q_power(h)
            row.append(acc)
        yield row
        prev2, prev1 = prev1, row


class TestPowerSeries:
    def test_needs_the_constant_term(self):
        with pytest.raises(ValueError, match=r"^a series needs at least the t\^0 "):
            PowerSeries(("q",), [])
        with pytest.raises(ValueError, match=r"^a series needs at least the t\^0 "):
            PowerSeries(("q",), iter(()))

    def test_coefficients_from_an_iterator(self):
        one = MultiPoly.one(("q",))
        s = PowerSeries(("q",), (one for _ in range(3)))
        assert s.order == 2 and s.coeffs == (one, one, one)
        assert s == PowerSeries(("q",), [one] * 3)

    def test_value(self):
        s = named_series("Mtilde", 5)
        t = PowerSeries(("q",), list(s.coeffs))
        assert s == t and hash(s) == hash(t)
        assert s != named_series("Mtilde", 4)
        assert repr(s) == "PowerSeries(order=5, [1, 1, 2, 3 + q, ...])"
        assert repr(named_series("Mtilde", 1)) == "PowerSeries(order=1, [1, 1])"
        for attr in ("coeffs", "variables", "other"):
            with pytest.raises(AttributeError, match=r"^PowerSeries is immutable$"):
                setattr(s, attr, ())

    def test_variable_mismatch(self):
        with pytest.raises(ValueError, match="coefficient variables"):
            PowerSeries(("q",), [MultiPoly.one(("q",)), MultiPoly.one(("y", "q"))])

    @pytest.mark.parametrize("coeff", [1, UNI_ONE, None])
    def test_coefficient_must_be_a_multipoly(self, coeff):
        with pytest.raises(ValueError, match=r"^coefficient .* is not a MultiPoly$"):
            PowerSeries(("q",), [MultiPoly.one(("q",)), coeff])

    def test_coefficient_bounds(self):
        s = named_series("Mtilde", 2)
        assert str(s.coefficient(2)) == "2"
        for n in (-1, 3, True, False, 1.0):
            with pytest.raises(ValueError, match=r"^order 2 series has no t\^"):
                s.coefficient(n)

    def test_json_dict(self):
        s = named_series("Mtilde", 3)
        assert s.to_json_dict() == {
            "order": 3,
            "vars": ["q"],
            "coeffs": ["1", "1", "2", "3 + q"],
        }


class TestJFraction:
    def test_all_ones_gives_motzkin(self):
        v = ("q",)
        one = MultiPoly.one(v)
        spec = FractionSpec(v, lambda k: one, lambda k: one)
        series = jfraction_series(spec, 5)
        assert [c.evaluate({"q": 1}) for c in series.coeffs] == [1, 1, 2, 4, 9, 21]

    def test_order_zero(self):
        v = ("q",)
        one = MultiPoly.one(v)
        spec = FractionSpec(v, lambda k: one, lambda k: one)
        series = jfraction_series(spec, 0)
        assert series.order == 0
        assert str(series.coefficient(0)) == "1"

    def test_matches_stieltjes_tableau_column(self):
        # The fraction expansion and the product tableau must agree level by
        # level; stieltjes_tableau runs the same engine, so it is no reference.
        def alpha(i: int) -> UniPoly:
            return UniPoly.q_power(i - 1)

        def beta(i: int) -> UniPoly:
            return UniPoly.q_power(2 * (i - 1))

        v = ("q",)
        spec = FractionSpec(
            v,
            lambda k: MultiPoly.from_unipoly(alpha(k), v, "q"),
            lambda k: MultiPoly.from_unipoly(beta(k), v, "q"),
        )
        series = jfraction_series(spec, 14)
        table = [[UNI_ONE], *islice(tableau_rows(alpha, beta, [UNI_ONE]), 14)]
        assert uni_coeffs(series) == [row[0] for row in table]

    @pytest.mark.parametrize("name", sorted(LEVEL_SPECS))
    def test_presets_match_generic_tableau(self, name):
        # The packed engine against one MultiPoly product per entry, at
        # every order: a low order cuts the tableau differently.
        spec = FractionSpec(*_fraction(name))
        cap = 30 if len(spec.variables) == 1 else 16
        reference = tableau_column(spec, cap).coeffs
        for order in range(cap + 1):
            assert named_series(name, order).coeffs == reference[: order + 1], order

    def test_no_variables(self):
        two, three = MultiPoly.constant((), 2), MultiPoly.constant((), 3)
        spec = FractionSpec((), lambda k: two, lambda k: three)
        assert jfraction_series(spec, 12) == tableau_column(spec, 12)

    def test_corteel_fraction_counts_permutations(self):
        spec = corteel_spec()
        series = jfraction_series(spec, 12)
        for n in range(8):
            counts: dict[tuple[int, int, int], int] = {}
            for w in permutations(range(1, n + 1)):
                r = perm_statistics(w)
                key = (r.exc, r.crs, r.nes)
                counts[key] = counts.get(key, 0) + 1
            assert series.coefficient(n) == MultiPoly.from_terms(spec.variables, counts)
        ones = dict.fromkeys(spec.variables, 1)
        assert [c.evaluate(ones) for c in series.coeffs] == [
            factorial(n) for n in range(13)
        ]

    def test_corteel_fraction_outgrows_a_motzkin_slot(self):
        # A slot sized from M_12, as for monomial levels at t^12, would carry:
        # the slot bound must come from the tableau at every variable = 1.
        spec = corteel_spec()
        series = jfraction_series(spec, 12)
        assert series == tableau_column(spec, 12)
        top = max(c for _, c in series.coefficient(12).terms_sorted())
        assert top == 2_112_134
        motzkin_slot = (motzkin_number(12).bit_length() + 8) // 8
        assert top >= 1 << (8 * motzkin_slot)

    def test_levels_read_once_from_one(self):
        one = MultiPoly.one(("q",))
        for order in range(9):
            seen = {"alpha": [], "beta": []}

            def level(name):
                def at(k):
                    assert k >= 1, "levels are 1-based"
                    seen[name].append(k)
                    return one
                return at

            jfraction_series(FractionSpec(("q",), level("alpha"), level("beta")), order)
            assert seen["alpha"] == list(range(1, (order + 1) // 2 + 1)), order
            assert seen["beta"] == list(range(1, order // 2 + 1)), order

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            (1, 1, r"^alpha\(1\) is not a MultiPoly over \('q',\)$"),
            (MultiPoly.one(("y", "q")), MultiPoly.one(("q",)),
             r"^alpha\(1\) is not a MultiPoly over \('q',\)$"),
            (MultiPoly.one(("q",)), UNI_ONE,
             r"^beta\(1\) is not a MultiPoly over \('q',\)$"),
            (-MultiPoly.variable(("q",), "q"), MultiPoly.one(("q",)),
             r"^alpha\(1\) has a negative coefficient$"),
            (MultiPoly.one(("q",)), MultiPoly.from_terms(("q",), {(0,): 2, (1,): -1}),
             r"^beta\(1\) has a negative coefficient$"),
        ],
    )
    def test_level_contract(self, alpha, beta, message):
        spec = FractionSpec(("q",), lambda k: alpha, lambda k: beta)
        with pytest.raises(ValueError, match=message):
            jfraction_series(spec, 4)

    @pytest.mark.parametrize("name", sorted(LEVEL_SPECS))
    def test_presets_match_level_by_level_expansion(self, name):
        spec = FractionSpec(*_fraction(name))
        for order in range(13):
            assert named_series(name, order) == level_by_level(spec, order), order

    @pytest.mark.parametrize("spec", [even_q_spec(), matchings_spec()],
                             ids=["q-squared", "matchings"])
    def test_zero_slots_are_dropped_as_read(self, spec):
        # The engine's entries hold zero slots, which the read-out skips: the
        # series equals the reference, and no coefficient stores a 0.
        for order in range(13):
            series = jfraction_series(spec, order)
            assert series == level_by_level(spec, order), order
            assert stored_zeros(series) == 0, order
        if spec.alpha(1).is_zero():  # matchings: no odd t^n
            assert all(series.coefficient(n).is_zero() for n in range(1, 13, 2))

    def test_negative_order(self):
        v = ("q",)
        one = MultiPoly.one(v)
        spec = FractionSpec(v, lambda k: one, lambda k: one)
        with pytest.raises(ValueError):
            jfraction_series(spec, -1)


class TestPresets:
    def test_catalogue(self):
        assert set(PRESETS) == {
            "motzkin",
            "I-abcd",
            "I4321-joint",
            "I3412-joint",
            "A",
            "S321-exc-crs",
            "M",
            "Mtilde",
            "main12-lhs",
            "main12-rhs",
        }

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            named_series("nope", 3)

    def test_motzkin_preset(self):
        series = named_series("motzkin", 9)
        assert [str(c) for c in series.coeffs] == [
            str(motzkin_number(n)) for n in range(10)
        ]

    def test_a_preset_matches_first_kind_recurrence(self):
        series = named_series("A", 16)
        assert uni_coeffs(series) == [q_motzkin(n) for n in range(17)]

    def test_m_presets_match_recurrences(self):
        assert uni_coeffs(named_series("M", 12)) == [q_motzkin(n) for n in range(13)]
        assert uni_coeffs(named_series("Mtilde", 12)) == [
            q_motzkin_tilde(n) for n in range(13)
        ]

    def test_i_abcd_low_orders(self):
        series = named_series("I-abcd", 2)
        v = ("a", "b", "c", "d")
        assert series.coefficient(0) == MultiPoly.one(v)
        assert series.coefficient(1) == MultiPoly.variable(v, "a")
        assert series.coefficient(2) == (
            MultiPoly.monomial(v, {"a": 2}) + MultiPoly.variable(v, "b")
        )

    def test_i_abcd_matches_path_enumeration(self):
        v = ("a", "b", "c", "d")
        series = named_series("I-abcd", 7)
        for n in range(8):
            counts: dict[tuple[int, ...], int] = {}
            for p in enumerate_paths(n):
                r = path_statistics(p)
                key = (r.hor, r.up, r.sh_u, r.sh_h)
                counts[key] = counts.get(key, 0) + 1
            assert series.coefficient(n) == MultiPoly.from_terms(v, counts), n

    def test_s321_preset_at_y_one(self):
        series = named_series("S321-exc-crs", 8)
        for n in range(9):
            # Setting y = 1 sums the coefficients over the powers of y.
            collapsed = UniPoly(())
            for (_, q_exp), c in series.coefficient(n).terms_sorted():
                collapsed = collapsed + UniPoly.q_power(q_exp) * c
            assert collapsed == q_motzkin_tilde(n), n

    def test_joint_presets_at_all_ones_count_involutions(self):
        # Involutions of n are counted by the telephone numbers.
        telephone = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]
        for preset in ("I4321-joint", "I3412-joint"):
            series = named_series(preset, 6)
            totals = [
                c.evaluate({"x": 1, "y": 1, "p": 1, "q": 1}) for c in series.coeffs
            ]
            # Pattern-restricted involutions are Motzkin-many, fewer than
            # all involutions from n = 4 on.
            assert totals == [motzkin_number(n) for n in range(7)]
            assert all(t <= tel for t, tel in zip(totals, telephone))

    def test_main12_sides_agree(self):
        lhs = named_series("main12-lhs", 14)
        rhs = named_series("main12-rhs", 14)
        assert lhs == rhs

    def test_main12_rhs_is_mtilde(self):
        rhs = named_series("main12-rhs", 14)
        assert uni_coeffs(rhs) == [q_motzkin_tilde(n) for n in range(15)]

    def test_main12_lhs_low_order_is_high_order_truncated(self):
        # Row m of the Dyck-path loop keeps only the heights that can still
        # return by t^order, so a low order must read as a high one cut.
        full = named_series("main12-lhs", 40)
        for k in range(40):
            assert named_series("main12-lhs", k).coeffs == full.coeffs[: k + 1], k

    def test_main12_lhs_matches_level_by_level_expansion(self):
        for order in [*range(26), 60]:
            lhs = uni_coeffs(named_series("main12-lhs", order))
            assert lhs == main12_lhs_level_by_level(order), order

    def test_main12_lhs_packed_loop_matches_unipoly_loop(self, monkeypatch):
        # The packed loop against the same loop in UniPoly, at every order
        # to 30 and on both sides of each change of slot width to 60: 1, 2,
        # 4, 8 and 16 bytes, sized from the loop in plain ints.
        widths = []

        def recording(packed, slot, count):
            widths.append(slot)
            return _unpack_slots(packed, slot, count)

        monkeypatch.setattr(polynomials_module, "_unpack_slots", recording)
        expected = {7: 1, 8: 2, 12: 2, 13: 4, 23: 4, 24: 8, 44: 8, 45: 16, 60: 16}
        for order in sorted({*range(31), *expected}):
            widths.clear()
            lhs = named_series("main12-lhs", order)
            column = [row[0] for row in main12_lhs_dyck_unipoly(order)]
            assert uni_coeffs(lhs) == [UNI_ONE, *column], order
            assert stored_zeros(lhs) == 0, order
            if order in expected:
                assert set(widths) == {expected[order]}, order

    def test_main12_lhs_slot_bound_reads_every_entry(self, monkeypatch):
        # The slot is sized from the largest entry of any row at q = 1.
        # Entries grow with the height, so at t^40 that entry (57 bits)
        # outgrows every entry of column 0 (56 bits).
        tops = []

        def recording(top):
            tops.append(top)
            return _slot_bytes(top)

        monkeypatch.setattr(series_module, "_slot_bytes", recording)
        named_series("main12-lhs", 40)
        rows = list(main12_lhs_dyck_unipoly(40))
        assert tops == [max(e.evaluate(1) for row in rows for e in row)]
        assert tops[0] > max(row[0].evaluate(1) for row in rows)

    def test_main12_lhs_never_builds_the_tableau(self, monkeypatch):
        # The two sides of main12 stay different computations: the left
        # side builds with the packed tableau engine unusable.
        expected = named_series("main12-lhs", 40)

        class Refused:
            def __init__(self, *args, **kwargs):
                raise AssertionError("main12-lhs built a _PackedTableau")

        monkeypatch.setattr(series_module, "_PackedTableau", Refused)
        monkeypatch.setattr(qmotzkin_module, "_PackedTableau", Refused)
        assert named_series("main12-lhs", 40) == expected
        with pytest.raises(AssertionError, match="built a _PackedTableau"):
            named_series("I-abcd", 4)

    def test_main12_lhs_is_mtilde_to_order_60(self):
        lhs = named_series("main12-lhs", 60)
        assert uni_coeffs(lhs) == [q_motzkin_tilde(n) for n in range(61)]
