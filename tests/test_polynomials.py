import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossnest import polynomials, qmotzkin
from crossnest.polynomials import (
    MultiPoly,
    UNI_ONE,
    UNI_ZERO,
    UniPoly,
    _convolve,
    _pack_slots,
    _slot_bytes,
    _unpack_slots,
)
from crossnest.series import named_series


def naive_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestConvolve:
    def test_small(self):
        assert _convolve([1, 2], [3, 4]) == [3, 10, 8]

    def test_packed_path_matches_naive_nonnegative(self):
        rng = random.Random(7)
        for _ in range(30):
            la = rng.randint(20, 60)
            lb = rng.randint(20, 60)
            a = [rng.randint(0, 10**6) for _ in range(la)]
            b = [rng.randint(0, 10**6) for _ in range(lb)]
            assert _convolve(a, b) == naive_convolve(a, b)

    def test_signed_falls_back_correctly(self):
        rng = random.Random(11)
        for _ in range(20):
            a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 40))]
            b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 40))]
            assert _convolve(a, b) == naive_convolve(a, b)

    def test_monomial_times_long_list_matches_naive(self):
        # A factor c*q^k against a list past _PACK_CUTOFF, on either side;
        # the long list has low and inner zeros, and signs in one case.
        rng = random.Random(13)
        for low in (0, -20):
            long = [0, 0] + [rng.randint(low, 10**6) for _ in range(298)]
            long[100] = 0
            for k in (0, 1, 7):
                for c in (1, 5, -3):
                    mono = [0] * k + [c]
                    assert _convolve(mono, long) == naive_convolve(mono, long)
                    assert _convolve(long, mono) == naive_convolve(long, mono)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=80),
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=80),
    )
    def test_convolve_property(self, a, b):
        assert _convolve(a, b) == naive_convolve(a, b)


def check_slots_read_back(slot: int) -> None:
    # Values at the top of a slot, with only its top bit set, one byte short
    # of the top, and one full low limb, so that a wide slot has zero and
    # nonzero limbs above each limb.
    rng = random.Random(17)
    top = (1 << (8 * slot)) - 1
    edges = (0, 1, top, 1 << (8 * slot - 1), top >> 8, (1 << 64) - 1 & top)
    coeffs = [rng.choice(edges + (rng.randint(0, top),)) for _ in range(40)]
    packed = _pack_slots(coeffs, slot)
    assert _unpack_slots(packed, slot, len(coeffs)) == coeffs, slot
    assert _unpack_slots(packed, slot, 45) == coeffs + [0] * 5, slot


class TestSlots:
    # Widths 1, 2, 4 and 8 are read as native ints in one call, 16 and 24 as
    # 64-bit limbs, the others slot by slot; every route must read what
    # _pack_slots wrote.
    WIDTHS = range(1, 25)

    def test_unpack_matches_slot_by_slot_at_every_width(self):
        for slot in self.WIDTHS:
            check_slots_read_back(slot)

    def test_big_endian_route_at_every_width(self, monkeypatch):
        # With no native slots every width is read slot by slot.
        monkeypatch.setattr(polynomials, "_NATIVE_SLOTS", {})
        for slot in self.WIDTHS:
            check_slots_read_back(slot)


class TestUniPoly:
    def test_canonical_trailing_zeros(self):
        assert UniPoly((1, 0, 0)).coeffs == (1,)
        assert UniPoly((0, 0)).coeffs == ()

    def test_any_iterable_of_coefficients(self):
        # One pass over a generator; interior and low zeros stay.
        assert UniPoly(c for c in (0, 2, 0, 3, 0, 0)).coeffs == (0, 2, 0, 3)
        assert UniPoly([0, 0, 0]).coeffs == ()
        assert UniPoly(iter(())).coeffs == ()
        assert UniPoly(()).coeffs == () == UniPoly().coeffs
        assert UniPoly([4]).coeffs == (4,)

    def test_arithmetic(self):
        p = UniPoly((1, 2))
        q = UniPoly((0, 1))
        assert (p + q).coeffs == (1, 3)
        assert (p - p).is_zero()
        assert (p * q).coeffs == (0, 1, 2)
        assert (3 * p).coeffs == (3, 6)
        assert (p * UNI_ZERO).is_zero()

    def test_subtraction_to_zero_is_canonical(self):
        assert (UniPoly((0, 0, 5)) - UniPoly((0, 0, 5))).coeffs == ()

    def test_evaluate(self):
        assert UniPoly((5, 3, 1)).evaluate(1) == 9
        assert UniPoly((5, 3, 1)).evaluate(2) == 15
        assert UNI_ZERO.evaluate(10) == 0

    def test_q_power_and_shift(self):
        assert UniPoly.q_power(3).coeffs == (0, 0, 0, 1)
        assert UNI_ONE.times_q_power(2).coeffs == (0, 0, 1)
        assert UNI_ZERO.times_q_power(5).is_zero()
        with pytest.raises(ValueError):
            UniPoly.q_power(-1)

    @pytest.mark.parametrize("k", [-1, True, False, 1.0, 2.5, "1", None])
    def test_shift_exponent_must_be_a_nonnegative_int(self, k):
        # A bool is not read as 0 or 1, and a float is refused as a value,
        # not with a TypeError from tuple repetition.
        for shift in (UniPoly.q_power, UNI_ONE.times_q_power, UNI_ZERO.times_q_power):
            with pytest.raises(ValueError, match=r"^exponent must be nonnegative$"):
                shift(k)

    def test_rendering(self):
        assert str(UniPoly((5, 3, 1))) == "5 + 3*q + q^2"
        assert str(UNI_ZERO) == "0"
        assert str(UniPoly((0, 1))) == "q"
        assert str(UniPoly((0, 0, 0, 2))) == "2*q^3"
        assert str(UniPoly((1,))) == "1"
        assert str(UniPoly((-1, 2))) == "-1 + 2*q"
        assert str(UniPoly((1, -1))) == "1 - q"

    def test_degree(self):
        assert UNI_ZERO.degree == -1
        assert UniPoly((0, 0, 7)).degree == 2

    def test_large_product_matches_naive(self):
        a = UniPoly(tuple(range(1, 120)))
        b = UniPoly(tuple(range(2, 90)))
        assert (a * b).coeffs == tuple(naive_convolve(list(a.coeffs), list(b.coeffs)))


def format_terms(terms):
    """Reference rendering, the route before monomial text: one
    (coefficient, ((var, exponent), ...)) tuple per term, zeros dropped."""
    pieces = []
    for coeff, exps in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        factors = [v if e == 1 else f"{v}^{e}" for v, e in exps if e]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces) if pieces else "0"


# Zero, units of either sign, small and wide coefficients of either sign.
COEFFS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**6), 10**6),
    st.integers(-(1 << 80), 1 << 80),
)


@st.composite
def term_dicts(draw):
    """Variables (0 to 4 of them) and {exponent tuple: coefficient}."""
    variables = ("x", "y", "p", "q")[: draw(st.integers(0, 4))]
    exps = st.tuples(*[st.integers(0, 12)] * len(variables))
    return variables, draw(st.dictionaries(exps, COEFFS, max_size=10))


class TestRenderingMatchesReference:
    @settings(max_examples=300)
    @given(st.lists(COEFFS, max_size=15))
    def test_unipoly(self, coeffs):
        expected = format_terms((c, (("q", e),)) for e, c in enumerate(coeffs))
        assert str(UniPoly(coeffs)) == expected

    @settings(max_examples=300)
    @given(term_dicts())
    def test_multipoly(self, data):
        variables, terms = data
        poly = MultiPoly.from_terms(variables, terms)
        ordered = sorted(
            ((e, c) for e, c in terms.items() if c), key=lambda t: (sum(t[0]), t[0])
        )
        assert poly.terms_sorted() == ordered
        expected = format_terms((c, tuple(zip(variables, e))) for e, c in ordered)
        assert str(poly) == expected


VARS = ("x", "y", "p", "q")


def padded_lists(coeff):
    """Lists of up to 40 coefficients with up to 3 zeros at each end.

    The length is drawn first: plain ``st.lists`` stays too short for the
    product of two lengths to pass ``_PACK_CUTOFF``.
    """
    core = st.integers(0, 40).flatmap(lambda n: st.lists(coeff, min_size=n, max_size=n))
    return st.tuples(st.integers(0, 3), core, st.integers(0, 3)).map(
        lambda t: [0] * t[0] + t[1] + [0] * t[2]
    )


class TestMultiPoly:
    def test_construction_and_access(self):
        m = MultiPoly.monomial(VARS, {"x": 1, "q": 3}, 2)
        assert m.coefficient({"x": 1, "q": 3}) == 2
        assert m.coefficient({"x": 1}) == 0

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.monomial(VARS, {"z": 1})
        # Not read as the constant term.
        m = 5 + 3 * MultiPoly.monomial(("x", "q"), {"x": 1, "q": 2})
        assert m.coefficient({"x": 1, "q": 2}) == 3
        with pytest.raises(ValueError, match=r"^unknown variables: \['z'\]$"):
            m.coefficient({"z": 3})

    def test_arithmetic_and_equality(self):
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        assert (x + y) - y == x
        assert (x * y) == (y * x)
        assert (x + x) == 2 * x
        assert (x - x).is_zero()
        assert x * MultiPoly.zero(VARS) == MultiPoly.zero(VARS)

    def test_variable_mismatch_rejected(self):
        x = MultiPoly.variable(VARS, "x")
        q = MultiPoly.variable(("q",), "q")
        for op in (lambda: x + q, lambda: x - q, lambda: q - x, lambda: x * q):
            with pytest.raises(ValueError, match=r"^variable mismatch: "):
                op()

    def test_rendering(self):
        m = MultiPoly.monomial(VARS, {"x": 1, "y": 2, "q": 3}, 2)
        assert str(m) == "2*x*y^2*q^3"
        assert str(MultiPoly.zero(VARS)) == "0"
        assert str(MultiPoly.one(VARS)) == "1"
        x = MultiPoly.variable(VARS, "x")
        y = MultiPoly.variable(VARS, "y")
        assert str(x * x + 2 * y) == "2*y + x^2"
        assert repr(x - 2 * y) == "MultiPoly(('x', 'y', 'p', 'q'), '-2*y + x')"

    def test_term_order_is_total_degree_then_exponents(self):
        x = MultiPoly.variable(("x", "y"), "x")
        y = MultiPoly.variable(("x", "y"), "y")
        poly = x * x + x * y + y * y + x + y + 1
        assert str(poly) == "1 + y + x + y^2 + x*y + x^2"

    def test_evaluate(self):
        m = MultiPoly.monomial(VARS, {"y": 1, "q": 2}, 3) + MultiPoly.one(VARS)
        assert m.evaluate({"x": 0, "y": 1, "p": 0, "q": 2}) == 13
        with pytest.raises(ValueError):
            m.evaluate({"y": 1})

    def test_unipoly_round_trip(self):
        p = UniPoly((5, 3, 1))
        m = MultiPoly.from_unipoly(p, VARS, "q")
        assert m.as_unipoly("q") == p
        with pytest.raises(ValueError):
            (m * MultiPoly.variable(VARS, "x")).as_unipoly("q")

    def test_from_terms_merges(self):
        m = MultiPoly.from_terms(("y", "q"), {(1, 0): 2, (0, 1): 1})
        assert str(m) == "q + 2*y"
        for exps in ((1,), (1, 0, 0)):
            with pytest.raises(
                ValueError, match=r"^exponent tuple length does not match variables$"
            ):
                MultiPoly.from_terms(("y", "q"), {exps: 1})

    def test_single_variable_product(self):
        a = MultiPoly.from_unipoly(UniPoly(tuple(range(1, 50))), ("q",), "q")
        b = MultiPoly.from_unipoly(UniPoly(tuple(range(3, 40))), ("q",), "q")
        expected = UniPoly(
            tuple(naive_convolve(list(range(1, 50)), list(range(3, 40))))
        )
        assert (a * b).as_unipoly("q") == expected

    @settings(max_examples=150)
    @given(
        st.sampled_from([st.integers(0, 10**9), st.integers(-(10**6), 10**6)])
        .flatmap(lambda coeff: st.tuples(padded_lists(coeff), padded_lists(coeff)))
    )
    def test_single_variable_product_matches_unipoly(self, pair):
        # Two algorithms: the term loop here, _convolve in UniPoly.  Leading
        # zeros take _convolve's strip, signed lists its schoolbook loop and
        # long nonnegative ones its packed product.
        a, b = (UniPoly(coeffs) for coeffs in pair)
        product = MultiPoly.from_unipoly(a, ("q",)) * MultiPoly.from_unipoly(b, ("q",))
        assert product.as_unipoly() == a * b

    def test_exponent_bound_enforced(self):
        with pytest.raises(ValueError):
            MultiPoly.monomial(("q",), {"q": 2**21})

    @pytest.mark.parametrize("e", [-1, 2**21, True, False, 1.0, 2.5, "1", None])
    def test_exponent_must_be_an_int_in_range(self, e):
        # Every route that packs an exponent refuses a bool, a float or any
        # other non-int, with the message of an exponent out of range.
        v = ("p", "q")
        message = rf"^exponent {re.escape(str(e))} out of range$"
        for pack in (
            lambda: MultiPoly.monomial(v, {"q": e}),
            lambda: MultiPoly.from_terms(v, {(0, e): 1}),
            lambda: MultiPoly.one(v).coefficient({"q": e}),
        ):
            with pytest.raises(ValueError, match=message):
                pack()

    @pytest.mark.parametrize("c", [1.5, 2.0, True, False, "1", None, Fraction(1)])
    def test_coefficient_must_be_an_int(self, c):
        # Every public constructor refuses a coefficient that is not a plain
        # int, a bool or a zero float included, as a value.
        v = ("p", "q")
        message = rf"^coefficient {re.escape(repr(c))} is not an int$"
        for build in (
            lambda: UniPoly((c, 2)),
            lambda: UniPoly((1, c)),
            lambda: MultiPoly(v, {0: c}),
            lambda: MultiPoly.constant(v, c),
            lambda: MultiPoly.monomial(v, {"q": 1}, c),
            lambda: MultiPoly.from_terms(v, {(0, 1): c}),
            lambda: MultiPoly.from_terms(v, {(0, 1): 1, (1, 0): c}),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_results_are_built_unchecked(self, monkeypatch):
        # Arithmetic, shifts, projections and the packed tableaux build
        # their results from ints the package already holds, through the
        # trusted constructors; the check runs only on what a caller passes
        # in, here each level monomial's one coefficient.
        real, checked = polynomials._check_coeffs, []

        def recording(coeffs):
            coeffs = list(coeffs)
            checked.append(len(coeffs))
            real(coeffs)

        p = UniPoly((1, 2, 3))
        m = MultiPoly.from_terms(("y", "q"), {(1, 0): 2, (0, 1): 3})
        monkeypatch.setattr(polynomials, "_check_coeffs", recording)
        for name in ("_q_motzkin_cache", "_q_tilde_cache"):
            monkeypatch.setattr(qmotzkin, name, [UNI_ONE, UNI_ONE])
        monkeypatch.setattr(qmotzkin, "_h_rows", [[UNI_ONE]])
        for value in (p + p, p + 1, p - 1, 1 - p, -p, 3 * p, p * p,
                      p.times_q_power(2),
                      m + m, m + 1, m - 1, -m, 2 * m, m * m,
                      MultiPoly.from_unipoly(p, ("y", "q")).as_unipoly("q")):
            assert value
        assert checked == []
        assert qmotzkin.q_motzkin(20) and qmotzkin.q_motzkin_tilde(20)
        assert qmotzkin.h_tableau(20)[20][0] == qmotzkin.q_motzkin_tilde(20)
        assert named_series("I4321-joint", 12).coefficient(12)
        assert checked and set(checked) == {1}

    @pytest.mark.parametrize(
        "k, expected",
        [(0, 5), (2, 1), (-1, 0), (3, 0), (2**21, 0), (True, None), (False, None),
         (1.0, None), (2.5, None), ("1", None), (None, None)],
    )
    def test_unipoly_coefficient_of_an_int_only(self, k, expected):
        # An int out of range reads 0; a bool is not read as 0 or 1, and a
        # float is refused as a value, not with a TypeError from indexing.
        p = UniPoly((5, 3, 1))
        if expected is not None:
            assert p.coefficient(k) == expected
        else:
            message = rf"^exponent {re.escape(str(k))} out of range$"
            with pytest.raises(ValueError, match=message):
                p.coefficient(k)

    @settings(max_examples=100)
    @given(
        st.dictionaries(st.tuples(*[st.integers(0, 12)] * 3), st.integers(0, 10**30)),
        st.integers(0, 2),
    )
    def test_split_along_a_variable_reads_back_from_slots(self, terms, i):
        # Split by _along, packed per key of the other variables with
        # _pack_slots, read back by _from_slots: the same polynomial, with
        # no zero slot stored.
        v = ("x", "y", "q")
        poly = MultiPoly.from_terms(v, terms)
        split = poly._along(i)
        low = min((e for _, e, _ in split), default=0)
        rows: dict[int, dict[int, int]] = {}
        for key, e, c in split:
            rows.setdefault(key, {})[e - low] = c
        slot = _slot_bytes(max((c for *_, c in split), default=0))
        entries = [
            (key, _pack_slots([row.get(j, 0) for j in range(max(row) + 1)], slot))
            for key, row in rows.items()
        ]
        assert MultiPoly._from_slots(v, i, entries, slot, low) == poly


U = UniPoly((1, 2))
M = MultiPoly.variable(("q",), "q")


class TestValueProtocol:
    """The rules both polynomial types share: immutable, hashed by value,
    false only at zero, and arithmetic only with an int or the same type."""

    @pytest.mark.parametrize("poly", [U, M])
    def test_immutable(self, poly):
        name = type(poly).__name__
        for attr in ("coeffs", "variables", "_terms", "other"):
            with pytest.raises(AttributeError, match=rf"^{name} is immutable$"):
                setattr(poly, attr, ())

    def test_equal_values_hash_equal(self):
        assert UniPoly([1, 2, 0]) == U and hash(UniPoly([1, 2, 0])) == hash(U)
        # The same terms gathered in another order.
        a = MultiPoly.from_terms(("x", "q"), {(1, 0): 2, (0, 3): -1, (0, 0): 5})
        b = MultiPoly.from_terms(("x", "q"), {(0, 0): 5, (0, 3): -1, (1, 0): 2})
        assert a == b and hash(a) == hash(b)
        assert hash(M - M) == hash(MultiPoly.zero(("q",)))

    def test_bool_is_nonzero(self):
        assert U and M and UniPoly((0, 0, 3)) and MultiPoly.constant(("q",), -1)
        for zero in (UNI_ZERO, U - U, MultiPoly.zero(("q",)), M - M,
                     MultiPoly.zero(())):
            assert not zero

    @pytest.mark.parametrize(
        "op",
        [
            lambda: U + M,
            lambda: M * U,
            lambda: U - 1.5,
            lambda: 1.5 - U,
            lambda: Fraction(1, 2) - U,
            lambda: 1.5 - M,
            lambda: M - 1.5,
            lambda: M - U,
            lambda: U - M,
        ],
        ids=["u+m", "m*u", "u-1.5", "1.5-u", "half-u", "1.5-m", "m-1.5", "m-u", "u-m"],
    )
    def test_other_operands_are_refused(self, op):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\)"):
            op()

    def test_differences_with_ints(self):
        assert (1 - U).coeffs == (0, -2)
        assert (U - 1).coeffs == (0, 2)
        assert (True - U).coeffs == (0, -2)
        assert str(1 - M) == "1 - q"
        assert str(M - 1) == "-1 + q"
        assert 3 - UNI_ZERO == UniPoly((3,))
        assert (M - M) - 2 == MultiPoly.constant(("q",), -2)
