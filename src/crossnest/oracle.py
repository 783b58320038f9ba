"""The named-check verification suites, over the brute-force distributions.

``distribution``, ``StatSpec``, ``SizeLimitError`` and the enumeration
guard (``DEFAULT_ENUM_LIMIT``, ``ENUM_LIMIT_ENV``) live in
``crossnest.permutations``, beside the family enumerators and the passes
over their trees' states; this module imports them back, so ``from
crossnest.oracle import distribution`` still works.  Nothing in the
package imports this module at load time: ``crossnest.run_suite`` loads
it on first use, and the CLI only in ``verify``.

The named checks are the rows of one table, ``_CHECKS``: a name, a suite,
a size bound, labels for the two sides, and ``cases(cap)``, a generator of
``(where, lhs, rhs)`` over every object up to size ``cap``.  The two sides
of a row are always different computations.  ``run_suite`` holds the only
comparison loop: for each row of the suite it draws cases up to the smaller
of the row's bound and the caller's max_n, stops at the first
``lhs != rhs`` and only then formats that case, so the report's
counterexamples are the lexicographically first failures.  It counts the
cases it compared: a row with none does not pass (its status is
``empty``), and a row whose cases raise fails with the exception as its
counterexample, placed at the object whose sides raised (or after the last
case drawn, when drawing the next one raised), while the suite goes on.

The rows over enumerated words trust the enumerator, as ``in_class``
validates a word once and its word tests trust it: ``inv-identity`` runs
the statistics kernel ``_fp_exc_crs_nes_inv``, and ``head-tail-roundtrip``
the kernels ``_head_tail_pairs`` and ``_permutation_from_head_tail``, none
of which validates its input again.  ``class-tails-des-exc`` keeps the
validating ``head_tail_pairs``, so one row still runs the public wrapper.

The library builds both q-Motzkin families on the packed tableau engine.
So the rows that check that engine against the product recurrence
(``a-series-recurrence``, ``dumont-expansion``, ``tableau-first-column``
and ``tableau-row-pair``) take the recurrence side from the oracle's own
``_product_recurrence``: one ``UniPoly`` product per term, built once per
row, with no cache.  A row that reads a family asks for it at its cap
before drawing cases, and ``run_suite`` runs the rows largest cap first, so
a family's first reader builds it at the largest cap any row needs and one
run of its cut tableau serves them all.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple

from .bijections import involution_shape_path, phi1, phi2, phi3, phi3_inverse
from .paths import (
    PathStatRecord,
    enumerate_paths,
    path_from_head_tail,
    path_statistics,
    sequential_matching,
    strip_decomposition,
    tunnel_matching,
)
# distribution and its guard live in permutations and stay importable here.
from .permutations import (
    DEFAULT_ENUM_LIMIT,
    ENUM_LIMIT_ENV,
    PermClass,
    SizeLimitError,
    StatSpec,
    _fp_exc_crs_nes_inv,
    _head_tail_pairs,
    _permutation_from_head_tail,
    distribution,
    enumerate_class,
    head_tail_pairs,
    one_line,
    perm_statistics,
)
from .polynomials import UNI_ONE, MultiPoly, UniPoly, _check_size
from .qmotzkin import (
    h_recursion_rhs,
    h_tableau,
    motzkin_number,
    q_motzkin,
    q_motzkin_tilde,
)
from .series import PowerSeries, named_series


def _tally(keys: Iterable[tuple[int, ...]], variables: tuple[str, ...]) -> MultiPoly:
    """The polynomial that sums one monomial x^key for each key."""
    return MultiPoly.from_terms(variables, Counter(keys))


class CheckResult(NamedTuple):
    """One check's outcome; ``objects`` counts the cases it compared."""

    name: str
    bounds: str
    passed: bool
    counterexample: str | None
    elapsed_ms: int
    objects: int = 0

    @property
    def status(self) -> str:
        """``pass``, ``FAIL``, or ``empty`` for a check with nothing to compare."""
        if self.passed:
            return "pass"
        return "FAIL" if self.counterexample is not None else "empty"

    def to_json_dict(self) -> dict:
        data: dict = {
            "name": self.name,
            "range": self.bounds,
            "pass": self.passed,
            "objects": self.objects,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


class VerificationReport(NamedTuple):
    suite: str
    max_n: int
    checks: tuple[CheckResult, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "checks": [c.to_json_dict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }


Case = tuple[object, object, object]
Cases = Callable[[int], Iterable[Case]]
Sides = tuple[object, object]


class _Check(NamedTuple):
    """One named identity, checked on every object up to a size cap.

    ``cases(cap)`` lazily yields ``(where, lhs, rhs)``: ``where`` is the
    object (a path, a permutation word, or a label such as ``"n=3"``), and
    ``labels`` name ``lhs`` and ``rhs`` in the counterexample.
    """

    name: str
    suite: str
    bound: int
    labels: tuple[str, str]
    cases: Cases


# Helpers and case producers shared by the rows.  Each ``sides`` callable
# returns the pair (lhs, rhs) for one object.  Rows look up the functions
# under test when they run, so patching a name in this module reaches every
# check that uses it.


def _enumerated(cls: PermClass, n: int, spec: StatSpec) -> MultiPoly | UniPoly:
    """``distribution`` past the guard, as a ``UniPoly`` for one-variable specs."""
    poly = distribution(cls, n, spec, allow_large=True)
    return poly.as_unipoly("q") if len(spec.variables) == 1 else poly


class _RaisedAt(Exception):
    """A case's sides raised; ``where`` is its object, the error its cause."""

    def __init__(self, where: object) -> None:
        super().__init__(where)
        self.where = where


def _each(objects: Callable[[int], Iterable], sides: Callable[..., Sides]) -> Cases:
    """Cases ``(obj, *sides(obj))`` over ``objects(cap)``, naming a raising obj."""

    def cases(cap: int) -> Iterator[Case]:
        for obj in objects(cap):
            try:
                lhs, rhs = sides(obj)
            except Exception as exc:
                raise _RaisedAt(obj) from exc
            yield obj, lhs, rhs

    return cases


def _each_member(cls: PermClass, sides: Callable[[tuple[int, ...]], Sides]) -> Cases:
    """Cases over the members of ``cls`` up to size cap; ``sides(word)``."""
    return _each(
        lambda cap: (w for n in range(cap + 1) for w in enumerate_class(n, cls)), sides
    )


def _each_path(sides: Callable[[str], Sides]) -> Cases:
    """Cases over the paths up to length cap; ``sides(path)``."""
    return _each(
        lambda cap: (p for n in range(cap + 1) for p in enumerate_paths(n)), sides
    )


def _each_path_stats(sides: Callable[[str, PathStatRecord], Sides]) -> Cases:
    """Like ``_each_path`` with ``sides(path, path_statistics(path))``."""
    return _each_path(lambda p: sides(p, path_statistics(p)))


def _each_size(sides: Callable[[int], Sides], *families: Callable) -> Cases:
    """Cases over the sizes n up to cap; ``sides(n)``.  Each q-Motzkin family
    given is asked for at cap first: one run of its cut tableau caches every
    n below, where asking for n = 0, 1, ... in turn would run it per n."""

    def sizes(cap: int) -> range:
        for family in families:
            family(cap)
        return range(cap + 1)

    return _each(sizes, sides)


def _versus_series(name: str, other: Callable[[int], object], var: str = "") -> Cases:
    """Cases over the sizes n up to cap: ``other(n)`` and t^n of preset ``name``.

    With ``var`` the coefficient is compared as a ``UniPoly`` in it.
    """

    def cases(cap: int) -> Iterator[Case]:
        series = named_series(name, cap)
        for n in range(cap + 1):
            coeff = series.coefficient(n)
            yield f"n={n}", other(n), coeff.as_unipoly(var) if var else coeff

    return cases


def _series_terms(sides: Callable[[int], tuple[PowerSeries, PowerSeries]]) -> Cases:
    """Cases over the terms t^0..t^cap of the two series ``sides(cap)``."""

    def cases(cap: int) -> Iterator[Case]:
        lhs, rhs = sides(cap)
        for n in range(cap + 1):
            yield f"t^{n}", lhs.coefficient(n), rhs.coefficient(n)

    return cases


def _product_recurrence(n: int, exponent: Callable[[int, int], int]) -> list[UniPoly]:
    """M_0..M_n by M_m = M_{m-1} + sum_{k=0}^{m-2} q^exponent(k, m) M_k M_{m-2-k}.

    One ``UniPoly`` product per term and no cache: the side of the q-Motzkin
    rows that never runs the tableau engine.
    """
    values = [UNI_ONE, UNI_ONE]
    for m in range(2, n + 1):
        total = values[m - 1]
        for k in range(m - 1):
            prod = values[k] * values[m - 2 - k]
            total = total + prod.times_q_power(exponent(k, m))
        values.append(total)
    return values[: n + 1]


def _first_kind(k: int, m: int) -> int:
    """The exponent of the term k of ``q_motzkin``'s recurrence."""
    return k


def _second_kind(k: int, m: int) -> int:
    """The exponent of the term k of ``q_motzkin_tilde``'s recurrence."""
    return 0 if k == m - 2 else k + 1


# Row-specific sides and cases.


def _inv_sides(w: tuple[int, ...]) -> Sides:
    _, exc, crs, nes, inv = _fp_exc_crs_nes_inv(w)
    return inv, exc + crs + 2 * nes


def _tail_sides(w: tuple[int, ...]) -> Sides:
    # In head order the tails must climb by at least 2, and then sorted
    # tails, descent set and excedance set coincide; pairs = excedances.
    pairs = head_tail_pairs(w)
    tails = tuple(t for _, t in pairs)
    spaced = all(b >= a + 2 for a, b in zip(tails, tails[1:]))
    rec = perm_statistics(w)
    excedances = tuple((v - 1, t) for t, v in enumerate(w, start=1) if v > t)
    return (spaced, tails, tails, pairs), (True, rec.des_set, rec.exc_set, excedances)


def _matching_sides(p: str, r: PathStatRecord) -> Sides:
    # A perfect up/down pairing has one pair per up step, 2*up distinct
    # ends, and each pair opens before it closes.
    shapes = []
    for pairs in (sequential_matching(p), tunnel_matching(p)):
        ends = {end for pair in pairs for end in pair}
        shapes.append((len(pairs), len(ends), all(a < b for a, b in pairs)))
    return tuple(shapes), ((r.up, 2 * r.up, True),) * 2


def _phi1_predicts(r: PathStatRecord) -> tuple[int, ...]:
    """(fp, exc, crs, nes) of the path's image under phi1."""
    return r.hor, r.up, 2 * r.sh_u, r.sh_h


def _phi2_predicts(r: PathStatRecord) -> tuple[int, ...]:
    """(fp, exc, crs, nes) of the path's image under phi2."""
    return r.hor, r.up, 0, 2 * r.sh_u + r.sh_h


def _phi3_sides(p: str, r: PathStatRecord) -> Sides:
    _, exc, crs, _, inv = _fp_exc_crs_nes_inv(phi3(p))
    return (exc, crs, inv), (r.up, r.sh_u + r.sh_h, r.area - r.sh_u)


def _phi_bijectivity(cap: int) -> Iterator[Case]:
    # Sorted images against the class in its lexicographic order; the class
    # has no repeats, so a repeated image shows up as a mismatch.
    targets = (
        ("phi1", phi1, PermClass.I4321),
        ("phi2", phi2, PermClass.I3412),
        ("phi3", phi3, PermClass.S321_B3142),
    )
    for n in range(cap + 1):
        paths = list(enumerate_paths(n))
        for label, fn, cls in targets:
            images = sorted(fn(p) for p in paths)
            where = f"n={n} {label}"
            for image, member in zip_longest(images, enumerate_class(n, cls)):
                yield where, image, member


def _tableau_recursion(cap: int) -> Iterator[Case]:
    table = h_tableau(cap)
    for n in range(1, cap + 1):
        for i in range(1, n + 1):
            yield f"(n={n}, i={i})", table[n][i], h_recursion_rhs(n, i, table)


def _tableau_first_column(cap: int) -> Iterator[Case]:
    table = h_tableau(cap)
    recurrence = _product_recurrence(cap, _second_kind)
    for n in range(cap + 1):
        yield f"n={n}", table[n][0], recurrence[n]


def _tableau_row_pair(cap: int) -> Iterator[Case]:
    # H(n,0) = H(n-1,0) + H(n-1,1) with column 0 from the recurrence, so
    # only column 1 comes from the tableau, and the row checks it.
    table = h_tableau(cap)
    recurrence = _product_recurrence(cap, _second_kind)
    for n in range(1, cap + 1):
        below = recurrence[n - 1] + (table[n - 1][1] if n >= 2 else 0)
        yield f"n={n}", recurrence[n], below


def _dumont(cap: int) -> Iterator[Case]:
    # Two presets against recurrences that never build a tableau.
    recurrences = (
        ("motzkin", lambda n: UniPoly((motzkin_number(n),))),
        ("main12-rhs", _product_recurrence(cap, _second_kind).__getitem__),
    )
    for name, recurrence in recurrences:
        series = named_series(name, cap)
        for n in range(cap + 1):
            got = series.coefficient(n).as_unipoly("q")
            yield f"{name} n={n}", got, recurrence(n)


def _a_series(cap: int) -> Iterator[Case]:
    # The A preset against the recurrence of the first kind.
    recurrence = _product_recurrence(cap, _first_kind)
    yield from _versus_series("A", recurrence.__getitem__, "q")(cap)


def _mtilde_equation(cap: int) -> Iterator[Case]:
    # M(t) B(t) = B(t) + (t + t^2) M(t) with B(t) = 1 - q t^2 M(qt), term by
    # term: B has t^j coefficient 1, 0, then -q^(j-1) m_(j-2) for j >= 2.
    v = ("q",)
    m = named_series("Mtilde", cap).coeffs
    zero = MultiPoly.zero(v)
    b = [MultiPoly.one(v), zero] + [
        MultiPoly.monomial(v, {"q": j - 1}, -1) * m[j - 2] for j in range(2, cap + 1)
    ]
    for n in range(cap + 1):
        lhs = sum((m[i] * b[n - i] for i in range(n + 1)), zero)
        rhs = sum((m[k] for k in (n - 1, n - 2) if k >= 0), b[n])
        yield f"t^{n}", lhs, rhs


def _dist_321(cap: int) -> Iterator[Case]:
    table = h_tableau(cap)
    q_motzkin_tilde(cap)  # one run of the cut tableau caches n <= cap
    for n in range(cap + 1):
        got = _enumerated(PermClass.S321_B3142, n, StatSpec.CRS)
        yield f"n={n}", got, q_motzkin_tilde(n)
        yield f"n={n}", got, table[n][0]


def _dist_transport(cap: int) -> Iterator[Case]:
    # Each matching transports path statistics to one family's joint
    # statistic; the tally over paths must equal the family's enumeration.
    transports = (
        ("sequential-matching", _phi1_predicts,
         PermClass.I4321, StatSpec.JOINT_FP_EXC_CRS_NES),
        ("tunnel-matching", _phi2_predicts,
         PermClass.I3412, StatSpec.JOINT_FP_EXC_CRS_NES),
        ("strip", lambda r: (r.up, r.sh_u + r.sh_h),
         PermClass.S321_B3142, StatSpec.JOINT_EXC_CRS),
    )
    for n in range(cap + 1):
        stats = [path_statistics(p) for p in enumerate_paths(n)]
        for label, key, cls, spec in transports:
            yield (
                f"n={n} {label}",
                _tally(map(key, stats), spec.variables),
                _enumerated(cls, n, spec),
            )


def _abcd_tally(n: int) -> MultiPoly:
    stats = map(path_statistics, enumerate_paths(n))
    return _tally(((r.hor, r.up, r.sh_u, r.sh_h) for r in stats), ("a", "b", "c", "d"))


_PHI12_LABELS = ("image (fp, exc, crs, nes)", "path (hor, up, 2*sh_u, sh_h)")

_CHECKS: tuple[_Check, ...] = (
    _Check("inv-identity", "statistics", 8, ("inv", "exc+crs+2*nes"),
           _each_member(PermClass.ALL, _inv_sides)),
    _Check("head-tail-roundtrip", "statistics", 8, ("rebuilt", "word"),
           _each_member(PermClass.ALL, lambda w: (
               _permutation_from_head_tail(_head_tail_pairs(w), len(w)), w))),
    _Check("class-tails-des-exc", "statistics", 9,
           ("(spaced, tails, tails, pairs)", "(True, des, exc, excedances)"),
           _each_member(PermClass.S321_B3142, _tail_sides)),
    _Check("class-nonnesting", "statistics", 9, ("nes", "expected"),
           _each_member(PermClass.S321_B3142, lambda w: (
               _fp_exc_crs_nes_inv(w)[3], 0))),
    _Check("area-down-identity", "paths", 12, ("area", "2*sh_d+sh_h-down"),
           _each_path_stats(lambda p, r: (r.area, 2 * r.sh_d + r.sh_h - r.down))),
    _Check("area-up-identity", "paths", 12, ("area", "2*sh_u+sh_h+up"),
           _each_path_stats(lambda p, r: (r.area, 2 * r.sh_u + r.sh_h + r.up))),
    _Check("height-sum-difference", "paths", 12, ("sh_u", "sh_d-down"),
           _each_path_stats(lambda p, r: (r.sh_u, r.sh_d - r.down))),
    _Check("strip-roundtrip", "paths", 10, ("rebuilt", "path"),
           _each_path(lambda p: (
               path_from_head_tail(strip_decomposition(p), len(p)), p))),
    _Check("matchings-perfect", "paths", 10,
           ("(pairs, ends, opens first)", "(up, 2*up, True)"),
           _each_path_stats(_matching_sides)),
    _Check("path-count-recurrence", "paths", 12, ("paths", "recurrence"),
           _each_size(lambda n: (
               sum(1 for _ in enumerate_paths(n)), motzkin_number(n)))),
    _Check("phi1-transport", "bijections", 10, _PHI12_LABELS,
           _each_path_stats(lambda p, r: (
               _fp_exc_crs_nes_inv(phi1(p))[:4], _phi1_predicts(r)))),
    _Check("phi2-transport", "bijections", 10, _PHI12_LABELS,
           _each_path_stats(lambda p, r: (
               _fp_exc_crs_nes_inv(phi2(p))[:4], _phi2_predicts(r)))),
    _Check("phi3-transport", "bijections", 10,
           ("image (exc, crs, inv)", "path (up, sh_u+sh_h, area-sh_u)"),
           _each_path_stats(_phi3_sides)),
    _Check("phi-bijectivity", "bijections", 9, ("sorted image", "class member"),
           _phi_bijectivity),
    _Check("phi-roundtrips", "bijections", 10,
           ("(shape of phi1, shape of phi2, phi3_inverse of phi3)", "path"),
           _each_path(lambda p: (
               (involution_shape_path(phi1(p)), involution_shape_path(phi2(p)),
                phi3_inverse(phi3(p))),
               (p, p, p)))),
    _Check("qmotzkin-at-one", "qpoly", 30, ("(M(1), Mtilde(1))", "Motzkin"),
           _each_size(lambda n: (
               (q_motzkin(n).evaluate(1), q_motzkin_tilde(n).evaluate(1)),
               (motzkin_number(n),) * 2), q_motzkin, q_motzkin_tilde)),
    _Check("tableau-recursion", "qpoly", 25, ("tableau", "closed form"),
           _tableau_recursion),
    _Check("tableau-first-column", "qpoly", 30, ("column", "recurrence"),
           _tableau_first_column),
    _Check("tableau-row-pair", "qpoly", 30, ("H(n,0)", "H(n-1,0)+H(n-1,1)"),
           _tableau_row_pair),
    _Check("dumont-expansion", "qpoly", 20, ("series", "recurrence"), _dumont),
    _Check("a-series-recurrence", "qpoly", 20, ("recurrence", "fraction"),
           _a_series),
    _Check("mtilde-functional-equation", "qpoly", 20, ("lhs", "rhs"),
           _mtilde_equation),
    _Check("main12-identity", "qpoly", 40, ("lhs", "rhs"),
           _series_terms(lambda cap: (
               named_series("main12-lhs", cap), named_series("main12-rhs", cap)))),
    _Check("i-abcd-vs-paths", "qpoly", 10, ("paths", "fraction"),
           _versus_series("I-abcd", lambda n: _abcd_tally(n))),
    _Check("dist-4321-crs-nes", "distributions", 10, ("enumeration", "polynomial"),
           _each_size(lambda n: (
               _enumerated(PermClass.I4321, n, StatSpec.CRS_PLUS_NES), q_motzkin(n)),
               q_motzkin)),
    _Check("dist-3412-nes", "distributions", 10, ("enumeration", "polynomial"),
           _each_size(lambda n: (
               _enumerated(PermClass.I3412, n, StatSpec.NES), q_motzkin(n)),
               q_motzkin)),
    _Check("dist-321-crs", "distributions", 9, ("enumeration", "polynomial"),
           _dist_321),
    _Check("dist-4321-joint-fraction", "distributions", 9, ("enumeration", "fraction"),
           _versus_series("I4321-joint", lambda n: _enumerated(
               PermClass.I4321, n, StatSpec.JOINT_FP_EXC_CRS_NES))),
    _Check("dist-3412-joint-fraction", "distributions", 9, ("enumeration", "fraction"),
           _versus_series("I3412-joint", lambda n: _enumerated(
               PermClass.I3412, n, StatSpec.JOINT_FP_EXC_CRS_NES))),
    _Check("dist-321-joint-fraction", "distributions", 9, ("enumeration", "fraction"),
           _versus_series("S321-exc-crs", lambda n: _enumerated(
               PermClass.S321_B3142, n, StatSpec.JOINT_EXC_CRS))),
    _Check("dist-path-transport", "distributions", 9, ("paths", "enumeration"),
           _dist_transport),
)


# The CLI lists suites in this order: "all", then as they first appear in
# _CHECKS.
SUITES: tuple[str, ...] = ("all", *dict.fromkeys(c.suite for c in _CHECKS))


def _where_text(where: object) -> str:
    if isinstance(where, tuple):
        return f"n={len(where)} word={one_line(where)}"
    if isinstance(where, int):
        return f"n={where}"
    return str(where)


def run_suite(suite: str, max_n: int) -> VerificationReport:
    """Run every check of a suite up to min(its bound, max_n).

    >>> run_suite("paths", 0).passed
    True
    """
    if suite not in SUITES:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {suite!r} (known: {known})")
    _check_size(max_n, "max_n")
    selected = [c for c in _CHECKS if suite in ("all", c.suite)]
    # Largest cap first: each family is built once, by a row that needs it.
    selected.sort(key=lambda c: (-min(c.bound, max_n), c.name))
    results = []
    suite_start = time.perf_counter()
    for check in selected:
        cap = min(check.bound, max_n)
        counterexample = None
        objects = 0
        where: object = None
        start = time.perf_counter()
        try:
            for where, lhs, rhs in check.cases(cap):
                objects += 1
                if lhs != rhs:
                    left, right = check.labels
                    counterexample = (
                        f"{_where_text(where)}: {left}={lhs}, {right}={rhs}"
                    )
                    break
        except Exception as exc:  # a raising check fails; the suite goes on
            if isinstance(exc, _RaisedAt):
                place, exc = f"at {_where_text(exc.where)}", exc.__cause__
            elif where is None:
                place = "before the first case"
            else:
                place = f"after {_where_text(where)}"
            counterexample = f"{place}: raised {type(exc).__name__}: {exc}"
        elapsed = int((time.perf_counter() - start) * 1000)
        results.append(
            CheckResult(
                name=check.name,
                bounds=f"n≤{cap}",
                passed=counterexample is None and objects > 0,
                counterexample=counterexample,
                elapsed_ms=elapsed,
                objects=objects,
            )
        )
    total = int((time.perf_counter() - suite_start) * 1000)
    results.sort(key=lambda r: r.name)
    return VerificationReport(
        suite=suite, max_n=max_n, checks=tuple(results), elapsed_ms=total
    )
