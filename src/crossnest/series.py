"""Truncated power series in t and their continued-fraction expansions.

A ``PowerSeries`` of order N keeps coefficients of t^0 .. t^N; every
coefficient is a ``MultiPoly`` over one fixed variable tuple.  A
``FractionSpec`` describes a continued fraction in one of two shapes:

* ``jfraction``: 1 / (1 - a_1 t - b_1 t^2 / (1 - a_2 t - b_2 t^2 / ...))
  with level coefficients a_k, b_k for k >= 1.
* ``nested``:    1 / (1 - c_1 / (1 - c_2 / ...)) where each c_k is
  L_k t + Q_k t^2 and either part may vanish.

``jfraction_series`` expands a spec to a given order.  A j-fraction's t^n
coefficient is the weighted count of Motzkin paths of length n (Flajolet,
1980), which is column 0 of the Stieltjes tableau with alpha = a and
beta = b, so j-fractions are read off the tableau's rows; row n only keeps
the heights <= N - n from which a path can still return to 0 by t^N.  A
given ``depth`` truncates the fraction: levels past it count as zero.  The
nested shape is expanded level by level from the deepest level up; its
default depth is just past the last level that can influence the result,
from the minimum t-degree of each c_k.  Passing a larger depth must not
change the output of either shape, and tests pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Sequence

from .polynomials import MultiPoly, UniPoly
from .qmotzkin import _tableau_rows, q_motzkin, q_motzkin_tilde

Level = Callable[[int], MultiPoly]


class PowerSeries:
    """Power series in t truncated at a fixed order."""

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Sequence[MultiPoly]):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        variables = tuple(variables)
        for c in coeffs:
            if c.variables != variables:
                raise ValueError("coefficient variables do not match series")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def one(cls, variables: Sequence[str], order: int) -> "PowerSeries":
        variables = tuple(variables)
        one = MultiPoly.one(variables)
        zero = MultiPoly.zero(variables)
        return cls(variables, [one] + [zero] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> MultiPoly:
        if not 0 <= n <= self.order:
            raise ValueError(f"order {self.order} series has no t^{n} term")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.variables, self.coeffs[: order + 1])

    def _align(self, other: "PowerSeries") -> tuple[int, "PowerSeries", "PowerSeries"]:
        if self.variables != other.variables:
            raise ValueError("series variables do not match")
        n = min(self.order, other.order)
        return n, self.truncate(n), other.truncate(n)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        _, a, b = self._align(other)
        return PowerSeries(
            self.variables, [x + y for x, y in zip(a.coeffs, b.coeffs)]
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        _, a, b = self._align(other)
        return PowerSeries(
            self.variables, [x - y for x, y in zip(a.coeffs, b.coeffs)]
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n, a, b = self._align(other)
        out = [MultiPoly.zero(self.variables) for _ in range(n + 1)]
        for i, x in enumerate(a.coeffs):
            if x.is_zero():
                continue
            for j in range(n + 1 - i):
                y = b.coeffs[j]
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return PowerSeries(self.variables, out)

    def scale(self, factor: "MultiPoly | int") -> "PowerSeries":
        return PowerSeries(self.variables, [c * factor for c in self.coeffs])

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by t^k, keeping the order (high terms fall off)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        zero = MultiPoly.zero(self.variables)
        coeffs = ([zero] * k + list(self.coeffs))[: self.order + 1]
        return PowerSeries(self.variables, coeffs)

    def scale_argument(self, mono: MultiPoly) -> "PowerSeries":
        """Substitute t -> mono * t, i.e. multiply coefficient n by mono^n."""
        out = []
        power = MultiPoly.one(self.variables)
        for c in self.coeffs:
            out.append(c * power)
            power = power * mono
        return PowerSeries(self.variables, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PowerSeries)
            and self.variables == other.variables
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.coeffs))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "vars": list(self.variables),
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"PowerSeries(order={self.order}, [{head}{tail}])"


@dataclass(frozen=True)
class FractionSpec:
    """Continued fraction description; see the module docstring."""

    kind: str
    variables: tuple[str, ...]
    alpha: Level | None = None
    beta: Level | None = None
    linear: Level | None = None
    quadratic: Level | None = None

    @classmethod
    def jfraction(
        cls, variables: Sequence[str], alpha: Level, beta: Level
    ) -> "FractionSpec":
        return cls("jfraction", tuple(variables), alpha=alpha, beta=beta)

    @classmethod
    def nested(
        cls, variables: Sequence[str], linear: Level, quadratic: Level
    ) -> "FractionSpec":
        return cls(
            "nested", tuple(variables), linear=linear, quadratic=quadratic
        )


def _level_nested(
    lin: MultiPoly, quad: MultiPoly, inner: Sequence[MultiPoly], order: int
) -> list[MultiPoly]:
    """Coefficients of 1 / (1 - (lin t + quad t^2) G) with G from ``inner``."""
    variables = lin.variables
    out = [MultiPoly.one(variables)]
    # conv[j] is the t^j coefficient of G * out, needed at j = m-1 and m-2.
    conv: list[MultiPoly] = []
    for m in range(1, order + 1):
        s = MultiPoly.zero(variables)
        for r in range(min(m, len(inner))):
            g = inner[r]
            if not g.is_zero():
                s = s + g * out[m - 1 - r]
        conv.append(s)
        term = lin * s
        if m >= 2:
            term = term + quad * conv[m - 2]
        out.append(term)
    return out


def _nested_min_degrees(spec: FractionSpec, depth: int) -> list[int]:
    """Minimum t-degree contributed by each nested level 1..depth."""
    assert spec.linear is not None and spec.quadratic is not None
    degs = []
    for k in range(1, depth + 1):
        if not spec.linear(k).is_zero():
            degs.append(1)
        elif not spec.quadratic(k).is_zero():
            degs.append(2)
        else:
            # A vanishing level truncates the fraction; anything deeper
            # cannot matter, which an infinite minimum degree encodes.
            degs.append(10**9)
    return degs


def jfraction_series(
    spec: FractionSpec, order: int, depth: int | None = None
) -> PowerSeries:
    """Expand a continued fraction to a truncated power series.

    A j-fraction is read off the first column of its Stieltjes tableau; a
    nested fraction is expanded level by level, each level only to the
    order still visible from the top.  Levels past ``depth`` count as zero.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    variables = spec.variables
    if depth is not None and depth < 0:
        raise ValueError("depth must be nonnegative")
    if spec.kind == "jfraction":
        if spec.alpha is None or spec.beta is None:
            raise ValueError("j-fraction spec needs alpha and beta")
        alpha = spec.alpha
        if depth is not None:
            # Heights stay <= depth, so alpha(depth + 1) is the only level
            # past the depth that the tableau consults.
            alpha = lambda k: spec.alpha(k) if k <= depth else 0
        cut = order if depth is None else depth
        one = MultiPoly.one(variables)
        rows = _tableau_rows(alpha, spec.beta, [one], top=lambda n: min(order - n, cut))
        return PowerSeries(variables, [one] + [row[0] for row in islice(rows, order)])
    if spec.kind == "nested":
        if spec.linear is None or spec.quadratic is None:
            raise ValueError("nested spec needs linear and quadratic parts")
        probe = depth if depth is not None else order + 1
        degs = _nested_min_degrees(spec, probe)
        if depth is None:
            depth, consumed = 0, 0
            while consumed <= order and depth < len(degs):
                consumed += degs[depth]
                depth += 1
        prefix = [0]
        for d in degs:
            prefix.append(prefix[-1] + d)
        cur = [MultiPoly.one(variables)]
        for k in range(depth, 0, -1):
            target = max(0, order - prefix[k - 1])
            cur = _level_nested(spec.linear(k), spec.quadratic(k), cur, target)
        return PowerSeries(variables, _pad(cur, order, variables))
    raise ValueError(f"unknown fraction kind: {spec.kind!r}")


def _pad(
    coeffs: list[MultiPoly], order: int, variables: tuple[str, ...]
) -> list[MultiPoly]:
    zero = MultiPoly.zero(variables)
    out = list(coeffs[: order + 1])
    while len(out) <= order:
        out.append(zero)
    return out


# The j-fraction presets, one row each: variables, then the exponents of
# alpha(k) and of beta(k) as {variable: (base, slope)}, meaning
# variable^(base + slope * (k - 1)) at level k.
_J_PRESETS: dict[str, tuple[tuple[str, ...], dict, dict]] = {
    "motzkin": (("q",), {}, {}),
    "I-abcd": (("a", "b", "c", "d"),
               {"a": (1, 0), "d": (0, 1)}, {"b": (1, 0), "c": (0, 1)}),
    "I4321-joint": (("x", "y", "p", "q"),
                    {"x": (1, 0), "q": (0, 1)}, {"y": (1, 0), "p": (0, 2)}),
    "I3412-joint": (("x", "y", "p", "q"),
                    {"x": (1, 0), "q": (0, 1)}, {"y": (1, 0), "q": (0, 2)}),
    "A": (("q",), {"q": (0, 1)}, {"q": (0, 2)}),
    "S321-exc-crs": (("y", "q"), {"q": (0, 1)}, {"y": (1, 0), "q": (0, 1)}),
    "main12-rhs": (("q",), {"q": (0, 1)}, {"q": (0, 1)}),
}


def _j_spec(variables: tuple[str, ...], alpha: dict, beta: dict) -> FractionSpec:
    def level(exps: dict) -> Level:
        return lambda k: MultiPoly.monomial(
            variables, {v: base + slope * (k - 1) for v, (base, slope) in exps.items()}
        )

    return FractionSpec.jfraction(variables, level(alpha), level(beta))


def _preset_main12_lhs(order: int) -> PowerSeries:
    v = ("q",)

    def linear(k: int) -> MultiPoly:
        if k == 1:
            return MultiPoly.one(v)
        if k % 2 == 0:
            return MultiPoly.zero(v)
        j = (k - 1) // 2
        return MultiPoly.monomial(v, {"q": j})

    def quadratic(k: int) -> MultiPoly:
        if k == 1:
            return MultiPoly.one(v)
        if k % 2 == 0:
            j = k // 2
            return MultiPoly.monomial(v, {"q": 2 * j - 1})
        j = (k - 1) // 2
        return MultiPoly.monomial(v, {"q": 2 * j})

    spec = FractionSpec.nested(v, linear, quadratic)
    return jfraction_series(spec, order)


def _series_from_unipolys(polys: list[UniPoly]) -> PowerSeries:
    v = ("q",)
    return PowerSeries(v, [MultiPoly.from_unipoly(p, v, "q") for p in polys])


def _preset_m(order: int) -> PowerSeries:
    return _series_from_unipolys([q_motzkin(n) for n in range(order + 1)])


def _preset_mtilde(order: int) -> PowerSeries:
    return _series_from_unipolys([q_motzkin_tilde(n) for n in range(order + 1)])


# Builders for series with a fixed combinatorial meaning; the verification
# suite checks each against brute-force enumeration.
#   motzkin       plain Motzkin numbers (all fraction coefficients 1)
#   I-abcd        joint (hor, up, sh_u, sh_h) over Motzkin paths:
#                 a^hor b^up c^sh_u d^sh_h summed over paths of each length
#   I4321-joint   joint (fp, exc, crs, nes) over 4321-avoiding involutions
#   I3412-joint   joint (fp, exc, crs, nes) over 3412-avoiding involutions
#   A             crs+nes over 4321-avoiding involutions (q-Motzkin, first kind)
#   S321-exc-crs  joint (exc, crs) over 321-avoiding permutations that also
#                 avoid the barred pattern
#   M, Mtilde     the two q-Motzkin families from their recurrences
#   main12-lhs    nested-fraction form of the Mtilde generating series
#   main12-rhs    j-fraction form of the same series
PRESETS: dict[str, Callable[[int], PowerSeries]] = {
    **{name: partial(jfraction_series, _j_spec(*row))
       for name, row in _J_PRESETS.items()},
    "M": _preset_m,
    "Mtilde": _preset_mtilde,
    "main12-lhs": _preset_main12_lhs,
}


def named_series(name: str, order: int) -> PowerSeries:
    """Build one of the preset series; see ``PRESETS`` for the catalogue."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown series preset {name!r} (known: {known})")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return PRESETS[name](order)
