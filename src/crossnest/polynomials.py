"""Exact integer polynomials.

Two representations are used throughout the package:

* ``UniPoly``, a dense polynomial in the single variable ``q`` with integer
  coefficients, stored as a tuple of coefficients in ascending degree with
  no trailing zeros.
* ``MultiPoly``, a sparse polynomial in a fixed ordered tuple of variables,
  stored as a dict from packed exponent keys to nonzero integer
  coefficients.

Each type has one product: ``UniPoly`` multiplies dense coefficient lists
with ``_convolve``, which packs nonnegative operands into big integers, and
``MultiPoly`` multiplies term by term for any number of variables, one
included.

Both share one value protocol, the private base ``_Poly``: a value is
immutable, false exactly when zero, and adds, subtracts and multiplies, on
either side, only a plain int or its own type; any other operand, a bool
included, raises ``TypeError``, so arithmetic cannot store the bool
coefficient that the constructors refuse.  This leaf module also holds
``_check_size``, the package's one guard on sizes, orders and bounds, which
every layer imports.

The public constructors (``UniPoly(...)``, ``MultiPoly(...)``,
``MultiPoly.constant``, ``.monomial`` and ``.from_terms``) refuse a
coefficient that is not a plain int, a bool or a float included, with
``ValueError``.  Results the package builds from ints it already holds,
the arithmetic and the packed tableaux read back, go through the trusted
constructors ``UniPoly._trusted``, ``MultiPoly._trusted`` and
``MultiPoly._nonzero``, which check nothing.

Both render to a canonical text form: terms ascending by total exponent
(ties broken by the exponent tuple), a coefficient of 1 and an exponent of
1 are suppressed, and the zero polynomial renders as ``"0"``.  Each type
writes its own monomials' text, and ``_join_terms`` joins the pairs of
coefficient and monomial text with their signs.

>>> str(UniPoly((5, 3, 1)))
'5 + 3*q + q^2'
>>> str(UniPoly(()))
'0'
"""

from __future__ import annotations

import sys
from itertools import compress, count, starmap
from operator import lshift
from typing import Callable, Collection, Iterable, Mapping, Sequence

# Exponents are packed into a single int key, _EXP_BITS bits per variable.
# Keys of same-shape monomials add under multiplication with no carries as
# long as every exponent stays below 2**_EXP_BITS, which is far beyond any
# degree reached here; _pack checks the bound anyway.
_EXP_BITS = 21
_EXP_MASK = (1 << _EXP_BITS) - 1

# Products of dense coefficient lists switch to single-bigint packing above
# this size*size threshold; below it schoolbook wins on constant factors.
_PACK_CUTOFF = 256


def _check_size(n: int, name: str = "n") -> None:
    """Raise ValueError("<name> must be nonnegative") unless n is a size.

    The package's one test of sizes, orders and bounds: a size is a
    nonnegative plain int, never a bool or a float.  ``name`` only words
    the message.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} must be nonnegative")


def _check_coeffs(coeffs: Iterable[object]) -> None:
    """Raise ValueError unless every coefficient is a plain int, never a
    bool or a float."""
    for c in coeffs:
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an int")


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two dense coefficient lists (ascending degree).

    When both operands are nonnegative the product is computed by packing
    each list into one big integer, fixed-width slots in little-endian
    order, and multiplying once.  Slot width is ``_slot_bytes`` of the bound
    max(a)*max(b)*min(len(a),len(b)) on any output coefficient, so slots
    cannot overflow into their neighbours and the result is exact.  Mixed
    signs fall back to the schoolbook loop.  Low-order zeros are stripped
    and put back as a shift, and a factor that is then one coefficient
    scales the other list, so a monomial factor c*q^k costs no packing.
    """
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if not (a[0] and b[0]):
        za = next((i for i, x in enumerate(a) if x), la)
        zb = next((j for j, y in enumerate(b) if y), lb)
        if za == la or zb == lb:
            return [0] * (la + lb - 1)
        return [0] * (za + zb) + _convolve(a[za:], b[zb:])
    if la == 1 or lb == 1:
        x, rest = (a[0], b) if la == 1 else (b[0], a)
        return [x * y for y in rest]
    if la * lb <= _PACK_CUTOFF or min(a) < 0 or min(b) < 0:
        out = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    slot = _slot_bytes(max(a) * max(b) * min(la, lb))
    product = _pack_slots(a, slot) * _pack_slots(b, slot)
    return _unpack_slots(product, slot, la + lb - 1)


def _pack_slots(coeffs: Iterable[int], slot: int) -> int:
    """Pack nonnegative coefficients into one integer, ``slot`` bytes each,
    lowest degree in the lowest bytes; each must be below 2**(8*slot)."""
    return int.from_bytes(
        b"".join(c.to_bytes(slot, "little") for c in coeffs), "little"
    )


# Slot widths that a memoryview reads as native unsigned ints in one call,
# on a little-endian host; a multiple of 8 bytes is read as 64-bit limbs,
# and other widths slot by slot.
_NATIVE_SLOTS = (
    {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}
    if sys.byteorder == "little"
    else {}
)


def _unpack_slots(packed: int, slot: int, count: int) -> list[int]:
    """The first ``count`` slots of a nonnegative packed integer.

    Slots of 1, 2, 4 or 8 bytes come out of one ``memoryview`` cast.  A
    wider slot of a multiple of 8 bytes is read from the same cast to 64-bit
    limbs: the lowest limbs in one strided slice, then each higher limb ORed
    in only where ``compress`` finds it nonzero, with no Python step for the
    slots it skips.  Any other width, and every width on a host without
    native slots, is read slot by slot with ``int.from_bytes``.
    """
    raw = packed.to_bytes(slot * count, "little")
    if slot in _NATIVE_SLOTS:
        return memoryview(raw).cast(_NATIVE_SLOTS[slot]).tolist()
    if slot % 8 == 0 and 8 in _NATIVE_SLOTS:
        limbs, width = memoryview(raw).cast(_NATIVE_SLOTS[8]), slot // 8
        out = limbs[::width].tolist()
        for j in range(1, width):
            high = limbs[j::width]
            for k in compress(range(count), high):
                out[k] |= high[k] << 64 * j
        return out
    return [
        int.from_bytes(raw[k : k + slot], "little")
        for k in range(0, slot * count, slot)
    ]


def _slot_bytes(top: int) -> int:
    """Bytes per slot for nonnegative coefficients at most ``top``, with a
    bit to spare: 1, 2, 4 or 8, else a multiple of 8, the widths that
    ``_unpack_slots`` reads in bulk."""
    slot = (top.bit_length() + 8) // 8
    return 1 << (slot - 1).bit_length() if slot <= 8 else -(-slot // 8) * 8


def _slot_coeffs(packed: int, slot: int) -> list[int]:
    """Every coefficient of a nonnegative packed int, ``slot`` bytes each,
    lowest first, up to its highest nonzero slot."""
    return _unpack_slots(packed, slot, -(-packed.bit_length() // (8 * slot)))


def _join_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Join nonzero (coefficient, monomial text) terms, ``""`` the constant
    monomial; a unit coefficient shows only its sign."""
    pieces: list[str] = []
    for c, mono in terms:
        pieces.append(" - " if c < 0 else " + ")
        c = abs(c)
        pieces.append(f"{c}*{mono}" if c != 1 and mono else mono or str(c))
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


class _Poly:
    """The value protocol of both polynomial types: immutable, arithmetic
    only with a plain int or the same type, and false exactly when zero."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other: object) -> "_Poly":
        if type(other) is not int and not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "_Poly":
        if type(other) is not int:
            return NotImplemented
        return -self + other

    def __bool__(self) -> bool:
        return not self.is_zero()


def _trim_zeros(cs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(cs)
    while end and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


class UniPoly(_Poly):
    """Dense integer polynomial in ``q``.

    >>> p = UniPoly((1, 2)) * UniPoly((0, 1))
    >>> str(p)
    'q + 2*q^2'
    >>> p.evaluate(1)
    3
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        _check_coeffs(cs)
        object.__setattr__(self, "coeffs", _trim_zeros(cs))

    @classmethod
    def _trusted(cls, coeffs: Iterable[int]) -> "UniPoly":
        """The polynomial of ``coeffs``, which the caller knows to be ints:
        trailing zeros dropped, no check."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trim_zeros(tuple(coeffs)))
        return poly

    @classmethod
    def q_power(cls, k: int) -> "UniPoly":
        _check_size(k, "exponent")
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        if type(k) is not int:
            raise ValueError(f"exponent {k} out of range")
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def times_q_power(self, k: int) -> "UniPoly":
        _check_size(k, "exponent")
        if not self.coeffs:
            return self
        return UniPoly._trusted((0,) * k + self.coeffs)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "UniPoly | int") -> "UniPoly":
        if type(other) is int:
            other = UniPoly._trusted((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._trusted(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        if type(other) is int:
            return UniPoly._trusted(other * c for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly._trusted(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return _join_terms((c, f"q^{e}" if e > 1 else "q" if e else "")
                           for e, c in enumerate(self.coeffs) if c)

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"


UNI_ZERO = UniPoly(())
UNI_ONE = UniPoly((1,))


def _pack(exps: Sequence[int]) -> int:
    key = 0
    for i, e in enumerate(exps):
        if type(e) is not int or not 0 <= e <= _EXP_MASK:
            raise ValueError(f"exponent {e} out of range")
        key |= e << (_EXP_BITS * i)
    return key


def _unpack(keys: Collection[int], nvars: int) -> list[tuple[int, ...]]:
    """The exponent tuples of packed keys, unpacked one variable at a time
    (with no variables, one empty tuple per key)."""
    shifts = range(0, _EXP_BITS * nvars, _EXP_BITS)
    columns = [[k >> s & _EXP_MASK for k in keys] for s in shifts]
    return list(zip(*columns)) or [()] * len(keys)


def _exponent_spread(polys: Iterable["MultiPoly"], nvars: int) -> list[int]:
    """The number of distinct exponents of each of the first ``nvars``
    variables over the terms of ``polys``: their keys are gathered once,
    and each distinct key is read once per variable."""
    keys = set().union(*(p._terms for p in polys))
    return [len({k >> s & _EXP_MASK for k in keys})
            for s in range(0, _EXP_BITS * nvars, _EXP_BITS)]


class MultiPoly(_Poly):
    """Sparse integer polynomial in a fixed ordered tuple of variables.

    >>> x = MultiPoly.variable(("x", "y"), "x")
    >>> y = MultiPoly.variable(("x", "y"), "y")
    >>> str(x * x + 2 * y)
    '2*y + x^2'
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[int, int] | None = None):
        terms = terms or {}
        _check_coeffs(terms.values())
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "_terms", {k: c for k, c in terms.items() if c})

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], terms: Mapping[int, int]
    ) -> "MultiPoly":
        """The polynomial of ``terms``, whose coefficients the caller knows
        to be ints: zeros dropped, no check."""
        return cls._nonzero(variables, {k: c for k, c in terms.items() if c})

    @classmethod
    def _nonzero(
        cls, variables: tuple[str, ...], terms: dict[int, int]
    ) -> "MultiPoly":
        """The polynomial that owns ``terms``, whose coefficients the caller
        knows to be nonzero: no check and no copy."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "_terms", terms)
        return poly

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], c: int) -> "MultiPoly":
        return cls(variables, {0: c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        return cls.monomial(variables, {name: 1})

    @classmethod
    def monomial(
        cls,
        variables: Sequence[str],
        exps: Mapping[str, int],
        coeff: int = 1,
    ) -> "MultiPoly":
        variables = tuple(variables)
        unknown = set(exps) - set(variables)
        if unknown:
            raise ValueError(f"unknown variables: {sorted(unknown)}")
        vec = [exps.get(v, 0) for v in variables]
        return cls(variables, {_pack(vec): coeff})

    @classmethod
    def from_terms(
        cls,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], int],
    ) -> "MultiPoly":
        variables = tuple(variables)
        _check_coeffs(terms.values())
        data: dict[int, int] = {}
        for exps, c in terms.items():
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length does not match variables")
            key = _pack(exps)
            data[key] = data.get(key, 0) + c
        return cls._trusted(variables, data)

    @classmethod
    def from_unipoly(
        cls, p: UniPoly, variables: Sequence[str], var: str = "q"
    ) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(var)
        return cls._nonzero(
            variables,
            {e << (_EXP_BITS * i): c for e, c in enumerate(p.coeffs) if c},
        )

    @classmethod
    def _from_slots(cls, variables: tuple[str, ...], i: int, entries: Iterable,
                    slot: int, low: int, fields: tuple = ()) -> "MultiPoly":
        """The sum over (key, packed) in ``entries`` of key (as from ``_along``)
        times the slots of packed as the powers low, low + 1, ... of variable
        i; zero slots are skipped as read.

        Given ``fields = (width, units)``, a key instead packs one field of
        ``width`` bits per exponent tuple in ``units``, the first lowest, and
        stands for the product of each unit's monomial to the power of its
        field; it is widened here, once per key.  A unit may lower variable
        i, which starts that key's run of slots below ``low``, as long as
        every nonzero slot lands on a nonnegative exponent.
        """
        step = 1 << _EXP_BITS * i
        width, units = fields or (0, ())
        mask = (1 << width) - 1
        wide = [(width * f, sum(map(lshift, unit, count(0, _EXP_BITS))))
                for f, unit in enumerate(units)]
        terms: dict[int, int] = {}
        for key, packed in entries:
            if wide:
                narrow, key = key, 0
                for shift, unit in wide:
                    key += (narrow >> shift & mask) * unit
            coeffs = _slot_coeffs(packed, slot)
            terms.update(compress(zip(count(key + low * step, step), coeffs), coeffs))
        return cls._nonzero(variables, terms)

    def _along(self, i: int) -> list[tuple[int, int, int]]:
        """The terms as (key of the other variables, exponent of variable i,
        coefficient); the keys add as the monomials multiply."""
        shift = _EXP_BITS * i
        others = ~(_EXP_MASK << shift)
        return [(k & others, k >> shift & _EXP_MASK, c) for k, c in self._terms.items()]

    def _image(self, variables: tuple[str, ...], exponents: Callable) -> "MultiPoly":
        """The polynomial over ``variables`` that has, for each term with
        exponent tuple e, its coefficient at the exponent tuple
        ``exponents(*e)``, the coefficients of equal images summed.  The
        caller keeps every image exponent in range, unchecked; each distinct
        image is packed in C, by one ``sum(map(lshift, ...))``."""
        shifts = range(0, _EXP_BITS * len(variables), _EXP_BITS)
        images = starmap(exponents, _unpack(self._terms, len(self.variables)))
        merged: dict[tuple[int, ...], int] = {}
        for exps, c in zip(images, self._terms.values()):
            merged[exps] = merged.get(exps, 0) + c
        return MultiPoly._trusted(
            variables, {sum(map(lshift, e, shifts)): c for e, c in merged.items()}
        )

    def is_zero(self) -> bool:
        return not self._terms

    def terms_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponent tuple, coefficient), canonical order."""
        exps = _unpack(self._terms, len(self.variables))
        rows = sorted(zip(map(sum, exps), exps, self._terms.values()))
        return [(e, c) for _, e, c in rows]

    def coefficient(self, exps: Mapping[str, int]) -> int:
        unknown = set(exps) - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables: {sorted(unknown)}")
        vec = [exps.get(v, 0) for v in self.variables]
        return self._terms.get(_pack(vec), 0)

    def _check_same(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _coerce(self, other: "MultiPoly | int") -> "MultiPoly | None":
        if type(other) is int:
            return MultiPoly._trusted(self.variables, {0: other})
        if isinstance(other, MultiPoly):
            self._check_same(other)
            return other
        return None

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        data = dict(self._terms)
        for k, c in rhs._terms.items():
            data[k] = data.get(k, 0) + c
        return MultiPoly._trusted(self.variables, data)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._nonzero(
            self.variables, {k: -c for k, c in self._terms.items()}
        )

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if type(other) is int:
            return MultiPoly._trusted(
                self.variables, {k: other * c for k, c in self._terms.items()}
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        data: dict[int, int] = {}
        for ka, ca in self._terms.items():
            for kb, cb in rhs._terms.items():
                k = ka + kb
                data[k] = data.get(k, 0) + ca * cb
        return MultiPoly._trusted(self.variables, data)

    __rmul__ = __mul__

    def evaluate(self, assignments: Mapping[str, int]) -> int:
        """Evaluate with every variable assigned an integer."""
        missing = set(self.variables) - set(assignments)
        if missing:
            raise ValueError(f"missing assignments for: {sorted(missing)}")
        total = 0
        terms = zip(_unpack(self._terms, len(self.variables)), self._terms.values())
        for exps, c in terms:
            for v, e in zip(self.variables, exps):
                if e:
                    c *= assignments[v] ** e
            total += c
        return total

    def as_unipoly(self, var: str = "q") -> UniPoly:
        """Project onto one variable; the others must not occur."""
        terms = self._along(self.variables.index(var))
        if any(key for key, _, _ in terms):
            raise ValueError(f"polynomial involves more than {var!r}")
        out = [0] * (max((e for _, e, _ in terms), default=-1) + 1)
        for _, e, c in terms:
            out[e] = c
        return UniPoly._trusted(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self._terms.items()))))

    def __str__(self) -> str:
        return _join_terms(
            (c, "*".join([f"{v}^{e}" if e > 1 else v
                          for v, e in zip(self.variables, exps) if e]))
            for exps, c in self.terms_sorted()
        )

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {str(self)!r})"
