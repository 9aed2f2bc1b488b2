"""Exact arithmetic in a truncated two-chart overlap ring.

The total space of O(-k) over P^1 carries two affine charts, (z, u) and
(xi, v) = (z^-1, z^k u).  Functions on the overlap of the order-(m-1)
neighborhood of the zero section are finitely supported sums

    sum  c_{l,i} * z^l * u^i,      0 <= i <= m-1,  u^m = 0,

with exact rational coefficients.  A monomial z^l u^i is regular on the
first chart iff l >= 0 and on the second chart iff l <= k*i (because
z^l u^i = xi^(k*i - l) v^i).  Everything in this module is immutable and
pure; all arithmetic is exact over the rationals.  The nine value
classes of the package (``RingParams`` and ``RingElem`` here,
``ModuliParams``, ``ExtClass`` and ``Mat2`` in ``extensions``,
``TwistedSection`` in ``sections``, ``GroupElem`` and ``CocyclePair`` in
``groupoid`` and ``HomProfile`` in ``homspaces``) share one base,
``_Frozen``: their fields are set once and never reassigned or deleted,
two values are equal when their types and fields are, their hashes are
those of their fields, and copies and pickles go back through the
constructor (for ``RingElem``, through its integer form).

Coefficients are stored in one integer form: a common denominator
den, the lcm of the coefficient denominators, and the integer numerators
den*coeff of the nonzero terms, with gcd(den, *numerators) == 1.  Every
operation works on that form in integers, and every operation that
produces new numerators (a product, a sum, a scaling, a projection)
ends in ``_normal``, which divides out their common factor by one
multi-argument gcd.  ``_form`` only wraps numerators that are canonical
already: the constructors, zero results, negation, shifts and unpickling.
Fractions are built only when a caller reads ``terms``, ``coeff`` or
``canonical_terms``, and are built anew on each read: the integer form
is the only copy kept.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; signals an implementation defect."""


_EXACT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _as_fraction(c) -> Fraction:
    """An exact rational from a Fraction, an int or an 'n' or 'n/d' string.

    Booleans, floats and other strings (exponents, decimals, spaces) are
    rejected, so JSON input stays exact, is never echoed back in another
    type, and a short string cannot stand for a huge number.
    """
    if isinstance(c, Fraction):
        return c
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, str):
        if not _EXACT_STRING.fullmatch(c):
            raise ValueError(f"coefficient string must be 'n' or 'n/d', got {c[:40]!r}")
        try:
            return Fraction(c)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {c!r}") from exc
    raise ValueError(f"coefficient must be an exact rational, got {type(c).__name__}")


class _Frozen:
    """Base of the nine value classes: fields set once, compared field by field.

    The classes are ``RingParams``, ``RingElem``, ``ModuliParams``,
    ``ExtClass``, ``Mat2``, ``TwistedSection``, ``GroupElem``,
    ``CocyclePair`` and ``HomProfile``.  ``__init__`` sets each slot
    once, in ``__slots__`` order, through the ``__set__`` of its
    descriptor (``__init_subclass__`` stores them in ``_setters``);
    setting or deleting an attribute afterwards raises.  Two values are
    equal when their types and all their fields are, and a value hashes
    as the tuple of its fields: so a value holding a ``RingElem``, which
    defines its own ``__eq__`` and is unhashable, is unhashable too.
    Copies and pickles call the constructor on the fields, so they are
    validated again.  Subclasses declare two or more slots, so that
    ``_values`` returns a tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields):
        for setter, value in zip(self._setters, fields, strict=True):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"


class RingParams(_Frozen):
    """Chart data: self-intersection -k and truncation modulus u^m = 0."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int):
        if type(k) is not int or k < 1:
            raise ValueError("k must be a positive integer")
        if type(m) is not int or m < 1:
            raise ValueError("m must be a positive integer")
        super().__init__(k, m)


class RingElem(_Frozen):
    """A finitely supported exact-rational combination of monomials z^l u^i.

    Stored as a common denominator ``den`` >= 1 and a map ``nums`` from
    (l, i), 0 <= i <= m-1, to a nonzero integer, the coefficient of
    z^l u^i being nums[(l, i)] / den, with gcd(den, *nums.values()) == 1.
    The form is unique: den is a multiple of every coefficient
    denominator, and a proper multiple of their lcm shares a prime with
    every numerator.  So two elements are equal exactly when their
    params, den and nums are, and den is the lcm of the denominators.

    ``terms`` is the map (l, i) -> Fraction, a read-only view built
    from that form each time it is read; it is not stored.  Instances
    are immutable (``_Frozen``), and no method mutates ``nums`` after
    construction.  Copies and pickles rebuild the integer form directly.
    """

    __slots__ = ("params", "den", "nums")

    def __init__(self, params: RingParams, terms: Mapping[tuple[int, int], object]):
        clean: dict[tuple[int, int], Fraction] = {}
        m = params.m
        for (l, i), c in terms.items():
            if type(l) is not int or type(i) is not int:
                raise ValueError("term exponents must be integers")
            if i < 0 or i >= m:
                raise ValueError(f"u-exponent {i} outside [0, {m - 1}]")
            c = _as_fraction(c)
            if c != 0:
                clean[(l, i)] = c
        super().__init__(params, *_integer_form(clean))

    def __reduce__(self):
        return _form, (self.params, self.den, self.nums)

    def __eq__(self, other):
        return (type(other) is RingElem and self.den == other.den and self.nums == other.nums
                and (self.params is other.params or self.params == other.params))

    @property
    def terms(self) -> Mapping[tuple[int, int], Fraction]:
        """The coefficients as a read-only map (l, i) -> Fraction, built on each read."""
        den = self.den
        return MappingProxyType({key: Fraction(n, den) for key, n in self.nums.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: RingParams) -> "RingElem":
        return _form(params, 1, {})

    @classmethod
    def one(cls, params: RingParams) -> "RingElem":
        return _form(params, 1, {(0, 0): 1})

    @classmethod
    def monomial(cls, params: RingParams, l: int, i: int, coeff=1) -> "RingElem":
        return cls(params, {(l, i): coeff})

    @classmethod
    def constant(cls, params: RingParams, coeff) -> "RingElem":
        return cls(params, {(0, 0): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, l: int, i: int) -> Fraction:
        n = self.nums.get((l, i))
        return Fraction(0) if n is None else Fraction(n, self.den)

    def canonical_terms(self) -> list[tuple[int, int, Fraction]]:
        """Terms as (l, i, coeff) sorted by (i, l); the serialization order."""
        return [(l, i, c) for (l, i), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]))]

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        if not self.nums:
            body = "0"
        else:
            parts = []
            for l, i, c in self.canonical_terms():
                mono = "*".join(
                    ([] if l == 0 else [f"z^{l}" if l != 1 else "z"])
                    + ([] if i == 0 else [f"u^{i}" if i != 1 else "u"])
                )
                parts.append(f"{c}" + (f"*{mono}" if mono else ""))
            body = " + ".join(parts)
        return f"<{body} | k={self.params.k}, m={self.params.m}>"

    # -- ring operations ---------------------------------------------------

    def _check_same(self, other: "RingElem"):
        if self.params is not other.params and self.params != other.params:
            raise ValueError("mismatched ring parameters")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check_same(other)
        return _combine(self, other, 1)

    def __neg__(self) -> "RingElem":
        return _form(self.params, self.den, {key: -n for key, n in self.nums.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        # Subtracts while merging, in the term order of self + (-other).
        self._check_same(other)
        return _combine(self, other, -1)

    def __mul__(self, other: "RingElem") -> "RingElem":
        # Terms come out in first-occurrence order over the term pairs,
        # the shorter operand outer; both paths end in _normal.
        self._check_same(other)
        params = self.params
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if len(a) > len(b):
            a, b, da, db = b, a, db, da
        if not a:
            return _form(params, 1, {})
        m = params.m
        d = da * db
        if len(a) == 1:
            ((l0, i0), n0), = a.items()
            cap = m - i0
            return _normal(params, d,
                           {(l + l0, i + i0): n * n0 for (l, i), n in b.items() if i < cap})
        # Keys are encoded as l*m + i, and b's terms are filtered once per
        # u-order cap, so the pair loop neither builds tuples nor tests i.
        acc: dict[int, int] = {}
        get = acc.get
        capped: dict[int, list] = {}
        for (l1, i1), n1 in a.items():
            cap = m - i1
            row = capped.get(cap)
            if row is None:
                row = capped[cap] = [(l2 * m + i2, n2) for (l2, i2), n2 in b.items() if i2 < cap]
            k1 = l1 * m + i1
            for k2, n2 in row:
                key = k1 + k2
                acc[key] = get(key, 0) + n1 * n2
        return _normal(params, d, {divmod(key, m): n for key, n in acc.items() if n})

    def scale(self, coeff) -> "RingElem":
        c0 = _as_fraction(coeff)
        nums = self.nums
        if not c0 or not nums:
            return _form(self.params, 1, {})
        p = c0.numerator
        return _normal(self.params, self.den * c0.denominator,
                       {key: n * p for key, n in nums.items()})

    def shift(self, dl: int) -> "RingElem":
        """Multiply by z^dl, a unit: every term moves and none is dropped."""
        return _form(self.params, self.den, {(l + dl, i): n for (l, i), n in self.nums.items()})

    # -- support projections -----------------------------------------------

    def select(self, pred: Callable[[int, int], bool]) -> "RingElem":
        """The partial sum over monomials with pred(l, i) true."""
        return _normal(self.params, self.den,
                       {(l, i): n for (l, i), n in self.nums.items() if pred(l, i)})

    def is_u_regular(self) -> bool:
        return all(l >= 0 for (l, _) in self.nums)

    def is_v_regular(self) -> bool:
        k = self.params.k
        return all(l <= k * i for (l, i) in self.nums)


_new = object.__new__
_set_params, _set_den, _set_nums = RingElem._setters


def _form(params: RingParams, den: int, nums: dict) -> RingElem:
    """An element from an integer form that is already canonical."""
    self = _new(RingElem)
    _set_params(self, params)
    _set_den(self, den)
    _set_nums(self, nums)
    return self


def _normal(params: RingParams, den: int, nums: dict) -> RingElem:
    """An element from nonzero numerators over den, their common factor divided out.

    Every operation that produces new numerators ends here.
    """
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: n // g for key, n in nums.items()}
    return _form(params, den, nums)


def _integer_form(terms: Mapping) -> tuple[int, dict]:
    """(den, nums) for nonzero rationals in lowest terms, den their lcm.

    Every prime of den divides the denominator of some coefficient to
    its full power there, so that numerator keeps it out of gcd(den,
    *nums).  The lcm is folded in a running loop: ``lcm(*generator)``
    raised the peak RSS of a 30 s benchmark sweep by about 6 %.
    """
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    return den, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def _combine(x: RingElem, y: RingElem, sign: int) -> RingElem:
    """x + sign*y, merged into x's term order, cancellations dropped.

    The numerators are taken over lcm(dx, dy) and end in ``_normal``.
    """
    if not y.nums:
        return x
    dx, dy = x.den, y.den
    g = gcd(dx, dy)
    fx, fy = dy // g, dx // g * sign
    out = dict(x.nums) if fx == 1 else {key: n * fx for key, n in x.nums.items()}
    get = out.get
    for key, n in y.nums.items():
        s = get(key)
        if s is None:
            out[key] = n * fy
        else:
            s += n * fy
            if s:
                out[key] = s
            else:
                del out[key]
    return _normal(x.params, dx * fx, out)


# -- named operations -------------------------------------------------------


def invert_unit(x: RingElem) -> RingElem:
    """Invert an element whose i = 0 layer is a nonzero constant.

    Writes x = c0*(1 - r) with r divisible by u, so r^m = 0 and
    x^-1 = c0^-1 * sum_{t < m} r^t exactly.
    """
    n00 = x.nums.get((0, 0))
    if not n00 or any(i == 0 and l != 0 for (l, i) in x.nums):
        raise ValueError("not an ell-constant unit")
    c0 = Fraction(n00, x.den)
    params = x.params
    one = RingElem.one(params)
    r = one - x.scale(1 / c0)
    acc = one
    pw = one
    for _ in range(1, params.m):
        pw = pw * r
        if pw.is_zero():
            break
        acc = acc + pw
    return acc.scale(1 / c0)


def sector_split(x: RingElem, j: int) -> tuple[RingElem, RingElem, RingElem]:
    """Three-way split (succ, good, prec) of x by its sectors.

    succ holds the monomials with l >= j (z^-j times them is regular on
    the first chart), prec those with l + j <= k*i (z^j times them is
    regular on the second chart), and good the rest, the band
    k*i-j+1 <= l <= j-1.  Monomials eligible for both succ and prec are
    assigned to succ.  On the zero section (i = 0) the band is |l| < j.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    k = x.params.k
    succ: dict = {}
    good: dict = {}
    prec: dict = {}
    for (l, i), n in x.nums.items():
        if l >= j:
            succ[(l, i)] = n
        elif l + j <= k * i:
            prec[(l, i)] = n
        else:
            good[(l, i)] = n
    params, den = x.params, x.den
    return _normal(params, den, succ), _normal(params, den, good), _normal(params, den, prec)


def plus_part(x: RingElem) -> RingElem:
    """The monomials of x with l > k*i (not regular on the second chart)."""
    k = x.params.k
    return _normal(x.params, x.den, {(l, i): n for (l, i), n in x.nums.items() if l > k * i})


def truncate(x: RingElem, m_new: int) -> RingElem:
    """Project to the coarser truncation u^m_new = 0; a ring homomorphism."""
    if m_new < 1:
        raise ValueError("m must be a positive integer")
    if m_new > x.params.m:
        raise ValueError("cannot refine truncation")
    params = RingParams(x.params.k, m_new)
    return _normal(params, x.den, {(l, i): n for (l, i), n in x.nums.items() if i < m_new})


# -- serialization ----------------------------------------------------------


def elem_to_dict(x: RingElem) -> dict:
    return {
        "k": x.params.k,
        "m": x.params.m,
        "terms": [
            {"l": l, "i": i, "num": c.numerator, "den": c.denominator}
            for l, i, c in x.canonical_terms()
        ],
    }


def _fields(data, names, what: str) -> tuple:
    """The values of exactly the fields ``names`` of a JSON object, in order."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = set(data) - set(names)
    if extra:
        raise ValueError(f"unknown fields: {sorted(extra)}")
    missing = set(names) - set(data)
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    return tuple(data[name] for name in names)


def elem_from_dict(data: dict) -> RingElem:
    """Parse the JSON form written by elem_to_dict, rejecting inexact input."""
    k, m, term_list = _fields(data, ("k", "m", "terms"), "ring element")
    params = RingParams(k, m)
    if not isinstance(term_list, list):
        raise ValueError("terms must be a JSON list")
    terms = {}
    for t in term_list:
        l, i, num, den = _fields(t, ("l", "i", "num", "den"), "each term")
        if type(l) is not int or type(i) is not int:
            raise ValueError("term exponents must be integers")
        if type(num) is not int or type(den) is not int:
            raise ValueError("coefficients must be exact integers num/den")
        if den == 0:
            raise ValueError("zero denominator")
        if (l, i) in terms:
            raise ValueError(f"duplicate term {(l, i)}")
        terms[(l, i)] = Fraction(num, den)
    return RingElem(params, terms)
