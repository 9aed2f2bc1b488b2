"""Extension classes of O(j) by O(-j) and their transition matrices.

A rank-2 bundle splitting as O(j) + O(-j) on the zero section is glued
by an upper-triangular transition matrix (z^j, p; 0, z^-j).  The class
p has a unique normal form supported on the band of monomials z^l u^i
with k*i - j + 1 <= l <= j - 1 and i >= 1; the band is finite and stops
growing once k*i exceeds 2j - 2.

``ModuliParams``, ``ExtClass`` and ``Mat2`` are immutable values on
``ring._Frozen``, the base of all nine value classes of the package:
fields are never reassigned, equality and hashing go by the fields, and
copies and pickles go back through the constructor.
"""

from __future__ import annotations

from .ring import (RingElem, RingParams, _fields, _Frozen, elem_from_dict, elem_to_dict,
                   sector_split, truncate)


class ModuliParams(_Frozen):
    """Ring parameters together with the splitting type j >= 1."""

    __slots__ = ("ring", "j")

    def __init__(self, ring: RingParams, j: int):
        if type(j) is not int or j < 1:
            raise ValueError("j must be a positive integer")
        super().__init__(ring, j)

    @property
    def k(self) -> int:
        return self.ring.k

    @property
    def m(self) -> int:
        return self.ring.m

    def i_cap(self) -> int:
        """Largest u-order carrying band monomials, capped by truncation."""
        return min((2 * self.j - 2) // self.k, self.m - 1)

    def band_rows(self, i: int) -> range:
        """The z-exponent band at u-order i (may be empty)."""
        return range(self.k * i - self.j + 1, self.j)

    def restricted(self, m_new: int) -> "ModuliParams":
        if m_new < 1:
            raise ValueError(f"restriction target level m must be at least 1, got {m_new}")
        if m_new > self.m:
            raise ValueError("cannot refine truncation")
        return ModuliParams(RingParams(self.k, m_new), self.j)


def basis_W(params: ModuliParams) -> list[tuple[int, int]]:
    """The (i, l) index set of the normal-form band, in canonical order."""
    return [(i, l) for i in range(1, params.i_cap() + 1) for l in params.band_rows(i)]


def class_is_zero(y: RingElem, params: ModuliParams) -> bool:
    """Whether y is a coboundary: its band sector k*i - j < l < j is empty."""
    return sector_split(y, params.j)[1].is_zero()


class ExtClass(_Frozen):
    """An extension class in normal form: support inside the band, i >= 1."""

    __slots__ = ("params", "p")

    def __init__(self, params: ModuliParams, p: RingElem):
        if p.params is not params.ring and p.params != params.ring:
            raise ValueError("mismatched ring parameters")
        k, j = params.ring.k, params.j
        for (l, i) in p.nums:
            if i == 0 or not k * i - j < l < j:
                raise ValueError(f"term z^{l} u^{i} is outside the normal-form band")
        super().__init__(params, p)

    @classmethod
    def from_vector(cls, params: ModuliParams, coeffs) -> "ExtClass":
        """Build from a coefficient vector in basis_W order."""
        basis = basis_W(params)
        if len(coeffs) != len(basis):
            raise ValueError(f"expected {len(basis)} coefficients, got {len(coeffs)}")
        return cls(params, RingElem(params.ring, {(l, i): c for (i, l), c in zip(basis, coeffs)}))

    def __repr__(self):
        return f"ExtClass(j={self.params.j}, p={self.p!r})"

    def transition(self) -> "Mat2":
        """The upper-triangular gluing matrix (z^j, p; 0, z^-j) of the bundle."""
        ring = self.params.ring
        j = self.params.j
        return Mat2(RingElem.monomial(ring, j, 0), self.p, RingElem.zero(ring),
                    RingElem.monomial(ring, -j, 0))

    def to_dict(self) -> dict:
        data = elem_to_dict(self.p)
        data["j"] = self.params.j
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExtClass":
        k, m, terms, j = _fields(data, ("k", "m", "terms", "j"), "extension class")
        rep = elem_from_dict({"k": k, "m": m, "terms": terms})
        return cls(ModuliParams(rep.params, j), rep)


def reduce_cocycle(y: RingElem, params: ModuliParams) -> tuple[ExtClass, RingElem, RingElem]:
    """Normal form of an extension cocycle: y = p + z^j f_U + z^-j f_V.

    f_U is regular on the first chart, f_V on the second, and p lies in
    the band.  Fails if y has an i = 0 monomial with |l| < j, since such
    a class does not split on the zero section.
    """
    j = params.j
    succ, good, prec = sector_split(y, j)
    if any(i == 0 for (_, i) in good.nums):
        raise ValueError("class does not vanish on ell")
    return ExtClass(params, good), succ.shift(-j), prec.shift(j)


def restrict_level(p: ExtClass, m_new: int) -> ExtClass:
    """Truncate to the coarser level u^m_new = 0."""
    return ExtClass(p.params.restricted(m_new), truncate(p.p, m_new))


# -- 2x2 matrices over the overlap ring --------------------------------------


class Mat2(_Frozen):
    """A 2x2 matrix (a11, a12; a21, a22) of overlap-ring elements."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def entries(self) -> tuple[RingElem, RingElem, RingElem, RingElem]:
        return (self.a11, self.a12, self.a21, self.a22)

    def det(self) -> RingElem:
        return self.a11 * self.a22 - self.a12 * self.a21
