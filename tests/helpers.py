"""Helpers shared by several test modules, one copy each."""

from negcurve.extensions import ModuliParams, basis_W
from negcurve.groupoid import GroupElem
from negcurve.ring import RingElem, RingParams


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


def to_vector(p):
    """The coefficients of p in basis_W order."""
    return [p.p.coeff(l, i) for (i, l) in basis_W(p.params)]


def ext1_band(params):
    """The band monomials (i, l) of Ext^1(O(j), O(-j)) over all u-orders,
    i = 0 included: the row order of build_linear_system."""
    return [(i, l) for i in range(params.m) for l in params.band_rows(i)]


def diagonal(params, lam, mu):
    """The diagonal automorphism (lam, 0; 0, mu) with constant entries."""
    ring = params.ring
    return GroupElem.from_reps(params, RingElem.constant(ring, lam), RingElem.zero(ring),
                               RingElem.zero(ring), RingElem.constant(ring, mu))
