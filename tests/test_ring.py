"""Exact arithmetic, unit inversion, sector splits and truncation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negcurve.ring import (RingElem, RingParams, _as_fraction, elem_from_dict, elem_to_dict,
                           invert_unit, plus_part, sector_split, truncate)


def elem(params, *terms):
    """Build sum of (l, i, coeff) triples."""
    out = RingElem.zero(params)
    for (l, i, c) in terms:
        out = out + RingElem.monomial(params, l, i, c)
    return out


# -- strategies ---------------------------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=3)


@st.composite
def ring_elems(draw, params=None, min_i=0):
    if params is None:
        params = RingParams(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    terms = {}
    if params.m - 1 >= min_i:
        n = draw(st.integers(0, 4))
        for _ in range(n):
            l = draw(st.integers(-6, 6))
            i = draw(st.integers(min_i, params.m - 1))
            terms[(l, i)] = draw(rationals)
    return RingElem(params, terms)


@st.composite
def ring_elem_triples(draw):
    params = RingParams(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return (draw(ring_elems(params=params)), draw(ring_elems(params=params)),
            draw(ring_elems(params=params)))


# -- construction and canonical form ------------------------------------------

def test_zero_coefficients_elided():
    params = RingParams(1, 3)
    x = RingElem(params, {(0, 0): 0, (1, 1): 2})
    assert (0, 0) not in x.terms
    assert x == RingElem.monomial(params, 1, 1, 2)


def test_u_exponent_bounds_enforced():
    params = RingParams(1, 2)
    with pytest.raises(ValueError):
        RingElem(params, {(0, 2): 1})
    with pytest.raises(ValueError):
        RingElem(params, {(0, -1): 1})


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(0, 3)
    with pytest.raises(ValueError):
        RingParams(1, 0)


def test_mismatched_params_rejected():
    x = RingElem.one(RingParams(1, 3))
    y = RingElem.one(RingParams(1, 2))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_float_coefficients_rejected():
    with pytest.raises(ValueError):
        RingElem(RingParams(1, 2), {(0, 0): 0.5})


# -- products -----------------------------------------------------------------

def test_product_truncates_at_modulus_two():
    params = RingParams(1, 2)
    zu = RingElem.monomial(params, 1, 1)
    zinv_u = RingElem.monomial(params, -1, 1)
    assert (zu * zinv_u).is_zero()


def test_product_exponent_addition():
    params = RingParams(1, 3)
    zu = RingElem.monomial(params, 1, 1)
    zinv_u = RingElem.monomial(params, -1, 1)
    assert zu * zinv_u == RingElem.monomial(params, 0, 2)


def test_binomial_product():
    params = RingParams(1, 3)
    one = RingElem.one(params)
    u = RingElem.monomial(params, 0, 1)
    assert (one + u) * (one - u) == one - RingElem.monomial(params, 0, 2)


@settings(max_examples=150, deadline=None)
@given(ring_elem_triples())
def test_ring_laws(triple):
    x, y, z = triple
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == RingElem.zero(x.params)


# -- unit inversion -----------------------------------------------------------

def test_invert_one_and_constant():
    params = RingParams(1, 3)
    one = RingElem.one(params)
    assert invert_unit(one) == one
    two = RingElem.constant(params, 2)
    assert invert_unit(two) == RingElem.constant(params, Fraction(1, 2))


def test_invert_geometric_series():
    params = RingParams(1, 3)
    x = RingElem.one(params) - RingElem.monomial(params, 1, 1)
    y = invert_unit(x)
    assert y == elem(params, (0, 0, 1), (1, 1, 1), (2, 2, 1))
    assert x * y == RingElem.one(params)


def test_invert_rejects_non_units():
    params = RingParams(1, 3)
    with pytest.raises(ValueError, match="ell-constant unit"):
        invert_unit(RingElem.zero(params))
    with pytest.raises(ValueError, match="ell-constant unit"):
        invert_unit(RingElem.monomial(params, 0, 1))
    with pytest.raises(ValueError, match="ell-constant unit"):
        invert_unit(RingElem.one(params) + RingElem.monomial(params, 1, 0))


@settings(max_examples=80, deadline=None)
@given(ring_elems(min_i=1), st.sampled_from([1, -2, Fraction(1, 3), Fraction(5, 2)]))
def test_invert_times_original_is_one(tail, c0):
    x = RingElem.constant(tail.params, c0) + tail
    assert x * invert_unit(x) == RingElem.one(x.params)


# -- sector split -------------------------------------------------------------

def test_sector_split_thresholds():
    params = RingParams(1, 3)
    x = elem(params, (3, 1, 1), (1, 1, 1), (-1, 1, 1))
    split = sector_split(x, 2)
    assert split.succ == RingElem.monomial(params, 3, 1)
    assert split.good == RingElem.monomial(params, 1, 1)
    assert split.prec == RingElem.monomial(params, -1, 1)


def test_sector_split_band_only_input():
    params = RingParams(1, 3)
    x = elem(params, (0, 1, 2), (1, 1, -1), (1, 2, 3))
    split = sector_split(x, 2)
    assert split.succ.is_zero() and split.prec.is_zero()
    assert split.good == x


def test_sector_split_boundary_goes_to_prec():
    # l + j = 2 <= k*i = 2 at the threshold.
    params = RingParams(1, 3)
    split = sector_split(RingElem.monomial(params, 0, 2), 2)
    assert split.prec == RingElem.monomial(params, 0, 2)
    assert split.succ.is_zero() and split.good.is_zero()


def test_sector_split_rejects_nonvanishing_on_ell():
    params = RingParams(1, 3)
    with pytest.raises(ValueError, match="vanish on ell"):
        sector_split(RingElem.one(params), 2)


@settings(max_examples=120, deadline=None)
@given(ring_elems(min_i=1), st.integers(1, 4))
def test_sector_split_reconstruction(x, j):
    split = sector_split(x, j)
    assert split.succ + split.good + split.prec == x
    assert not (set(split.succ.terms) & set(split.good.terms))
    assert not (set(split.succ.terms) & set(split.prec.terms))
    assert not (set(split.good.terms) & set(split.prec.terms))
    k = x.params.k
    assert all(l >= j for (l, _) in split.succ.terms)
    assert all(l + j <= k * i for (l, i) in split.prec.terms)
    assert all(k * i - j + 1 <= l <= j - 1 for (l, i) in split.good.terms)


# -- plus part ----------------------------------------------------------------

def test_plus_parts_examples():
    params = RingParams(1, 3)
    x = elem(params, (5, 1, 1), (1, 1, 1))
    assert plus_part(x) == RingElem.monomial(params, 5, 1)


def test_plus_parts_v_regular_input():
    params = RingParams(2, 3)
    x = elem(params, (1, 1, 1), (-3, 0, 2))
    assert plus_part(x).is_zero()


def test_plus_parts_low_band():
    params = RingParams(1, 3)
    x = RingElem.monomial(params, 3, 2)
    assert plus_part(x) == x


@settings(max_examples=100, deadline=None)
@given(ring_elems())
def test_plus_parts_regularity(x):
    plus = plus_part(x)
    assert (x - plus).is_v_regular()
    assert x - plus == x.v_regular_part()
    assert plus.is_u_regular()
    assert all(l > x.params.k * i for (l, i) in plus.terms)


# -- truncation ---------------------------------------------------------------

def test_truncate_examples():
    params = RingParams(1, 3)
    x = elem(params, (0, 0, 1), (1, 1, 1), (2, 2, 1))
    assert truncate(x, 2) == elem(RingParams(1, 2), (0, 0, 1), (1, 1, 1))
    assert truncate(x, 3) == x


def test_truncate_cannot_refine():
    x = RingElem.one(RingParams(1, 2))
    with pytest.raises(ValueError, match="cannot refine"):
        truncate(x, 3)


@settings(max_examples=100, deadline=None)
@given(ring_elem_triples(), st.integers(1, 4))
def test_truncate_is_ring_map(triple, m_new):
    x, y, _ = triple
    if m_new > x.params.m:
        m_new = x.params.m
    assert truncate(x * y, m_new) == truncate(x, m_new) * truncate(y, m_new)
    assert truncate(x + y, m_new) == truncate(x, m_new) + truncate(y, m_new)


@settings(max_examples=60, deadline=None)
@given(ring_elems(min_i=1), st.integers(1, 4), st.integers(1, 4))
def test_truncate_commutes_with_splits(x, j, m_new):
    if m_new > x.params.m:
        m_new = x.params.m
    tx = truncate(x, m_new)
    split = sector_split(x, j)
    tsplit = sector_split(tx, j)
    assert truncate(split.succ, m_new) == tsplit.succ
    assert truncate(split.good, m_new) == tsplit.good
    assert truncate(split.prec, m_new) == tsplit.prec
    assert truncate(plus_part(x), m_new) == plus_part(tx)
    assert truncate(x.v_regular_part(), m_new) == tx.v_regular_part()


# -- serialization ------------------------------------------------------------

def test_json_round_trip_bit_exact():
    params = RingParams(2, 4)
    x = elem(params, (-3, 0, Fraction(22, 7)), (5, 3, -4), (0, 1, Fraction(-1, 3)))
    data = elem_to_dict(x)
    assert data["terms"] == sorted(data["terms"], key=lambda t: (t["i"], t["l"]))
    assert elem_from_dict(data) == x


def test_json_rejects_unknown_fields():
    data = elem_to_dict(RingElem.one(RingParams(1, 2)))
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown fields"):
        elem_from_dict(data)


@pytest.mark.parametrize("field", ["l", "i", "num", "den"])
def test_json_rejects_boolean_term_fields(field):
    term = {"l": 1, "i": 1, "num": 1, "den": 1}
    term[field] = True
    with pytest.raises(ValueError):
        elem_from_dict({"k": 1, "m": 2, "terms": [term]})


def test_json_rejects_boolean_params_and_zero_denominator():
    with pytest.raises(ValueError):
        elem_from_dict({"k": True, "m": 2, "terms": []})
    with pytest.raises(ValueError, match="zero denominator"):
        elem_from_dict({"k": 1, "m": 2, "terms": [{"l": 0, "i": 0, "num": 1, "den": 0}]})


def test_rational_parser():
    assert _as_fraction(3) == Fraction(3)
    assert _as_fraction("-2/6") == Fraction(-1, 3)
    for bad in (True, False, 0.5, None, "1/0", "x"):
        with pytest.raises(ValueError):
            _as_fraction(bad)


def test_json_rejects_duplicate_terms():
    data = {"k": 1, "m": 2, "terms": [
        {"l": 0, "i": 0, "num": 1, "den": 1},
        {"l": 0, "i": 0, "num": 2, "den": 1},
    ]}
    with pytest.raises(ValueError, match="duplicate"):
        elem_from_dict(data)
