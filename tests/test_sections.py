"""Section spaces, first cohomology and the global-function cone."""

import random

import pytest

from negcurve.ring import RingElem, RingParams, truncate
from negcurve.sections import TwistedSection, cone_check, h0_basis, h0_dim, h1_dim


def enumerate_h0(s, k, m):
    """Independent oracle: brute enumeration of first-chart monomials of O(s)."""
    out = []
    for i in range(m):
        for l in range(-50, 51):
            if 0 <= l <= k * i + s:
                out.append((l, i))
    return out


def enumerate_h1(s, k, m):
    """Independent oracle: gap monomials k*i + s < l < 0."""
    return [(l, i) for i in range(m) for l in range(-50, 0) if l > k * i + s]


def test_h0_projective_line_quadratic():
    # m = 1 collapses to the curve itself.
    for k in (1, 2, 5):
        assert h0_basis(2, RingParams(k, 1)) == [(0, 0), (1, 0), (2, 0)]
        assert h0_dim(2, RingParams(k, 1)) == 3


def test_h0_trivial_twist_dimension():
    params = RingParams(1, 3)
    assert h0_dim(0, params) == 6
    assert h0_basis(0, params) == enumerate_h0(0, 1, 3)


def test_h0_negative_twist_empty():
    params = RingParams(1, 3)
    assert h0_basis(-4, params) == []
    assert h0_dim(-4, params) == 0
    assert enumerate_h0(-4, 1, 3) == []


def test_h0_matches_enumeration_on_grid():
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for s in range(-7, 8):
                params = RingParams(k, m)
                assert h0_basis(s, params) == enumerate_h0(s, k, m)
                assert h0_dim(s, params) == len(enumerate_h0(s, k, m))


def test_h1_vanishes_for_effective_twists():
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for s in range(0, 11):
                assert h1_dim(s, RingParams(k, m)) == 0


def test_h1_examples():
    assert h1_dim(-4, RingParams(1, 3)) == 6
    assert h1_dim(-2, RingParams(5, 2)) == 1
    assert enumerate_h1(-2, 5, 2) == [(-1, 0)]


def test_h1_matches_enumeration_on_grid():
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            for s in range(-8, 1):
                assert h1_dim(s, RingParams(k, m)) == len(enumerate_h1(s, k, m))


def test_h1_counts_the_extension_band():
    # dim H^1(O(-2j)) equals the band count sum_i max(0, 2j-1-k*i).
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for j in (1, 2, 3):
                expected = sum(max(0, 2 * j - 1 - k * i) for i in range(m))
                assert h1_dim(-2 * j, RingParams(k, m)) == expected


def test_cone_check_trivial_for_minus_one_curve():
    report = cone_check(1, 3)
    assert report["relations"] == []
    assert report["all_hold"]


def test_cone_check_quadric_relation():
    report = cone_check(2, 3)
    assert report["relations"] == [{"a": 0, "b": 2, "holds": True}]


def test_cone_check_up_to_six():
    # Full quadric set: one relation per pair 0 <= a, a+2 <= b <= k.
    for k in range(1, 7):
        report = cone_check(k, 3)
        assert report["all_hold"]
        expected_count = sum(1 for a in range(k - 1) for b in range(a + 2, k + 1))
        assert len(report["relations"]) == expected_count
    assert len(cone_check(4, 3)["relations"]) == 6


def test_cone_check_at_level_zero():
    # At m = 1, u = 0: every generator z^a u is zero, so every relation holds.
    for k in range(1, 5):
        report = cone_check(k, 1)
        assert report["all_hold"]
        assert report["relations"] == [{"a": a, "b": b, "holds": True}
                                       for a in range(k - 1) for b in range(a + 2, k + 1)]


def test_restrict_to_ell_examples():
    params = RingParams(1, 3)
    x = RingElem.constant(params, 3) + RingElem.monomial(params, 1, 1)
    assert truncate(x, 1) == RingElem.constant(RingParams(1, 1), 3)
    assert truncate(RingElem.monomial(params, 0, 2), 1).is_zero()


def test_twisted_section_support_validation():
    params = RingParams(1, 3)
    TwistedSection(2, RingElem.monomial(params, 2, 0))
    with pytest.raises(ValueError):
        TwistedSection(2, RingElem.monomial(params, 4, 0))
    with pytest.raises(ValueError):
        TwistedSection(0, RingElem.monomial(params, -1, 1))


def test_section_products_respect_twist_supports():
    rng = random.Random(23)
    for k in (1, 2):
        params = RingParams(k, 3)
        for _ in range(25):
            s1, s2 = rng.randint(-2, 3), rng.randint(-2, 3)
            secs = []
            for s in (s1, s2):
                basis = h0_basis(s, params)
                terms = {}
                if basis:
                    for (l, i) in rng.sample(basis, min(2, len(basis))):
                        terms[(l, i)] = rng.randint(-4, 4)
                secs.append(TwistedSection(s, RingElem(params, terms)))
            # The product of the representatives meets the O(s1+s2) bound.
            product = TwistedSection(s1 + s2, secs[0].rep * secs[1].rep)
            assert product.s == s1 + s2


def test_twisted_section_json_round_trip():
    params = RingParams(2, 2)
    sec = TwistedSection(4, RingElem.monomial(params, 3, 1, 5))
    assert TwistedSection.from_dict(sec.to_dict()) == sec
    bad = sec.to_dict()
    bad["junk"] = True
    with pytest.raises(ValueError, match="unknown fields"):
        TwistedSection.from_dict(bad)


def test_twisted_section_rejects_inexact_twist():
    data = TwistedSection(0, RingElem.one(RingParams(1, 2))).to_dict()
    for bad in (False, [0], "0"):
        data["s"] = bad
        with pytest.raises(ValueError, match="twist"):
            TwistedSection.from_dict(data)
