"""Normal-form bands, cocycle reduction and level restriction."""

import random
from collections import namedtuple
from fractions import Fraction

import pytest

from negcurve.extensions import (ExtClass, Mat2, ModuliParams, basis_W, class_is_zero,
                                 reduce_cocycle, restrict_level)
from negcurve.ring import RingElem, RingParams


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


def ext1_band(params):
    """Band monomials (i, l) of Ext^1(O(j), O(-j)) over all u-orders, i = 0 included."""
    return [(i, l) for i in range(params.m) for l in params.band_rows(i)]


def to_vector(p):
    """The coefficients of p in basis_W order."""
    return [p.p.coeff(l, i) for (i, l) in basis_W(p.params)]


def enumerate_band(k, j, m, include_zero_layer=False):
    """Independent oracle: brute enumeration of the band index set."""
    out = []
    for i in range(0 if include_zero_layer else 1, m):
        if not include_zero_layer and i > (2 * j - 2) // k:
            continue
        for l in range(-40, 41):
            if k * i - j + 1 <= l <= j - 1:
                out.append((i, l))
    return out


def test_basis_example_k1_j2():
    assert basis_W(params_of(1, 2, 3)) == [(1, 0), (1, 1), (2, 1)]
    assert basis_W(params_of(1, 2, 2)) == [(1, 0), (1, 1)]


def test_basis_affine_dimension_matches_projectivization():
    # At m = 2 the band has dimension 2j - k - 1.
    for (k, j) in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        assert len(basis_W(params_of(k, j, 2))) == 2 * j - k - 1


def test_basis_empty_when_band_collapses():
    for m in (1, 2, 5):
        assert basis_W(params_of(3, 1, m)) == []


def test_basis_matches_enumeration():
    for k in range(1, 5):
        for j in range(1, 5):
            for m in range(1, 6):
                params = params_of(k, j, m)
                assert basis_W(params) == enumerate_band(k, j, m)
                expected = sum(2 * j - 1 - k * i
                               for i in range(1, min((2 * j - 2) // k, m - 1) + 1))
                assert len(basis_W(params)) == expected


def test_basis_stabilizes_in_m():
    for (k, j) in [(1, 2), (1, 3), (2, 3), (3, 3)]:
        cap = (2 * j - 2) // k
        stable = basis_W(params_of(k, j, cap + 1))
        for m in range(cap + 1, cap + 5):
            assert basis_W(params_of(k, j, m)) == stable


def test_ext_band_includes_zero_layer():
    params = params_of(1, 2, 3)
    assert ext1_band(params) == enumerate_band(1, 2, 3, include_zero_layer=True)
    assert len(ext1_band(params)) == 6


def test_class_is_zero():
    params = params_of(1, 2, 3)
    ring = params.ring
    coboundary = RingElem.monomial(ring, 2, 0) * RingElem.monomial(ring, 1, 1)
    assert class_is_zero(coboundary, params)
    assert not class_is_zero(RingElem.monomial(ring, 1, 1), params)


def test_reduce_cocycle_sectors():
    params = params_of(1, 2, 3)
    ring = params.ring
    y = (RingElem.monomial(ring, 5, 1) + RingElem.monomial(ring, 1, 1)
         + RingElem.monomial(ring, -3, 1))
    p, f_u, f_v = reduce_cocycle(y, params)
    assert p.p == RingElem.monomial(ring, 1, 1)
    assert f_u == RingElem.monomial(ring, 3, 1)
    assert f_v == RingElem.monomial(ring, -1, 1)


def test_reduce_cocycle_idempotent_on_band():
    params = params_of(1, 2, 3)
    y = RingElem(params.ring, {(0, 1): 2, (1, 1): -3, (1, 2): 5})
    p, f_u, f_v = reduce_cocycle(y, params)
    assert p.p == y and f_u.is_zero() and f_v.is_zero()


def test_reduce_cocycle_succ_at_threshold():
    params = params_of(1, 2, 3)
    y = RingElem.monomial(params.ring, 2, 2)
    p, f_u, f_v = reduce_cocycle(y, params)
    assert p.p.is_zero()
    assert f_u == RingElem.monomial(params.ring, 0, 2)
    assert f_v.is_zero()


def test_reduce_cocycle_handles_split_zero_layer():
    params = params_of(1, 2, 3)
    ring = params.ring
    y = RingElem.monomial(ring, 3, 0) + RingElem.monomial(ring, -2, 0, 7)
    p, f_u, f_v = reduce_cocycle(y, params)
    assert p.p.is_zero()
    assert f_u == RingElem.monomial(ring, 1, 0)
    assert f_v == RingElem.monomial(ring, 0, 0, 7)


def test_reduce_cocycle_rejects_band_zero_layer():
    params = params_of(1, 2, 3)
    with pytest.raises(ValueError, match="vanish on ell"):
        reduce_cocycle(RingElem.monomial(params.ring, 1, 0), params)


def test_reduce_cocycle_reconstruction():
    rng = random.Random(3)
    for (k, j, m) in [(1, 2, 3), (2, 3, 4), (3, 2, 2)]:
        params = params_of(k, j, m)
        ring = params.ring
        for _ in range(25):
            terms = {}
            for _ in range(5):
                i = rng.randint(0, m - 1)
                l = rng.randint(-6, 6)
                if i == 0 and -j < l < j:
                    continue
                terms[(l, i)] = rng.randint(-9, 9)
            y = RingElem(ring, terms)
            p, f_u, f_v = reduce_cocycle(y, params)
            assert f_u.is_u_regular()
            assert f_v.is_v_regular()
            rebuilt = p.p + f_u.shift(j) + f_v.shift(-j)
            assert rebuilt == y
            assert class_is_zero(y - p.p, params)
            again, g_u, g_v = reduce_cocycle(p.p, params)
            assert again == p and g_u.is_zero() and g_v.is_zero()


# The reduction as it was before the curve layer (i = 0) went through
# sector_split, kept verbatim as the reference together with the split it
# called: that split rejected i = 0 terms, so the layer was placed by hand.
ReferenceSplit = namedtuple("ReferenceSplit", "succ good prec")


def reference_sector_split(x, j):
    if j < 1:
        raise ValueError("j must be a positive integer")
    k = x.params.k
    succ: dict = {}
    good: dict = {}
    prec: dict = {}
    for (l, i), c in x.terms.items():
        if i == 0:
            raise ValueError("does not vanish on ell")
        if l >= j:
            succ[(l, i)] = c
        elif l + j <= k * i:
            prec[(l, i)] = c
        else:
            good[(l, i)] = c
    raw = RingElem._raw
    return ReferenceSplit(raw(x.params, succ), raw(x.params, good), raw(x.params, prec))


def reference_reduce_cocycle(y, params):
    j = params.j
    lay0 = y.select(lambda l, i: i == 0)
    for (l, _) in lay0.terms:
        if -j < l < j:
            raise ValueError("class does not vanish on ell")
    rest = y - lay0
    split = reference_sector_split(rest, j)
    f_u = (split.succ + lay0.select(lambda l, i: l >= j)).shift(-j)
    f_v = (split.prec + lay0.select(lambda l, i: l <= -j)).shift(j)
    return ExtClass(params, split.good), f_u, f_v


def outcome(reduce, y, params):
    try:
        p, f_u, f_v = reduce(y, params)
    except ValueError as exc:
        return ("error", str(exc))
    return (p, sorted(f_u.terms.items()), sorted(f_v.terms.items()))


@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (2, 3, 4), (2, 2, 3), (3, 3, 3)])
def test_reduce_cocycle_matches_reference(k, j, m):
    # Every cocycle has i >= 1 terms in all three sectors and i = 0 terms
    # at l >= j and l <= -j; every other one also has one with |l| < j.
    rng = random.Random(1000 * k + 100 * j + m)
    params = params_of(k, j, m)
    ring = params.ring
    errors = 0
    for n in range(60):
        terms = {}
        i = rng.randint(1, m - 1)
        terms[(rng.randint(j, j + 5), i)] = 1
        terms[(rng.randint(k * i - j - 5, k * i - j), i)] = -2
        i_band = rng.randint(1, params.i_cap())
        terms[(rng.randint(k * i_band - j + 1, j - 1), i_band)] = Fraction(3, rng.randint(1, 7))
        terms[(rng.randint(j, j + 5), 0)] = 4
        terms[(rng.randint(-j - 5, -j), 0)] = Fraction(-5, rng.randint(1, 7))
        if n % 2:
            terms[(rng.randint(-j + 1, j - 1), 0)] = 6
        for _ in range(rng.randint(0, 6)):
            terms[(rng.randint(-j - 6, j + k * (m - 1) + 6), rng.randint(0, m - 1))] = \
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        y = RingElem(ring, terms)
        expected = outcome(reference_reduce_cocycle, y, params)
        assert outcome(reduce_cocycle, y, params) == expected
        errors += expected[0] == "error"
    assert 30 <= errors < 60


def test_class_is_zero_iff_reduction_trivial():
    rng = random.Random(5)
    params = params_of(1, 2, 3)
    ring = params.ring
    for _ in range(30):
        terms = {}
        for _ in range(4):
            i = rng.randint(1, 2)
            terms[(rng.randint(-4, 4), i)] = rng.randint(-5, 5)
        y = RingElem(ring, terms)
        p, _, _ = reduce_cocycle(y, params)
        assert class_is_zero(y, params) == p.p.is_zero()


def test_ext_class_validation():
    params = params_of(1, 2, 3)
    with pytest.raises(ValueError, match="band"):
        ExtClass(params, RingElem.monomial(params.ring, 2, 1))
    with pytest.raises(ValueError, match="band"):
        ExtClass(params, RingElem.monomial(params.ring, 1, 0))


def test_ext_class_vector_round_trip():
    params = params_of(1, 2, 3)
    p = ExtClass.from_vector(params, [1, 2, 5])
    assert to_vector(p) == [1, 2, 5]
    assert ExtClass.from_dict(p.to_dict()) == p
    with pytest.raises(ValueError, match="expected 3"):
        ExtClass.from_vector(params, [1, 2])


def test_restrict_level():
    params = params_of(1, 2, 3)
    p = ExtClass.from_vector(params, [1, 2, 5])
    q = restrict_level(p, 2)
    assert q.params.m == 2
    assert to_vector(q) == [1, 2]
    assert restrict_level(p, 3) == p
    with pytest.raises(ValueError, match="refine"):
        restrict_level(p, 4)


def test_transition_matrix_shape():
    params = params_of(1, 2, 3)
    p = ExtClass.from_vector(params, [1, 0, 0])
    mat = p.transition()
    assert mat.a11 == RingElem.monomial(params.ring, 2, 0)
    assert mat.a22 == RingElem.monomial(params.ring, -2, 0)
    assert mat.a12 == p.p
    assert mat.a21.is_zero()
    assert mat.det() == RingElem.one(params.ring)
    one, zero = RingElem.one(params.ring), RingElem.zero(params.ring)
    # det T(p) = 1, so T(p) times its adjugate is the identity.
    assert mat * Mat2(mat.a22, -mat.a12, -mat.a21, mat.a11) == Mat2(one, zero, zero, one)
