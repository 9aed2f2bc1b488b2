"""Exact arithmetic, unit inversion, sector splits and truncation."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negcurve.extensions import ExtClass, Mat2, ModuliParams, basis_W
from negcurve.groupoid import (CocyclePair, GroupElem, act, cocycle_matrices, sample_ext_class,
                               sample_group_elem)
from negcurve.homspaces import HomProfile, hom_ext_dims
from negcurve.ring import (_PACK_PAIRS, ConsistencyError, RingElem, RingParams, _as_fraction,
                           elem_from_dict, elem_to_dict, invert_unit, plus_part, sector_split,
                           truncate)
from negcurve.sections import TwistedSection


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


def test_shift_rejects_a_negative_u_exponent():
    # shift moves by a power of z only: it is the product by the unit z^dl,
    # and a u-exponent, negative or not, is no argument of it.
    params = RingParams(1, 3)
    for x in (RingElem.one(params), RingElem.monomial(params, 2, 1, Fraction(1, 2)),
              RingElem.zero(params), elem(params, (3, 0, Fraction(1, 2)), (1, 2, Fraction(1, 3)),
                                          (-2, 1, -4))):
        for dl in (-4, -1, 0, 2):
            moved, product = x.shift(dl), x * RingElem.monomial(params, dl, 0)
            assert moved == product
            assert list(moved.terms.items()) == list(product.terms.items())
        for di in (1, -1):
            with pytest.raises(TypeError):
                x.shift(0, di)


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


# -- the integer product kernel against the Fraction reference ----------------

# The per-term-pair Fraction product that the integer kernel replaced;
# kept only as the reference the kernel must match.


def _reference_shifted(terms, dl, di, c0, m):
    if di == 0 and c0 == 1:
        if dl == 0:
            return dict(terms)
        return {(l + dl, i): c for (l, i), c in terms.items()}
    out = {}
    for (l, i), c in terms.items():
        i2 = i + di
        if i2 < m:
            out[(l + dl, i2)] = c0 * c
    return out


def _reference_mul(self, other):
    self._check_same(other)
    a, b = self.terms, other.terms
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return RingElem(self.params, {})
    if len(a) == 1:
        ((l0, i0), c0), = a.items()
        return RingElem(self.params, _reference_shifted(b, l0, i0, c0, self.params.m))
    m = self.params.m
    acc = {}
    for (l1, i1), c1 in a.items():
        for (l2, i2), c2 in b.items():
            i = i1 + i2
            if i >= m:
                continue
            key = (l1 + l2, i)
            s = acc.get(key)
            acc[key] = c1 * c2 if s is None else s + c1 * c2
    return RingElem(self.params, {key: c for key, c in acc.items() if c})


def packs(x, y):
    """Whether x * y takes the packed path: two or more terms each, at
    least _PACK_PAIRS term pairs, and m times the product's z-span no
    more than the pairs."""
    a, b = x.nums, y.nums
    if min(len(a), len(b)) < 2 or len(a) * len(b) < _PACK_PAIRS:
        return False
    span = max(a)[0] - min(a)[0] + max(b)[0] - min(b)[0] + 1
    return span * x.params.m <= len(a) * len(b)


def assert_matches_reference(x, y):
    """x * y equals the reference exactly, its terms in the order of its
    path: increasing (i, l) when packed, else the reference's
    first-occurrence order."""
    got = list((x * y).terms.items())
    expected = list(_reference_mul(x, y).terms.items())
    if packs(x, y):
        expected.sort(key=lambda term: (term[0][1], term[0][0]))
    assert got == expected
    assert all(type(c) is Fraction and c for _, c in got)


def random_elem(rng, params, nterms, max_den, l_range):
    terms = {}
    for _ in range(nterms):
        key = (rng.randint(*l_range), rng.randrange(params.m))
        terms[key] = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
    return RingElem(params, terms)


@pytest.mark.parametrize("seed", range(24))
def test_product_kernel_matches_fraction_reference(seed):
    # Denominators up to 10^6, negative and large z-exponents, and u-orders
    # whose sums fall on both sides of the cut-off i1 + i2 == m.
    rng = random.Random(seed)
    params = RingParams(rng.randint(1, 3), rng.randint(1, 6))
    l_range = rng.choice(((-3, 3), (-10 ** 12, -10 ** 12 + 4), (10 ** 12, 10 ** 12 + 4), (-40, 40)))
    for _ in range(10):
        x = random_elem(rng, params, rng.randint(0, 8), rng.choice((1, 7, 10 ** 6)), l_range)
        y = random_elem(rng, params, rng.randint(0, 8), rng.choice((1, 7, 10 ** 6)), l_range)
        assert_matches_reference(x, y)
        assert_matches_reference(y, x)


def test_product_kernel_zero_and_single_term_operands():
    rng = random.Random(7)
    params = RingParams(2, 4)
    zero = RingElem.zero(params)
    x = random_elem(rng, params, 6, 10 ** 6, (-5, 5))
    assert_matches_reference(zero, x)
    assert_matches_reference(x, zero)
    assert_matches_reference(zero, zero)
    for c in (Fraction(1), Fraction(-1), Fraction(3, 7)):
        for l, i in ((0, 0), (-3, 0), (2, 1), (5, 3), (-10 ** 12, 2)):
            mono = RingElem.monomial(params, l, i, c)
            assert_matches_reference(mono, x)
            assert_matches_reference(x, mono)
            assert_matches_reference(mono, mono)


def test_product_kernel_drops_exact_cancellations():
    params = RingParams(1, 3)
    z = RingElem.monomial(params, 1, 0, Fraction(1, 3))
    u = RingElem.monomial(params, -4, 1, Fraction(5, 6))
    x, y = z + u, z - u
    assert_matches_reference(x, y)
    # The cross terms z*u cancel and are not stored; u^2 survives.
    assert list((x * y).terms) == [(2, 0), (-8, 2)]
    # Two-term operands whose product is cut off entirely by u^3 = 0.
    top = (z + z.shift(1)) * RingElem.monomial(params, 0, 2)
    low = y * RingElem.monomial(params, 0, 1)
    assert len(top.terms) == len(low.terms) == 2
    assert_matches_reference(top, low)
    assert (top * low).is_zero()


def test_product_kernel_dense_group_element_times_full_class():
    # Every product but those of b, which is zero at j = 6, packs, so its
    # terms come in (i, l) order.
    params = ModuliParams(RingParams(1, 8), 6)
    rng = random.Random(4608)
    p = sample_ext_class(params, rng, max_terms=10 ** 6)
    g = sample_group_elem(params, rng, max_terms=10 ** 6)
    assert len(p.p.terms) == len(basis_W(params))
    for entry in (g.a.rep, g.b.rep, g.c.rep, g.d.rep):
        for x, y in ((entry, p.p), (entry, entry)):
            assert packs(x, y) == (entry is not g.b.rep)
            assert_matches_reference(x, y)


def exact_elem(rng, params, nterms, max_den, l_range, orders=None):
    """An element with exactly nterms terms, z-exponents in l_range and
    u-orders in orders, coefficients of both signs over denominators up
    to max_den."""
    orders = range(params.m) if orders is None else orders
    keys = rng.sample([(l, i) for l in range(l_range[0], l_range[1] + 1) for i in orders], nterms)
    return RingElem(params, {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, max_den),
                                           rng.randint(1, max_den)) for key in keys})


@pytest.mark.parametrize("seed", range(12))
def test_packed_products_at_and_below_the_cutoff_match_the_reference(seed):
    # Term counts just at and above _PACK_PAIRS pairs (8 * 16, 9 * 16,
    # 12 * 20) and just below it (9 * 14, 7 * 18), z-exponents near
    # +-10^12 or near 0, denominators up to 10^6, and u-orders whose sums
    # fall on both sides of the cut-off i1 + i2 == m.
    rng = random.Random(seed)
    params = RingParams(rng.randint(1, 3), rng.randint(4, 6))
    for sizes, packed in (((8, 16), True), ((9, 16), True), ((12, 20), True),
                          ((9, 14), False), ((7, 18), False)):
        ranges = [rng.choice(((-10 ** 12, -10 ** 12 + 7), (10 ** 12 - 7, 10 ** 12), (-4, 3)))
                  for _ in sizes]
        x, y = (exact_elem(rng, params, n, rng.choice((1, 7, 10 ** 6)), l_range)
                for n, l_range in zip(sizes, ranges))
        assert packs(x, y) == packs(y, x) == packed
        assert_matches_reference(x, y)
        assert_matches_reference(y, x)


def test_packed_products_cancel_exactly():
    params = RingParams(2, 5)
    rng = random.Random(12)
    # (A + B)(A - B) = A^2 - B^2: A on even and B on odd z-exponents, so
    # every cross term, on an odd z-exponent, cancels.
    even = exact_elem(rng, params, 12, 10 ** 6, (-6, 6), orders=(0, 1, 2))
    even = RingElem(params, {(2 * l, i): c for (l, i), c in even.terms.items()})
    odd = exact_elem(rng, params, 12, 7, (-6, 6), orders=(0, 1, 2))
    odd = RingElem(params, {(2 * l + 1, i): c for (l, i), c in odd.terms.items()})
    x, y = even + odd, even - odd
    assert packs(x, y)
    assert_matches_reference(x, y)
    assert x * y == even * even - odd * odd
    assert all(l % 2 == 0 for l, _ in (x * y).nums)
    # Every u-order sum reaches m = 5: the product is the zero form.
    high = exact_elem(rng, params, 12, 10 ** 6, (-3, 3), orders=(2, 3, 4))
    low = exact_elem(rng, params, 12, 10 ** 6, (-3, 3), orders=(3, 4))
    assert packs(high, low)
    assert_matches_reference(high, low)
    assert ((high * low).den, (high * low).nums) == (1, {})


@pytest.mark.parametrize("magnitude", [1, 3, 2 ** 7 - 1, 2 ** 30 - 1, 10 ** 12, 3 ** 60])
def test_packed_product_reaches_its_slot_bound(magnitude):
    # Equal numerators on consecutive z-exponents: the middle coefficient
    # of the product is the slot bound max|a| max|b| min(len a, len b)
    # = 16 magnitude^2 itself, with either sign.  At magnitudes 3 and
    # 2^30 - 1 the bound has 8 and 64 bits, so the slot has room for it
    # only through its sign bit.
    params = RingParams(1, 2)
    for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
        x = RingElem(params, {(l, i): sa * magnitude for l in range(8) for i in (0, 1)})
        y = RingElem(params, {(l, i): sb * magnitude for l in range(-5, 5) for i in (0, 1)})
        assert packs(x, y)
        assert_matches_reference(x, y)
        assert (x * y).coeff(2, 1) == 2 * sa * sb * 8 * magnitude ** 2


def test_a_product_too_wide_to_pack_keeps_the_pair_loop():
    # 16 * 16 term pairs, but with z-exponents 10^12 apart the packed
    # integers would need 10^12 slots; the pair loop and its
    # first-occurrence order are kept.
    params = RingParams(1, 3)
    rng = random.Random(5)
    x = exact_elem(rng, params, 16, 10 ** 6, (-4, 4))
    far = exact_elem(rng, params, 8, 10 ** 6, (10 ** 12, 10 ** 12 + 4))
    y = far + exact_elem(rng, params, 8, 10 ** 6, (-4, 4))
    assert len(x.nums) * len(y.nums) >= _PACK_PAIRS and not packs(x, y)
    assert_matches_reference(x, y)
    assert_matches_reference(y, x)


def _counting(monkeypatch, names):
    calls = []
    for name in names:
        original = getattr(Fraction, name)

        def wrapper(a, b, _original=original, _name=name):
            calls.append(_name)
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, wrapper)
    return calls


def test_products_make_no_per_term_fraction_arithmetic(monkeypatch):
    # A product may build one Fraction per output term, but must not
    # multiply or add Fractions per pair of terms.
    params = RingParams(2, 5)
    rng = random.Random(3)
    x = random_elem(rng, params, 6, 10 ** 6, (-5, 5))
    y = random_elem(rng, params, 6, 10 ** 6, (-5, 5))
    unit_mono = RingElem.monomial(params, -3, 2)
    wide_x = exact_elem(rng, params, 12, 10 ** 6, (-5, 5))
    wide_y = exact_elem(rng, params, 16, 10 ** 6, (-5, 5))
    assert packs(wide_x, wide_y)
    calls = _counting(monkeypatch, ("__mul__", "__rmul__", "__add__", "__radd__"))
    xy = x * y
    shifted = unit_mono * x
    moved = x * unit_mono
    wide = wide_x * wide_y
    assert calls == []
    assert len(xy.terms) > 1 and len(shifted.terms) > 1 and len(wide.terms) > 1
    assert list(moved.terms.items()) == list(shifted.terms.items())
    # The wrappers count: one Fraction product is seen.
    Fraction(1, 2) * Fraction(1, 3)
    assert calls == ["__mul__"]


# -- the stored integer form --------------------------------------------------


def assert_canonical(x):
    """den >= 1, numerators nonzero and coprime to den as a whole, terms its view."""
    assert type(x.den) is int and x.den >= 1
    assert all(type(n) is int and n for n in x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1
    assert list(x.terms.items()) == [(key, Fraction(n, x.den)) for key, n in x.nums.items()]


def _reference_combine(x, y, sign):
    # The Fraction merge the integer form replaced: x's terms, then y's new ones.
    out = dict(x.terms)
    for key, c in y.terms.items():
        s = out.get(key)
        if s is None:
            out[key] = sign * c
        else:
            s = s + sign * c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _random_pair(rng, params):
    # Shared denominators make sums whose common factor must be divided out.
    dens = rng.choice(((1,), (2, 4), (6, 10, 15), (10 ** 6,), (1, 3, 7)))
    out = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            key = (rng.randint(-4, 4), rng.randrange(params.m))
            terms[key] = Fraction(rng.randint(-12, 12), rng.choice(dens))
        out.append(RingElem(params, terms))
    return out


@pytest.mark.parametrize("seed", range(16))
def test_every_operation_keeps_the_integer_form_canonical(seed):
    rng = random.Random(seed)
    params = RingParams(rng.randint(1, 3), rng.randint(1, 5))
    for _ in range(12):
        x, y = _random_pair(rng, params)
        if rng.random() < 0.3:
            y = x.scale(rng.choice((-1, Fraction(1, 2), 3)))
        c = rng.choice((0, 1, -1, 6, Fraction(3, 4), Fraction(-10, 7), Fraction(1, 30)))
        dl, di = rng.randint(-3, 3), rng.randrange(params.m)
        j = rng.randint(1, 4)
        m_new = rng.randint(1, params.m)
        results = {
            "add": (x + y, _reference_combine(x, y, 1)),
            "sub": (x - y, _reference_combine(x, y, -1)),
            "neg": (-x, {key: -v for key, v in x.terms.items()}),
            "scale": (x.scale(c), {key: c * v for key, v in x.terms.items() if c}),
            "shift": (x.shift(dl), {(l + dl, i): v for (l, i), v in x.terms.items()}),
            "monomial": (x * RingElem.monomial(params, dl, di),
                         {(l + dl, i + di): v for (l, i), v in x.terms.items()
                          if i + di < params.m}),
            "select": (x.select(lambda l, i: (l + i) % 2 == 0),
                       {(l, i): v for (l, i), v in x.terms.items() if (l + i) % 2 == 0}),
            "truncate": (truncate(x, m_new),
                         {(l, i): v for (l, i), v in x.terms.items() if i < m_new}),
        }
        k = params.k
        sectors = [{} for _ in range(3)]
        for (l, i), v in x.terms.items():
            sectors[0 if l >= j else 2 if l + j <= k * i else 1][(l, i)] = v
        for name, part, want in zip(("succ", "good", "prec"), sector_split(x, j), sectors):
            results[name] = (part, want)
        for name, (got, want) in results.items():
            assert_canonical(got)
            # Values and term order, against the Fraction reference.
            assert list(got.terms.items()) == list(want.items()), name
        assert_canonical(x * y)
        unit = (RingElem.constant(params, rng.choice((1, -2, Fraction(5, 6))))
                + y.select(lambda l, i: i >= 1))
        inverse = invert_unit(unit)
        assert_canonical(inverse)
        assert unit * inverse == RingElem.one(params)


@pytest.mark.parametrize("seed", range(8))
def test_equality_is_equality_of_fraction_terms(seed):
    rng = random.Random(100 + seed)
    params = RingParams(rng.randint(1, 3), rng.randint(1, 4))
    for _ in range(20):
        x, y = _random_pair(rng, params)
        # Equal elements reached by different routes, and near misses.
        for other in (y, (x + y) - y, x.scale(1), RingElem(params, dict(x.terms)),
                      x.scale(Fraction(3, 2)).scale(Fraction(2, 3)), x + RingElem.one(params),
                      x.shift(1).shift(-1), x.scale(2)):
            assert (x == other) == (dict(x.terms) == dict(other.terms))
    assert RingElem.zero(params) != RingElem.zero(RingParams(params.k, params.m + 1))


def test_product_denominator_cancels():
    params = RingParams(1, 3)
    half_z = RingElem.monomial(params, 1, 0, Fraction(1, 2))
    two_u = RingElem.monomial(params, 0, 1, 2)
    for prod in (half_z * two_u, two_u * half_z, (half_z + half_z.shift(1)) * two_u):
        assert_canonical(prod)
    prod = half_z * two_u
    assert (prod.den, prod.nums) == (1, {(1, 1): 1})
    assert prod == RingElem.monomial(params, 1, 1)


def test_sum_denominator_cancels():
    params = RingParams(1, 2)
    x = RingElem.constant(params, Fraction(1, 6)) + RingElem.constant(params, Fraction(1, 3))
    assert (x.den, x.nums) == (2, {(0, 0): 1})
    y = (RingElem(params, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
         + RingElem(params, {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 2)}))
    assert (y.den, y.nums) == (1, {(0, 0): 1})


def test_a_zero_summand_gives_the_other_summand():
    # Zero has den 1, so zero + y and zero - y are y and -y in den, nums and
    # key order, with y's terms fewer and more than _PACK_PAIRS.
    rng = random.Random(30)
    params = RingParams(2, 4)
    zero = RingElem.zero(params)
    for nterms in (6, _PACK_PAIRS + 8):
        y = exact_elem(rng, params, nterms, 10 ** 6, (-40, 40))
        assert y.den > 1 and len(y.nums) == nterms
        for got, want, sign in ((zero + y, y, 1), (zero - y, -y, -1)):
            assert_canonical(got)
            assert (got.den, list(got.nums.items())) == (want.den, list(want.nums.items()))
            assert list(got.terms.items()) == list(_reference_combine(zero, y, sign).items())
        assert y + zero is y and y - zero is y


def test_projections_drop_the_only_term_carrying_a_prime_of_den():
    # x = z^3 / 2 + z u^2 / 3 over den 6; each projection keeps one term.
    params = RingParams(1, 3)
    x = RingElem(params, {(3, 0): Fraction(1, 2), (1, 2): Fraction(1, 3)})
    assert (x.den, x.nums) == (6, {(3, 0): 3, (1, 2): 2})
    half_z3 = RingElem.monomial(params, 3, 0, Fraction(1, 2))
    third_zu2 = RingElem.monomial(params, 1, 2, Fraction(1, 3))
    assert x.select(lambda l, i: i == 0) == half_z3
    assert truncate(x, 2) == truncate(half_z3, 2)
    u = RingElem.monomial(params, 0, 1)
    assert x * u == half_z3 * u
    assert sector_split(x, 2) == (half_z3, third_zu2, RingElem.zero(params))
    # A product by a monomial divisible by u drops z u^3 = 0, in either order.
    parts = (x.select(lambda l, i: i == 0), truncate(x, 2), x * RingElem.monomial(params, -1, 1),
             u * x, x * u,
             *sector_split(x, 2))
    assert [(part.den, part.nums) for part in parts] == [
        (2, {(3, 0): 1}), (2, {(3, 0): 1}), (2, {(2, 1): 1}), (2, {(3, 1): 1}), (2, {(3, 1): 1}),
        (2, {(3, 0): 1}), (3, {(1, 2): 1}), (1, {})]


def test_cancellation_to_zero_is_the_zero_form():
    params = RingParams(2, 3)
    x = RingElem(params, {(0, 0): Fraction(-5, 6), (4, 1): Fraction(7, 10), (-1, 2): 3})
    for zero in (x - x, x + (-x), -x + x, x.scale(0), x * RingElem.zero(params)):
        assert (zero.den, zero.nums) == (1, {})
        assert zero == RingElem.zero(params) and not zero.terms


def test_ring_elements_are_immutable():
    x = RingElem(RingParams(1, 2), {(0, 0): Fraction(1, 2), (1, 1): 3})
    for name, value in (("den", 1), ("nums", {}), ("terms", {}), ("params", RingParams(1, 3))):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(TypeError):
        x.terms[(0, 0)] = Fraction(1)
    assert (x.den, x.nums) == (2, {(0, 0): 1, (1, 1): 6})
    assert dict(x.terms) == {(0, 0): Fraction(1, 2), (1, 1): Fraction(3)}


def value_instances():
    """One instance of each of the nine value classes, in the order of VALUE_CLASSES."""
    params = ModuliParams(RingParams(1, 3), 2)
    rng = random.Random(3)
    p = sample_ext_class(params, rng)
    g = sample_group_elem(params, rng)
    pair = cocycle_matrices(g, p)
    return (params.ring, pair.A.a11, params, p, pair.A, g.c, g, pair, hom_ext_dims(p, p))


VALUE_CLASSES = [RingParams, RingElem, ModuliParams, ExtClass, Mat2, TwistedSection, GroupElem,
                 CocyclePair, HomProfile]


def test_value_classes_are_immutable():
    values = value_instances()
    p, g = values[VALUE_CLASSES.index(ExtClass)], values[VALUE_CLASSES.index(GroupElem)]
    q = act(g, p)
    for obj in values:
        cls = type(obj)
        before = repr(obj)
        for name in cls.__slots__:
            with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
                delattr(obj, name)
        assert repr(obj) == before
    assert [type(obj) for obj in values] == VALUE_CLASSES
    assert act(g, p) == q


def test_value_classes_copy_and_pickle():
    for obj in value_instances():
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj
    pair = value_instances()[VALUE_CLASSES.index(CocyclePair)]
    assert {name: getattr(pair, name) for name in pair.__slots__} == {"A": pair.A, "B": pair.B}
    # Copies go back through the constructor, so a value built past it is checked again.
    bad = object.__new__(HomProfile)
    for name, value in zip(HomProfile.__slots__, (4, 0, 1, 1, 1)):
        object.__setattr__(bad, name, value)
    with pytest.raises(ConsistencyError, match="do not add up"):
        copy.copy(bad)


def test_value_classes_take_keywords_and_hash_by_their_fields():
    ring = RingParams(k=1, m=3)
    params = ModuliParams(ring=ring, j=2)
    assert (params.k, params.m, params.j) == (1, 3, 2)
    _, elem, _, p, mat, sec, g, pair, profile = value_instances()
    assert CocyclePair(A=pair.A, B=pair.B) == pair
    assert TwistedSection(s=sec.s, rep=sec.rep) == sec
    assert HomProfile(**profile.to_dict()) == profile
    for x, twin in ((ring, RingParams(1, 3)), (params, ModuliParams(RingParams(1, 3), 2)),
                    (profile, HomProfile(**profile.to_dict()))):
        assert twin is not x and hash(twin) == hash(x) and {x: "x"}[twin] == "x"
    for obj in (elem, p, g, mat, sec, pair):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    assert repr(RingParams(1, 3)) == "RingParams(k=1, m=3)"


def unlike_values():
    """For each value class, two instances that differ in every field."""
    rng = random.Random(5)
    small, large = ModuliParams(RingParams(1, 3), 2), ModuliParams(RingParams(2, 4), 3)
    p, q = sample_ext_class(small, rng), sample_ext_class(large, rng)
    g, h = sample_group_elem(small, rng), sample_group_elem(large, rng)
    return {
        RingParams: (small.ring, large.ring),
        RingElem: (RingElem(small.ring, {(0, 1): Fraction(1, 2)}),
                   RingElem(large.ring, {(1, 2): Fraction(2, 3)})),
        ModuliParams: (small, large),
        ExtClass: (p, q),
        Mat2: (cocycle_matrices(g, p).A, cocycle_matrices(h, q).A),
        TwistedSection: (g.c, h.c),
        GroupElem: (g, h),
        CocyclePair: (cocycle_matrices(g, p), cocycle_matrices(h, q)),
        HomProfile: (HomProfile(3, 1, 1, 1, 1), HomProfile(9, 2, 3, 4, 2)),
    }


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_value_classes_compare_field_by_field(cls):
    x, y = unlike_values()[cls]
    twin = copy.copy(x)
    assert twin is not x and twin == x and not twin != x
    names = cls.__slots__
    for n, name in enumerate(names):
        assert getattr(x, name) != getattr(y, name)
        fields = [getattr(x, f) for f in names]
        fields[n] = getattr(y, name)
        # Built past the constructor: a lone field of y may not validate with x's others.
        variant = object.__new__(cls)
        for slot, value in zip(names, fields):
            object.__setattr__(variant, slot, value)
        assert variant != x and x != variant
    if cls is ExtClass:
        assert x != x.p and x.p != x
    if cls is Mat2:
        assert x != x.entries() and x.entries() != x


def test_mat2_repr_shows_its_entries():
    params = ModuliParams(RingParams(1, 3), 2)
    rng = random.Random(3)
    pair = cocycle_matrices(sample_group_elem(params, rng), sample_ext_class(params, rng))
    for mat in (pair.A, pair.B):
        assert repr(mat).startswith("Mat2(a11=")
        assert all(repr(e) in repr(mat) for e in mat.entries())
        assert repr(mat) in repr(pair)


@settings(max_examples=150, deadline=None)
@given(ring_elem_triples())
def test_ring_laws(triple):
    x, y, z = triple
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == RingElem.zero(x.params)


@settings(max_examples=150, deadline=None)
@given(ring_elem_triples())
def test_subtraction_merges_like_adding_the_negative(triple):
    # Same terms in the same order as x + (-y), cancellations dropped.
    x, y, _ = triple
    for a, b in ((x, y), (x, x), (x + y, y)):
        assert list((a - b).terms.items()) == list((a + (-b)).terms.items())
    assert not (x - x).terms


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
    succ, good, prec = sector_split(x, 2)
    assert succ == RingElem.monomial(params, 3, 1)
    assert good == RingElem.monomial(params, 1, 1)
    assert prec == RingElem.monomial(params, -1, 1)


def test_sector_split_band_only_input():
    params = RingParams(1, 3)
    x = elem(params, (0, 1, 2), (1, 1, -1), (1, 2, 3))
    succ, good, prec = sector_split(x, 2)
    assert succ.is_zero() and prec.is_zero()
    assert good == x


def test_sector_split_boundary_goes_to_prec():
    # l + j = 2 <= k*i = 2 at the threshold.
    params = RingParams(1, 3)
    succ, good, prec = sector_split(RingElem.monomial(params, 0, 2), 2)
    assert prec == RingElem.monomial(params, 0, 2)
    assert succ.is_zero() and good.is_zero()


def test_sector_split_places_zero_layer_by_the_same_thresholds():
    # On i = 0: l >= j to succ, l <= -j to prec, |l| < j to good.
    params = RingParams(2, 3)
    x = elem(params, (3, 0, 1), (2, 0, 2), (1, 0, 3), (0, 0, 4), (-1, 0, 5),
             (-2, 0, 6), (-5, 0, 7))
    succ, good, prec = sector_split(x, 2)
    assert succ == elem(params, (3, 0, 1), (2, 0, 2))
    assert good == elem(params, (1, 0, 3), (0, 0, 4), (-1, 0, 5))
    assert prec == elem(params, (-2, 0, 6), (-5, 0, 7))


@settings(max_examples=120, deadline=None)
@given(ring_elems(), st.integers(1, 4))
def test_sector_split_reconstruction(x, j):
    succ, good, prec = sector_split(x, j)
    assert succ + good + prec == x
    assert not (set(succ.terms) & set(good.terms))
    assert not (set(succ.terms) & set(prec.terms))
    assert not (set(good.terms) & set(prec.terms))
    k = x.params.k
    assert all(l >= j for (l, _) in succ.terms)
    assert all(l + j <= k * i for (l, i) in prec.terms)
    assert all(k * i - j + 1 <= l <= j - 1 for (l, i) in good.terms)


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
    assert x - plus == x.select(lambda l, i: l <= x.params.k * i)
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
    for part, tpart in zip(sector_split(x, j), sector_split(tx, j)):
        assert truncate(part, m_new) == tpart
    assert truncate(plus_part(x), m_new) == plus_part(tx)
    assert truncate(x - plus_part(x), m_new) == tx - plus_part(tx)
    assert (tx - plus_part(tx)).is_v_regular()


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
    for bad in (True, False, 0.5, None, "1/0", "x", "1e5", "1.5", " 1/2"):
        with pytest.raises(ValueError):
            _as_fraction(bad)


def test_json_rejects_duplicate_terms():
    data = {"k": 1, "m": 2, "terms": [
        {"l": 0, "i": 0, "num": 1, "den": 1},
        {"l": 0, "i": 0, "num": 2, "den": 1},
    ]}
    with pytest.raises(ValueError, match="duplicate"):
        elem_from_dict(data)
