"""The corrected action, cocycle pairs, and the groupoid laws."""

import multiprocessing
from fractions import Fraction

import pytest

from negcurve import groupoid
from negcurve.extensions import ExtClass, Mat2, ModuliParams, basis_W, restrict_level
from negcurve.groupoid import (CocyclePair, GroupElem, act, cech_parts, cocycle_matrices,
                               extract_group_elem, induced_inverse, induced_product,
                               sample_ext_class, sample_group_elem, substream, verify_groupoid)
from negcurve.ring import RingElem, RingParams, invert_unit, plus_part, sector_split
from negcurve.sections import h0_basis
from test_acceptance import GRID


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


MP = params_of(1, 2, 3)


def gelem(params, a, b, c, d):
    return GroupElem.from_reps(params, a, b, c, d)


def diagonal(params, lam, mu):
    """The diagonal automorphism (lam, 0; 0, mu) with constant entries."""
    ring = params.ring
    return gelem(params, RingElem.constant(ring, lam), RingElem.zero(ring),
                 RingElem.zero(ring), RingElem.constant(ring, mu))


def to_vector(p):
    """The coefficients of p in basis_W order."""
    return [p.p.coeff(l, i) for (i, l) in basis_W(p.params)]


def mobius_series(g, p):
    """Independent oracle: the fractional-linear formula evaluated by a
    truncated geometric series, then projected to the band sector.

    Agrees with the corrected action whenever the chart corrections of
    the cocycle pair vanish, e.g. for c = 0 or the worked c = z example.
    """
    params = g.params
    j = params.j
    numer = g.a.rep * p.p - g.b.rep.shift(j)
    denom = g.d.rep - (p.p * g.c.rep).shift(-j)
    full = numer * invert_unit(denom)
    full_high = full.select(lambda l, i: i >= 1)
    return ExtClass(params, sector_split(full_high, j)[1])


# -- the action ---------------------------------------------------------------

def test_identity_acts_trivially():
    e = GroupElem.identity(MP)
    for vec in ([0, 0, 0], [1, 2, 5], [0, 0, 1]):
        p = ExtClass.from_vector(MP, vec)
        assert act(e, p) == p


def test_diagonal_scaling():
    g = diagonal(MP, 2, 1)
    p = ExtClass.from_vector(MP, [1, 1, 1])
    assert to_vector(act(g, p)) == [2, 2, 2]


def test_lower_triangular_example():
    # a = d = 1, c = z moves (0,1,0) to (0,1,1); cross-checked against
    # the series oracle, whose corrections vanish here.
    ring = MP.ring
    g = gelem(MP, RingElem.one(ring), RingElem.zero(ring),
              RingElem.monomial(ring, 1, 0), RingElem.one(ring))
    p = ExtClass.from_vector(MP, [0, 1, 0])
    q = act(g, p)
    assert to_vector(q) == [0, 1, 1]
    assert q == mobius_series(g, p)


def test_action_matches_series_for_vanishing_c():
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 3, 3)]:
        params = params_of(k, j, m)
        for idx in range(40):
            rng = substream(1001, idx)
            g_full = sample_group_elem(params, rng)
            g = gelem(params, g_full.a.rep, g_full.b.rep,
                      RingElem.zero(params.ring), g_full.d.rep)
            p = sample_ext_class(params, rng)
            assert act(g, p) == mobius_series(g, p)


def test_first_level_action_is_scaling():
    # At m = 2 the orbit of p is its line: act(g, p) = (a00/d00) * p.
    for (k, j) in [(1, 2), (1, 3), (2, 3)]:
        params = params_of(k, j, 2)
        for idx in range(40):
            rng = substream(77, idx)
            g = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            scalar = g.a.rep.coeff(0, 0) / g.d.rep.coeff(0, 0)
            assert act(g, p).p == p.p.scale(scalar)


def test_act_rejects_mismatched_params():
    g = GroupElem.identity(MP)
    params = params_of(1, 2, 2)
    p = ExtClass(params, RingElem.zero(params.ring))
    with pytest.raises(ValueError, match="mismatched"):
        act(g, p)


# -- cocycle pairs ------------------------------------------------------------

def test_identity_pair_is_identity_matrix():
    p = ExtClass.from_vector(MP, [1, 2, 5])
    pair = cocycle_matrices(GroupElem.identity(MP), p)
    one, zero = RingElem.one(MP.ring), RingElem.zero(MP.ring)
    assert pair.A == Mat2(one, zero, zero, one)
    assert pair.B == Mat2(one, zero, zero, one)


def test_diagonal_pair_has_no_corrections():
    g = diagonal(MP, 3, Fraction(1, 2))
    p = ExtClass.from_vector(MP, [1, 0, 2])
    pair = cocycle_matrices(g, p)
    ring = MP.ring
    assert pair.A.a11 == RingElem.constant(ring, 3)
    assert pair.A.a22 == RingElem.constant(ring, Fraction(1, 2))
    assert pair.A.a12.is_zero() and pair.A.a21.is_zero()
    assert pair.B == pair.A


def test_pair_intertwines_exactly():
    ring = MP.ring
    g = gelem(MP, RingElem.one(ring), RingElem.zero(ring),
              RingElem.monomial(ring, 1, 0), RingElem.one(ring))
    p = ExtClass.from_vector(MP, [0, 1, 0])
    q = act(g, p)
    pair = cocycle_matrices(g, p)
    assert pair.intertwines(p, q)
    assert pair.is_chart_regular()
    assert pair.B * p.transition() == q.transition() * pair.A


def test_pair_intertwines_with_large_c_corrections():
    # c of top z-degree forces nonzero chart corrections in both A and B.
    params = params_of(1, 3, 3)
    ring = params.ring
    g = gelem(params, RingElem.one(ring), RingElem.zero(ring),
              RingElem.monomial(ring, 6, 0), RingElem.one(ring))
    p = ExtClass(params, RingElem.monomial(ring, -1, 1))
    q = act(g, p)
    pair = cocycle_matrices(g, p)
    assert pair.intertwines(p, q)
    assert pair.is_chart_regular()
    assert not (pair.A.a11 - g.a.rep).is_zero()  # corrections present
    # The series formula disagrees here; only the pair condition is right.
    assert mobius_series(g, p) != q


@pytest.mark.parametrize("density", ["sparse", "full"])
def test_gluing_does_not_read_b(density):
    # b enters the canonical pair only linearly, in A12 = b + z^-j succ and
    # B12 = z^2j b - z^j prec.  So on the criterion-5 grid, replacing b by
    # b + delta, another section of O(-2j), leaves the action and the pair
    # core as they are and moves A12 by delta and B12 by z^2j delta, and
    # nothing else.  O(-2j) has sections at five of the fifteen tuples.
    moved = 0
    for (k, j, m) in GRID:
        params = params_of(k, j, m)
        ring, basis_b = params.ring, h0_basis(-2 * j, params.ring)
        if not basis_b:
            continue
        for idx in range(3):
            rng = substream(4242, 100 * k + 10 * j + m + 1000 * idx)
            if density == "full":
                g, p = full_group_elem(params, rng), full_ext_class(params, rng)
                delta = RingElem(ring, _generic_terms(basis_b, rng))
            else:
                g, p = sample_group_elem(params, rng), sample_ext_class(params, rng)
                delta = RingElem(ring, {t: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 2)
                                        for t in rng.sample(basis_b, min(2, len(basis_b)))})
            h = gelem(params, g.a.rep, g.b.rep + delta, g.c.rep, g.d.rep)
            q, q_moved = act(g, p), act(h, p)
            assert q_moved == q
            assert (groupoid._pair_core(h.a.rep, h.c.rep, h.d.rep, p, q_moved)
                    == groupoid._pair_core(g.a.rep, g.c.rep, g.d.rep, p, q))
            pair, moved_pair = cocycle_matrices(g, p), cocycle_matrices(h, p)
            A, B = pair.A, pair.B
            assert moved_pair.A == Mat2(A.a11, A.a12 + delta, A.a21, A.a22)
            assert moved_pair.B == Mat2(B.a11, B.a12 + delta.shift(2 * j), B.a21, B.a22)
            moved += 1
    assert moved == 15


def test_extract_round_trip_sampled():
    for (k, j, m) in [(1, 2, 3), (2, 3, 4), (3, 3, 2)]:
        params = params_of(k, j, m)
        for idx in range(30):
            rng = substream(4242, idx)
            g = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            q = act(g, p)
            pair = cocycle_matrices(g, p)
            assert extract_group_elem(pair.A, pair.B.a11, p, q) == g


def test_extract_identity_and_diagonal():
    p = ExtClass.from_vector(MP, [1, 2, 5])
    e = GroupElem.identity(MP)
    pair = cocycle_matrices(e, p)
    assert extract_group_elem(pair.A, pair.B.a11, p, p) == e
    g = diagonal(MP, 5, 1)
    q = act(g, p)
    pair = cocycle_matrices(g, p)
    assert extract_group_elem(pair.A, pair.B.a11, p, q) == g


def test_extract_rejects_garbage():
    ring = MP.ring
    p = ExtClass.from_vector(MP, [1, 0, 0])
    bad = Mat2(RingElem.one(ring), RingElem.zero(ring),
               RingElem.zero(ring), RingElem.monomial(ring, 1, 1))
    with pytest.raises(ValueError, match="normalized cocycle pair"):
        extract_group_elem(bad, RingElem.one(ring), p, p)


def test_extract_rejects_degenerate_determinant():
    ring = MP.ring
    p = ExtClass(MP, RingElem.zero(ring))
    u = RingElem.monomial(ring, 0, 1)
    A = Mat2(u, RingElem.zero(ring), RingElem.zero(ring), u)
    with pytest.raises(ValueError, match="not invertible"):
        extract_group_elem(A, u, p, p)


def test_extract_rejects_wrong_b11_at_zero_class():
    # At p = 0 the entry B11 is multiplied by p = 0 in the band equation,
    # so only comparing B11 itself with the canonical one catches it.
    p = ExtClass(MP, RingElem.zero(MP.ring))
    u = RingElem.monomial(MP.ring, 0, 1)
    for idx in range(10):
        g = sample_group_elem(MP, substream(515, idx))
        q = act(g, p)
        pair = cocycle_matrices(g, p)
        assert extract_group_elem(pair.A, pair.B.a11, p, q) == g
        with pytest.raises(ValueError, match="normalized cocycle pair"):
            extract_group_elem(pair.A, pair.B.a11 + u, p, q)


# -- induced product and inverse ----------------------------------------------

def test_diagonal_product():
    g1 = diagonal(MP, 2, 1)
    g2 = diagonal(MP, 3, 1)
    for vec in ([0, 0, 0], [1, 2, 5]):
        p = ExtClass.from_vector(MP, vec)
        assert induced_product(g1, g2, p) == diagonal(MP, 6, 1)


def test_product_at_origin_is_matrix_product():
    def matrix(g):
        """The first-chart matrix (a, b_U; c_U, d) of g."""
        return Mat2(g.a.rep, g.b.rep, g.c.rep, g.d.rep)

    zero = ExtClass(MP, RingElem.zero(MP.ring))
    for idx in range(25):
        rng = substream(31337, idx)
        g1 = sample_group_elem(MP, rng)
        g2 = sample_group_elem(MP, rng)
        assert matrix(induced_product(g1, g2, zero)) == matrix(g1) * matrix(g2)


def test_product_compatibility_and_pair_multiplicativity():
    for (k, j, m) in [(1, 2, 3), (2, 3, 3)]:
        params = params_of(k, j, m)
        for idx in range(25):
            rng = substream(999, idx)
            g1 = sample_group_elem(params, rng)
            g2 = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            h = induced_product(g1, g2, p)
            q = act(g2, p)
            assert act(h, p) == act(g1, q)
            pair1, pair2 = cocycle_matrices(g1, q), cocycle_matrices(g2, p)
            assert pair1.A * pair2.A == cocycle_matrices(h, p).A
            assert pair1.B * pair2.B == cocycle_matrices(h, p).B


def test_inverse_of_identity_and_diagonal():
    p = ExtClass.from_vector(MP, [1, 2, 5])
    e = GroupElem.identity(MP)
    assert induced_inverse(e, p) == e
    g = diagonal(MP, 4, 1)
    assert induced_inverse(g, p) == diagonal(MP, Fraction(1, 4), 1)


def test_inverse_laws_sampled():
    e = GroupElem.identity(MP)
    for idx in range(25):
        rng = substream(2718, idx)
        g = sample_group_elem(MP, rng)
        p = sample_ext_class(MP, rng)
        q = act(g, p)
        ginv = induced_inverse(g, p)
        assert act(ginv, q) == p
        assert induced_product(ginv, g, p) == e
        assert induced_product(g, ginv, q) == e


def test_truncation_commutes_with_everything():
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]:
        params = params_of(k, j, m)
        for idx in range(20):
            rng = substream(55, idx)
            g1 = sample_group_elem(params, rng)
            g2 = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            m_new = m - 1
            tp = restrict_level(p, m_new)
            assert act(g1.truncated(m_new), tp) == restrict_level(act(g1, p), m_new)
            assert (induced_product(g1.truncated(m_new), g2.truncated(m_new), tp)
                    == induced_product(g1, g2, p).truncated(m_new))
            assert (induced_inverse(g1.truncated(m_new), tp)
                    == induced_inverse(g1, p).truncated(m_new))


# -- the shortened paths against the full ones ---------------------------------

# Copies of the Cech split, the action and the pair builder as they were
# before the action stopped at its last band layer and the split became
# one pass; kept only as the references the shortened paths must match.


def _reference_cech_parts(c, x, j):
    y = (c * x).shift(-j)
    return plus_part(y), y.select(lambda l, i: l <= y.params.k * i)


def _reference_act(g, p):
    # The full residual update runs after every band layer, the last included.
    params = g.params
    j = params.j
    a_rep, d_rep, c_rep = g.a.rep, g.d.rep, g.c.rep
    inv_d00 = 1 / d_rep.coeff(0, 0)
    a22 = d_rep + _reference_cech_parts(c_rep, p.p, j)[0]
    residual = a_rep * p.p
    sol = RingElem.zero(params.ring)
    for i in range(1, params.i_cap() + 1):
        band = params.band_rows(i)
        delta = residual.select(lambda l, ii: ii == i and l in band)
        if delta.is_zero():
            continue
        delta = delta.scale(inv_d00)
        sol = sol + delta
        _, f_delta = _reference_cech_parts(c_rep, delta, j)
        residual = residual - a22 * delta + f_delta * p.p
    return ExtClass(params, sol)


def _reference_pair(g, p, target):
    j = p.params.j
    a_rep, b_rep, c_rep, d_rep = g.a.rep, g.b.rep, g.c.rep, g.d.rep
    f_plus, f_v = _reference_cech_parts(c_rep, target.p, j)
    g_plus, g_v = _reference_cech_parts(c_rep, p.p, j)
    a11, b11, a22, b22 = a_rep - f_plus, a_rep + f_v, d_rep + g_plus, d_rep - g_v
    succ, good, prec = sector_split(b11 * p.p - target.p * a22, j)
    assert good.is_zero()
    return CocyclePair(Mat2(a11, b_rep + succ.shift(-j), c_rep, a22),
                       Mat2(b11, b_rep.shift(2 * j) - prec.shift(j), c_rep.shift(-2 * j), b22))


SWEEP_TUPLES = [(k, j, m) for k in (1, 2, 3) for j in (2, 3) for m in (2, 3, 4)
                if (2 * j - 2) // k >= 1]
LADDER_TUPLES = [(1, 2, 3), (1, 3, 4), (1, 4, 6), (1, 6, 8)]
DENSE = 10 ** 6  # as max_terms, the samplers fill every band and section monomial


def shortened_path_cases(k, j, m):
    """(g, p) pairs at (k, j, m): sparse and dense draws, the identity, and a
    class whose first band layer is zero when the band has a second one."""
    params = params_of(k, j, m)
    rng = substream(2121, 100 * k + 10 * j + m)
    cases = [(sample_group_elem(params, rng), sample_ext_class(params, rng)) for _ in range(6)]
    cases += [(sample_group_elem(params, rng, DENSE), sample_ext_class(params, rng, DENSE))
              for _ in range(1 if m > 6 else 2)]
    cases.append((GroupElem.identity(params), cases[-1][1]))
    upper = [c for (i, l), c in zip(basis_W(params), to_vector(cases[-1][1])) if i >= 2]
    if upper:
        zeros = len(basis_W(params)) - len(upper)
        cases.append((cases[-2][0], ExtClass.from_vector(params, [0] * zeros + upper)))
    return params, cases


@pytest.mark.parametrize("k,j,m", sorted(set(SWEEP_TUPLES + LADDER_TUPLES + [(3, 2, 3)])))
def test_shortened_paths_match_the_full_ones(k, j, m):
    params, cases = shortened_path_cases(k, j, m)
    if (k, j, m) == (3, 2, 3):
        assert basis_W(params) == []
    for g, p in cases:
        q = act(g, p)
        assert q == _reference_act(g, p)
        for x in (p.p, q.p, g.a.rep, g.d.rep * p.p):
            got = cech_parts(g.c.rep, x, j)
            want = _reference_cech_parts(g.c.rep, x, j)
            assert got == want
            # Same terms in the same order as the shifted product's.
            assert [list(part.terms.items()) for part in got] == \
                [list(part.terms.items()) for part in want]
        assert cocycle_matrices(g, p) == _reference_pair(g, p, q)
    g1, p = cases[0]
    g2 = cases[1][0]
    q = act(g2, p)
    q2 = act(g1, q)
    pair1, pair2 = _reference_pair(g1, q, q2), _reference_pair(g2, p, q)
    want = extract_group_elem(pair1.A * pair2.A,
                              pair1.B.a11 * pair2.B.a11 + pair1.B.a12 * pair2.B.a21, p, q2)
    assert induced_product(g1, g2, p, check=False) == induced_product(g1, g2, p) == want


def test_a_class_with_an_empty_first_band_layer():
    # At (1,3,4) the band has three u-orders; p lives on the second and third only.
    params = params_of(1, 3, 4)
    ring = params.ring
    p = ExtClass(params, RingElem(ring, {(1, 2): 2, (2, 3): Fraction(-1, 3)}))
    for idx in range(5):
        g = sample_group_elem(params, substream(31, idx), DENSE)
        q = act(g, p)
        assert q == _reference_act(g, p)
        assert cocycle_matrices(g, p) == _reference_pair(g, p, q)


def _count_products(monkeypatch):
    calls = []
    original = RingElem.__mul__

    def counted(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    return calls


def test_sweep_sample_product_count(monkeypatch):
    # 384.6 products a sample when the action ran the residual update after
    # its last band layer and formed A22 up front (seed 1, 60 samples).
    calls = _count_products(monkeypatch)
    report = verify_groupoid(ModuliParams(RingParams(2, 4), 3), 60, 1)
    assert report["all_passed"]
    assert len(calls) / 60 <= 335


def test_action_with_one_band_layer_makes_one_product(monkeypatch):
    # At (2,2,4) the band is the single u-order 1: the action is a * p read off
    # the band and scaled, with no Cech product and no residual update.
    params = params_of(2, 2, 4)
    assert params.i_cap() == 1
    rng = substream(224, 0)
    g = sample_group_elem(params, rng, DENSE)
    p = sample_ext_class(params, rng, DENSE)
    want = _reference_act(g, p)
    calls = _count_products(monkeypatch)
    assert act(g, p) == want
    assert calls == [(g.a.rep, p.p)]


# -- group element plumbing ----------------------------------------------------

def test_group_elem_validation():
    ring = MP.ring
    with pytest.raises(ValueError, match="not invertible"):
        gelem(MP, RingElem.zero(ring), RingElem.zero(ring),
              RingElem.zero(ring), RingElem.one(ring))
    with pytest.raises(ValueError):
        # b support violates the O(-2j) bound
        gelem(MP, RingElem.one(ring), RingElem.monomial(ring, 1, 1),
              RingElem.zero(ring), RingElem.one(ring))


def test_group_elem_json_round_trip():
    rng = substream(12, 0)
    g = sample_group_elem(MP, rng)
    assert GroupElem.from_dict(g.to_dict(), MP) == g
    bad = g.to_dict()
    bad["extra"] = []
    with pytest.raises(ValueError, match="unknown fields"):
        GroupElem.from_dict(bad, MP)


# -- randomized axiom verification ---------------------------------------------

def test_verify_groupoid_smoke():
    report = verify_groupoid(params_of(1, 2, 3), 60, 7, truncation_samples=30)
    assert report["all_passed"]
    assert report["families"]["associativity"]["checked"] == 60
    assert report["families"]["truncation"]["checked"] == 30
    assert report["families"]["roundtrip"]["passed"] == 60


def test_verify_groupoid_degenerate_band():
    # Empty band: only p = 0; all laws hold trivially but are still run.
    report = verify_groupoid(params_of(3, 1, 3), 25, 1)
    assert report["dim_W"] == 0
    assert report["all_passed"]


GENERIC_BOUND = 2 ** 40  # S = {+-1, ..., +-2^40}, so |S| = 2^41 nonzero integers


def _generic_terms(basis, rng):
    return {(l, i): rng.randint(1, GENERIC_BOUND) * rng.choice((-1, 1)) for (l, i) in basis}


def full_ext_class(params, rng):
    """A class with every band coefficient drawn from S."""
    basis = [(l, i) for (i, l) in basis_W(params)]
    return ExtClass(params, RingElem(params.ring, _generic_terms(basis, rng)))


def full_group_elem(params, rng):
    """An automorphism with every h0 monomial of each slot drawn from S."""
    ring, j = params.ring, params.j
    return gelem(params, *(RingElem(ring, _generic_terms(h0_basis(s, ring), rng))
                           for s in (0, -2 * j, 2 * j, 0)))


@pytest.mark.parametrize("k,j,m", GRID + [(1, 4, 6), (1, 6, 8), (2, 8, 10)])
def test_groupoid_laws_hold_at_a_generic_point(monkeypatch, k, j, m):
    """Every law family of ``_check_sample`` on one full-support sample.

    Each law equates rational functions of the N coefficients of
    (g1, g2, g3, p) whose only denominators are powers of the six units
    a(0,0), d(0,0) of g1, g2, g3: the action divides by d(0,0), inversion
    by det A(0,0) = a(0,0) d(0,0), and the a(0,0), d(0,0) of a product or
    an inverse are products of units.  Clearing them turns a false law
    into a nonzero polynomial Q, and a sample drawn uniformly from S^N is
    a zero of Q with probability at most deg(Q)/|S| (Schwartz, J. ACM 27
    (1980)).

    deg(Q) <= deg(m) = 13(2m - 1).  Each step of the computation is a
    ring operation, a projection by monomial position, a power of z or a
    division by a (0,0) coefficient, so it commutes with u -> t*u and
    with a constant diagonal gauge D_x = diag(lam_x, mu_x) at each base
    point x, which sends an element from s to t to D_t g D_s^-1 and a
    class at x to lam_x/mu_x times it.  So the law coefficients are
    homogeneous for both:
    - Weight 2i at u-order i, less 1 for b and p and plus 1 for c (the
      gauge lam_x = lam, mu_x = 1 everywhere), gives every coefficient
      but the units a weight >= 1, and a law coefficient a weight
      <= 2m - 1; so a monomial has nu <= 2m - 1 factors besides units.
    - In each family the elements join the base points in a tree (at
      most p -> q3 -> q23 -> q123).  Summing the gauge degrees over the
      side of an element's edge that holds its target fixes the exponent
      of each of its units to within nu of a constant in {-1, 0, 1}.
    Clearing denominators thus adds at most nu + 2m - 1 per unit, and
    deg(Q) <= nu + 6(nu + 2m - 1) <= 13(2m - 1): 247 at the largest m
    here (m = 10), so a false law passes one sample with probability at
    most 247/2^41 < 1.2e-10.
    """
    monkeypatch.setattr(groupoid, "sample_ext_class", full_ext_class)
    monkeypatch.setattr(groupoid, "sample_group_elem", full_group_elem)
    params = params_of(k, j, m)
    results = groupoid._check_sample(params, substream(40, 100 * k + 10 * j + m),
                                     with_truncation=True)
    assert len(results) == 8 and all(results.values()), results  # truncation included


@pytest.mark.parametrize("samples,truncation_samples", [(0, 0), (-3, 0), (5, -4)])
def test_verify_groupoid_rejects_vacuous_counts(samples, truncation_samples):
    with pytest.raises(ValueError, match="samples"):
        verify_groupoid(params_of(1, 2, 3), samples, 0, truncation_samples=truncation_samples)


def test_verify_groupoid_deterministic_across_workers():
    a = verify_groupoid(params_of(1, 2, 3), 30, 99, truncation_samples=10, workers=1)
    b = verify_groupoid(params_of(1, 2, 3), 30, 99, truncation_samples=10, workers=2)
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_groupoid_reports_lowest_failing_sample(monkeypatch, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched check only when forked")
    samples, seed, truncation_samples = 16, 5, 6
    # With 2 workers the samples run in chunks of 4: a family that fails
    # in several chunks reports its lowest index, not its first chunk's.
    failing = {"associativity": {13, 6, 7}, "identity_laws": {14, 9}, "truncation": {2, 5}}
    families = ("identity_action", "compatibility", "associativity", "identity_laws",
                "inverse_laws", "intertwining", "roundtrip", "truncation")
    index_of = {substream(seed, idx).random(): idx for idx in range(samples)}

    def fake_check(params, rng, with_truncation):
        idx = index_of[rng.random()]
        assert with_truncation == (idx < truncation_samples)
        return {name: idx not in failing.get(name, ()) for name in families
                if with_truncation or name != "truncation"}

    monkeypatch.setattr(groupoid, "_check_sample", fake_check)
    report = verify_groupoid(MP, samples, seed, truncation_samples=truncation_samples,
                             workers=workers)
    for name, fam in report["families"].items():
        bad = failing.get(name, set())
        checked = truncation_samples if name == "truncation" else samples
        assert fam == {"checked": checked, "passed": checked - len(bad),
                       "first_failure_sample": min(bad, default=None)}
    assert len(report["families"]) == len(families)
    assert not report["all_passed"]
