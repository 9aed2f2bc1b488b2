"""The corrected action, cocycle pairs, and the groupoid laws."""

import multiprocessing
from fractions import Fraction

import pytest

from negcurve import groupoid
from negcurve.extensions import ExtClass, Mat2, ModuliParams, basis_W, restrict_level
from negcurve.groupoid import (GroupElem, act, cocycle_matrices, extract_group_elem,
                               induced_inverse, induced_product, sample_ext_class,
                               sample_group_elem, substream, verify_groupoid)
from negcurve.ring import RingElem, RingParams, invert_unit, sector_split


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
    p = ExtClass.zero(params_of(1, 2, 2))
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
    p = ExtClass.zero(MP)
    u = RingElem.monomial(ring, 0, 1)
    A = Mat2(u, RingElem.zero(ring), RingElem.zero(ring), u)
    with pytest.raises(ValueError, match="not invertible"):
        extract_group_elem(A, u, p, p)


def test_extract_rejects_wrong_b11_at_zero_class():
    # At p = 0 the entry B11 is multiplied by p = 0 in the band equation,
    # so only comparing B11 itself with the canonical one catches it.
    p = ExtClass.zero(MP)
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
    zero = ExtClass.zero(MP)
    for idx in range(25):
        rng = substream(31337, idx)
        g1 = sample_group_elem(MP, rng)
        g2 = sample_group_elem(MP, rng)
        assert induced_product(g1, g2, zero).matrix() == g1.matrix() * g2.matrix()


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
