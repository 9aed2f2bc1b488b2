"""Isomorphism decision, witness condition, and Hom/Ext dimensions."""

from fractions import Fraction

import pytest

from negcurve import linalg
from negcurve.extensions import ExtClass, Mat2, ModuliParams, basis_W, ext1_band
from negcurve.groupoid import (CocyclePair, GroupElem, act, sample_ext_class,
                               sample_group_elem, substream)
from negcurve.homspaces import (brute_force_hom, build_linear_system, default_degree_bound,
                                hom_ext_dims, isom_decide, spectral_differentials,
                                witness_condition)
from negcurve.ring import RingElem, RingParams
from negcurve.sections import h0_basis, h0_dim, h1_dim


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


MP = params_of(1, 2, 3)


def ec(vec, params=MP):
    return ExtClass.from_vector(params, vec)


# -- witness condition ---------------------------------------------------------

def test_witness_identity_and_scaling():
    p = ec([1, 2, 5])
    e = GroupElem.identity(MP)
    assert witness_condition(e, p, p)
    g = GroupElem.diagonal(MP, 3, 1)
    assert witness_condition(g, p, ec([3, 6, 15]))
    assert not witness_condition(g, p, ec([3, 6, 0]))


def test_witness_lower_triangular_example():
    ring = MP.ring
    g = GroupElem.from_reps(MP, RingElem.one(ring), RingElem.zero(ring),
                            RingElem.monomial(ring, 1, 0), RingElem.one(ring))
    assert witness_condition(g, ec([0, 1, 0]), ec([0, 1, 1]))
    assert not witness_condition(g, ec([0, 1, 0]), ec([0, 1, 0]))


def test_witness_agrees_with_action_sampled():
    for (k, j, m) in [(1, 2, 3), (2, 3, 3), (1, 3, 4)]:
        params = params_of(k, j, m)
        for idx in range(25):
            rng = substream(808, idx)
            g = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            assert witness_condition(g, p, act(g, p))


# -- isomorphism decision --------------------------------------------------------

def test_example_orbit_third_coordinate_free():
    p = ec([1, 2, 5])
    for t in (0, -7, 13):
        w = isom_decide(p, ec([3, 6, t]))
        assert w is not None
        assert act(w, p) == ec([3, 6, t])


def test_example_orbit_origin_line():
    assert isom_decide(ec([0, 0, 1]), ec([0, 0, 9])) is not None
    assert isom_decide(ec([0, 0, 1]), ec([1, 0, 0])) is None
    assert isom_decide(ec([1, 0, 0]), ec([0, 1, 0])) is None


def test_zero_class_isomorphic_to_itself_only():
    zero = ExtClass.zero(MP)
    assert isom_decide(zero, zero) is not None
    assert isom_decide(zero, ec([1, 0, 0])) is None
    assert isom_decide(ec([1, 0, 0]), zero) is None


def test_first_level_projectivization():
    params = params_of(1, 2, 2)
    p = ec([1, 2], params)
    assert isom_decide(p, ec([2, 4], params)) is not None
    assert isom_decide(p, ec([Fraction(1, 2), 1], params)) is not None
    assert isom_decide(p, ec([1, 3], params)) is None
    assert isom_decide(p, ec([0, 2], params)) is None


def test_isom_is_an_equivalence_on_samples():
    for (k, j, m) in [(1, 2, 3), (2, 3, 3)]:
        params = params_of(k, j, m)
        for idx in range(12):
            rng = substream(19, idx)
            g1 = sample_group_elem(params, rng)
            g2 = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            q1 = act(g1, p)
            q2 = act(g2, q1)
            # reflexive, consistent with the action, symmetric, transitive
            assert isom_decide(p, p) is not None
            assert isom_decide(p, q1) is not None
            assert isom_decide(q1, p) is not None
            assert isom_decide(p, q2) is not None


def test_isom_witness_verified_by_action():
    for idx in range(10):
        rng = substream(333, idx)
        g = sample_group_elem(MP, rng)
        p = sample_ext_class(MP, rng)
        q = act(g, p)
        w = isom_decide(p, q)
        assert w is not None
        assert act(w, p) == q
        assert w.b.rep.is_zero()


def reference_witness(p, q):
    """The witness search as first written: at each t, every entry of every
    nullspace vector is combined.  Returns (t, combined vector) or None.
    """
    cols = build_linear_system(p, q)
    rows = [{} for _ in ext1_band(p.params)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r][c] = v
    ncols = len(cols)
    basis = linalg.nullspace(rows, ncols)
    n0 = h0_dim(0, p.params.ring)
    for t in range(2 * len(basis) + 1):
        cand = [Fraction(0)] * ncols
        scale = Fraction(1)
        for bv in basis:
            if scale:
                for c in range(ncols):
                    if bv[c]:
                        cand[c] += scale * bv[c]
            scale *= t
        if cand[0] and cand[n0]:
            return t, cand
    return None


# Isomorphic pairs at (1, 3, 4) where the sum of the nullspace basis has
# a(0,0) * d(0,0) = 0, so the witness search goes on to t = 2.
WITNESS_AT_T2 = [([0, 1, -1, 0, 0, -1, 0, -1, 1], [0, 1, -1, 0, 0, 1, -1, 0, 0]),
                 ([-1, 0, 0, -1, 0, 1, 1, 0, 1], [-1, 0, 0, -1, 0, -1, 0, 0, -1])]


def test_isom_witness_matches_reference_search():
    cases = [(params_of(1, 3, 4), ec(p, params_of(1, 3, 4)), ec(q, params_of(1, 3, 4)))
             for p, q in WITNESS_AT_T2]
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 4, 3), (1, 4, 6)]:
        params = params_of(k, j, m)
        for idx in range(6):
            rng = substream(9090, 100 * k + 10 * j + m + 1000 * idx)
            p = sample_ext_class(params, rng)
            cases.append((params, p, act(sample_group_elem(params, rng), p)))
    t_used = set()
    for params, p, q in cases:
        ring = params.ring
        basis0, basis_c = h0_basis(0, ring), h0_basis(2 * params.j, ring)
        n0 = len(basis0)
        t, vec = reference_witness(p, q)
        t_used.add(t)
        w = isom_decide(p, q)
        assert w.a.rep == RingElem(ring, dict(zip(basis0, vec[:n0])))
        assert w.d.rep == RingElem(ring, dict(zip(basis0, vec[n0:2 * n0])))
        assert w.c.rep == RingElem(ring, dict(zip(basis_c, vec[2 * n0:])))
        assert w.b.rep.is_zero()
    assert t_used == {1, 2}


def test_linear_system_layout():
    p = ec([1, 0, 0])
    cols = build_linear_system(p, p)
    ring = MP.ring
    assert len(cols) == 2 * h0_dim(0, ring) + h0_dim(4, ring) == 6 + 6 + 18
    band = ext1_band(MP)
    assert all(0 <= r < len(band) for col in cols for r in col)
    assert all(v != 0 for col in cols for v in col.values())
    # The a(0,0) column is the band class of -p, the d(0,0) column that of p.
    assert cols[0] == {band.index((1, 0)): -1}
    assert cols[6] == {band.index((1, 0)): 1}


# -- spectral differentials and dimensions ---------------------------------------

def test_differentials_vanish_for_split_bundles():
    zero = ExtClass.zero(MP)
    assert all(not col for col in build_linear_system(zero, zero))
    assert spectral_differentials(zero, zero) == (0, 0)


def test_identity_endomorphism_in_kernel():
    p = ec([1, 2, 5])
    cols = build_linear_system(p, p)
    n0 = h0_dim(0, MP.ring)
    # the pair (a, d) = (1, 1) maps to the class of p - p = 0
    image = {r: cols[0].get(r, 0) + cols[n0].get(r, 0) for r in set(cols[0]) | set(cols[n0])}
    assert cols[0] and all(v == 0 for v in image.values())


def test_anchored_split_dimensions():
    zero = ExtClass.zero(MP)
    profile = hom_ext_dims(zero, zero)
    assert profile.dim_hom == 30
    assert profile.dim_ext1 == 6
    assert profile.dim_hom_L2L1 == 0
    assert profile.dim_ker_d1 == 2 * h0_dim(0, MP.ring)


def test_curve_level_split_dimensions():
    # m = 1 is the curve itself: dim End = 2j + 3 for the split bundle.
    for j in (1, 2, 3):
        params = params_of(1, j, 1)
        zero = ExtClass.zero(params)
        profile = hom_ext_dims(zero, zero)
        assert profile.dim_hom == 2 * j + 3
        assert brute_force_hom(zero, zero)[0] == 2 * j + 3


def test_euler_identity_every_profile():
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 2, 3), (2, 3, 4), (3, 3, 2)]:
        params = params_of(k, j, m)
        ring = params.ring
        end_split = 2 * h0_dim(0, ring) + h0_dim(2 * j, ring) + h0_dim(-2 * j, ring)
        ext_split = h1_dim(-2 * j, ring)
        for idx in range(6):
            rng = substream(606, idx)
            p = sample_ext_class(params, rng)
            q = sample_ext_class(params, rng)
            prof = hom_ext_dims(p, q)
            assert prof.dim_hom - end_split + ext_split - prof.dim_ext1 == 0
            assert prof.dim_hom == prof.dim_hom_L2L1 + prof.dim_ker_d1 + prof.dim_ker_d2


def test_profile_is_orbit_invariant():
    for idx in range(8):
        rng = substream(71, idx)
        g = sample_group_elem(MP, rng)
        p = sample_ext_class(MP, rng)
        q = act(g, p)
        assert hom_ext_dims(p, p) == hom_ext_dims(q, q)


# -- brute-force oracle -----------------------------------------------------------

def test_brute_force_split_anchor():
    zero = ExtClass.zero(MP)
    dim, pairs = brute_force_hom(zero, zero)
    assert dim == 30
    assert len(pairs) == 30
    for pair in pairs[:5]:
        assert pair.is_chart_regular()


def test_brute_force_pairs_intertwine():
    p = ec([1, 0, 0])
    q = ec([0, 1, 0])
    dim, pairs = brute_force_hom(p, q)
    for pair in pairs:
        assert pair.is_chart_regular()
        assert pair.intertwines(p, q)


def test_brute_force_matches_spectral_on_grid():
    for (k, j, m) in [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 3, 3)]:
        params = params_of(k, j, m)
        for idx in range(3):
            rng = substream(1234, idx)
            p = sample_ext_class(params, rng)
            q = sample_ext_class(params, rng)
            assert brute_force_hom(p, q)[0] == hom_ext_dims(p, q).dim_hom


# Classes whose Hom dimension was once undercounted: d2 had been reduced
# only partly modulo the image of d1.
HOM_REGRESSIONS = {
    "item1_z_u_plus_z2_u": ((1, 3, 4), [0, 0, 1, 1, 0, 0, 0, 0, 0], 48),
    "dense_1_3_4": ((1, 3, 4), [-2, 3, 2, -2, 2, 1, -2, -1, 3], 48),
    "two_term_1_4_4": ((1, 4, 4), [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 52),
}


@pytest.mark.parametrize("name", sorted(HOM_REGRESSIONS))
def test_hom_regressions_match_brute_force(name):
    (k, j, m), vec, dim = HOM_REGRESSIONS[name]
    p = ec(vec, params_of(k, j, m))
    assert hom_ext_dims(p, p).dim_hom == brute_force_hom(p, p)[0] == dim


@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (1, 4, 6), (2, 4, 3)])
def test_dense_brute_force_matches_filtration(k, j, m):
    # Every band coefficient and every section of g nonzero.
    params = params_of(k, j, m)
    rng = substream(4606, 100 * k + 10 * j + m)
    p = ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
            for _ in basis_W(params)], params)
    g = sample_group_elem(params, rng, max_terms=10 ** 6)
    for q in (p, act(g, p)):
        assert brute_force_hom(p, q)[0] == hom_ext_dims(p, q).dim_hom


def reference_hom_space(p, p_target, degree):
    """Verbatim copy of the per-entry table the brute-force system was once
    built from: the B entries contributed by each unknown of A, written out
    by hand.  Independent of the Mat2 products the solver uses now.
    """
    params = p.params
    j = params.j
    k = params.k
    ring = params.ring
    monos = [(l, i) for i in range(params.m) for l in range(degree + 1)]
    ncols = 4 * len(monos)

    pp = p.p
    ptp = p_target.p
    pp_ptp = pp * ptp
    one = RingElem.one(ring)

    # Contribution of a unit coefficient of each A entry to each B entry.
    # B11 = A11 + z^-j p' A21            B12 = z^2j A12 + z^j p' A22
    # B21 = z^-2j A21                          - z^j A11 p - p p' A21
    # B22 = A22 - z^-j A21 p
    def contributions(entry: int, l: int, i: int):
        if entry == 0:  # A11
            return ((0, one.shift(l, i)), (1, pp.shift(l + j, i).scale(-1)))
        if entry == 1:  # A12
            return ((1, one.shift(l + 2 * j, i)),)
        if entry == 2:  # A21
            return ((0, ptp.shift(l - j, i)), (1, pp_ptp.shift(l, i).scale(-1)),
                    (2, one.shift(l - 2 * j, i)), (3, pp.shift(l - j, i).scale(-1)))
        return ((1, ptp.shift(l + j, i)), (3, one.shift(l, i)))  # A22

    rows = {}
    for entry in range(4):
        base = entry * len(monos)
        for idx, (l, i) in enumerate(monos):
            col = base + idx
            for b_entry, elem in contributions(entry, l, i):
                for (ll, ii), coeff in elem.terms.items():
                    if ll > k * ii:
                        row = rows.setdefault((b_entry, ll, ii), {})
                        row[col] = row.get(col, Fraction(0)) + coeff
    row_list = [r for r in rows.values() if r]
    basis = linalg.nullspace(row_list, ncols)
    return basis, monos


def reference_pairs(p, q, degree):
    basis, monos = reference_hom_space(p, q, degree)
    ring = p.params.ring
    t_target, t_source_inv = q.transition(), p.transition().inverse()
    pairs = []
    for vec in basis:
        entries = [RingElem(ring, {mono: vec[e * len(monos) + idx]
                                   for idx, mono in enumerate(monos)}) for e in range(4)]
        a_mat = Mat2(*entries)
        pairs.append(CocyclePair(p.params, a_mat, t_target * a_mat * t_source_inv))
    return pairs


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (2, 4, 3), (1, 4, 6)])
def test_brute_force_matches_reference_table(k, j, m, density):
    params = params_of(k, j, m)
    rng = substream(7117, 100 * k + 10 * j + m)
    if density == "dense":
        p = ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                for _ in basis_W(params)], params)
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
    else:
        p = sample_ext_class(params, rng)
        g = sample_group_elem(params, rng)
    q = act(g, p)
    assert not p.is_zero()
    pairs = reference_pairs(p, q, default_degree_bound(params))
    assert brute_force_hom(p, q) == (len(pairs), pairs)


def test_dense_profile_at_1_6_8():
    params = params_of(1, 6, 8)
    ring = params.ring
    n = len(basis_W(params))
    p = ec([1 + t % 3 for t in range(n)], params)
    q = ec([(-1) ** t * (1 + t % 4) for t in range(n)], params)
    prof = hom_ext_dims(p, q)
    end_split = 2 * h0_dim(0, ring) + h0_dim(12, ring) + h0_dim(-12, ring)
    assert prof.dim_ext1 >= 0
    assert prof.dim_hom - end_split + h1_dim(-12, ring) - prof.dim_ext1 == 0


def test_brute_force_degree_too_small():
    zero = ExtClass.zero(MP)
    with pytest.raises(ValueError, match="degree bound too small"):
        brute_force_hom(zero, zero, degree=1)


def test_param_mismatch_rejected():
    p = ec([1, 0, 0])
    other = ExtClass.zero(params_of(1, 2, 2))
    with pytest.raises(ValueError, match="mismatched"):
        isom_decide(p, other)
    with pytest.raises(ValueError, match="mismatched"):
        hom_ext_dims(p, other)
