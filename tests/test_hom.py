"""The gluing residual, the isomorphism decision, and Hom/Ext dimensions."""

from fractions import Fraction
from itertools import chain, product
from math import comb

import pytest

from negcurve import linalg
from negcurve.extensions import ExtClass, Mat2, ModuliParams, basis_W
from negcurve.groupoid import (CocyclePair, GroupElem, _residual, act, cocycle_matrices,
                               extract_group_elem, induced_inverse, induced_product,
                               sample_ext_class, sample_group_elem, substream)
from negcurve.homspaces import (_band_layout, brute_force_hom, build_linear_system,
                                default_degree_bound, hom_ext_dims, isom_decide,
                                spectral_differentials)
from negcurve.ring import RingElem, RingParams, sector_split
from negcurve.sections import h0_basis, h0_dim, h1_dim
from test_acceptance import GRID
from test_linalg import integer_rows


def params_of(k, j, m):
    return ModuliParams(RingParams(k, m), j)


MP = params_of(1, 2, 3)


def ec(vec, params=MP):
    return ExtClass.from_vector(params, vec)


def ext1_band(params):
    """The band monomials (i, l) over all u-orders, i = 0 included: the
    row order of build_linear_system."""
    return [(i, l) for i in range(params.m) for l in params.band_rows(i)]


def unit_columns(params):
    """The columns of a(0,0) and d(0,0) in build_linear_system's layout."""
    basis0, _ = _band_layout(params)
    a00 = basis0.index((0, 0))
    return a00, len(basis0) + a00


def diagonal(params, lam, mu):
    """The diagonal automorphism (lam, 0; 0, mu) with constant entries."""
    ring = params.ring
    return GroupElem.from_reps(params, RingElem.constant(ring, lam), RingElem.zero(ring),
                               RingElem.zero(ring), RingElem.constant(ring, mu))


# -- the gluing residual -------------------------------------------------------

def glues(g, p, q):
    """Whether the band sector of g's gluing residual from p to q is empty.

    That is the paper's gluing test; it must agree with act(g, p) == q.
    """
    band = sector_split(_residual(g.a.rep, g.c.rep, g.d.rep, p, q)[-1], p.params.j)[1]
    assert band.is_zero() == (act(g, p) == q)
    return band.is_zero()


def test_witness_identity_and_scaling():
    p = ec([1, 2, 5])
    e = GroupElem.identity(MP)
    assert glues(e, p, p)
    g = diagonal(MP, 3, 1)
    assert glues(g, p, ec([3, 6, 15]))
    assert not glues(g, p, ec([3, 6, 0]))


def test_witness_lower_triangular_example():
    ring = MP.ring
    g = GroupElem.from_reps(MP, RingElem.one(ring), RingElem.zero(ring),
                            RingElem.monomial(ring, 1, 0), RingElem.one(ring))
    assert glues(g, ec([0, 1, 0]), ec([0, 1, 1]))
    assert not glues(g, ec([0, 1, 0]), ec([0, 1, 0]))


def test_witness_agrees_with_action_sampled():
    for (k, j, m) in [(1, 2, 3), (2, 3, 3), (1, 3, 4)]:
        params = params_of(k, j, m)
        for idx in range(25):
            rng = substream(808, idx)
            g = sample_group_elem(params, rng)
            p = sample_ext_class(params, rng)
            assert glues(g, p, act(g, p))


@pytest.mark.parametrize("density", ["sparse", "full"])
def test_obstruction_is_the_pair_residual(density):
    # On the criterion-5 grid: with q = act(g, p), _residual ends in the
    # residual B11 p - q A22 of the canonical pair, and its band is empty
    # exactly for the glued target, not for an unrelated one.
    unglued = 0
    for (k, j, m) in GRID:
        params = params_of(k, j, m)
        for idx in range(3):
            rng = substream(2525, 100 * k + 10 * j + m + 1000 * idx)
            if density == "full":
                g = sample_group_elem(params, rng, max_terms=10 ** 6)
                p, other = full_class(params, rng), full_class(params, rng)
            else:
                g = sample_group_elem(params, rng)
                p, other = sample_ext_class(params, rng), sample_ext_class(params, rng)
            q = act(g, p)
            pair = cocycle_matrices(g, p)
            assert _residual(g.a.rep, g.c.rep, g.d.rep, p, q)[-1] == \
                pair.B.a11 * p.p - q.p * pair.A.a22
            assert glues(g, p, q)
            unglued += not glues(g, p, other)
    assert unglued >= len(GRID)


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
    zero = ExtClass(MP, RingElem.zero(MP.ring))
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


def dense(basis, ncols):
    """The sparse nullspace vectors as dense lists of Fractions."""
    return [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in basis]


def reference_witness(p, q):
    """The witness search as first written: at each t, every entry of every
    nullspace vector is combined.  Returns (t, combined vector) or None.
    """
    ring = p.params.ring
    ncols = 2 * h0_dim(0, ring) + h0_dim(2 * p.params.j, ring)
    a00, d00 = unit_columns(p.params)
    basis = dense(linalg.nullspace(build_linear_system(p, q), ncols), ncols)
    for t in range(2 * len(basis) + 1):
        cand = [Fraction(0)] * ncols
        scale = Fraction(1)
        for bv in basis:
            if scale:
                for c in range(ncols):
                    if bv[c]:
                        cand[c] += scale * bv[c]
            scale *= t
        if cand[a00] and cand[d00]:
            return t, cand
    return None


def forced_or_reference_witness(p, q):
    """reference_witness, with its answer taken at once where it is forced.

    When a(0,0) or d(0,0) is zero on every nullspace vector, every
    combination is zero there too, so the search would try every t,
    combining every dense vector at each, and return None; on full
    independent classes at (2, 8, 10) that is about a minute.  Otherwise
    the search runs as written.
    """
    ring = p.params.ring
    ncols = 2 * h0_dim(0, ring) + h0_dim(2 * p.params.j, ring)
    basis = dense(linalg.nullspace(build_linear_system(p, q), ncols), ncols)
    if any(all(not vec[idx] for vec in basis) for idx in unit_columns(p.params)):
        return None
    return reference_witness(p, q)


# Isomorphic pairs at (1, 3, 4) where the sum of the nullspace basis has
# a(0,0) * d(0,0) = 0, so the witness search goes on to t = 2.
WITNESS_AT_T2 = [([0, 1, -1, 0, 0, -1, 0, -1, 1], [0, 1, -1, 0, 0, 1, -1, 0, 0]),
                 ([-1, 0, 0, -1, 0, 1, 1, 0, 1], [-1, 0, 0, -1, 0, -1, 0, 0, -1])]


def full_class(params, rng):
    """A class with every band coefficient nonzero."""
    return ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
               for _ in basis_W(params)], params)


def test_isom_witness_matches_reference_search():
    cases = [(params_of(1, 3, 4), ec(p, params_of(1, 3, 4)), ec(q, params_of(1, 3, 4)))
             for p, q in WITNESS_AT_T2]
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 4, 3), (1, 4, 6)]:
        params = params_of(k, j, m)
        for idx in range(6):
            rng = substream(9090, 100 * k + 10 * j + m + 1000 * idx)
            p = sample_ext_class(params, rng)
            cases.append((params, p, act(sample_group_elem(params, rng), p)))
    # Full classes and the zero class.  The a(0,0) column is the band class
    # of -p, so it is a pivot unless p = 0; the d(0,0) column is free when
    # the class of p' lies in the span of the shifts of p, as for p' = p.
    # Independent full classes are not isomorphic.
    for (k, j, m) in [(1, 3, 4), (1, 4, 6)]:
        params = params_of(k, j, m)
        rng = substream(4747, 100 * k + 10 * j + m)
        p, q = full_class(params, rng), full_class(params, rng)
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
        zero = ExtClass(params, RingElem.zero(params.ring))
        cases += [(params, p, p), (params, p, act(g, p)), (params, q, act(g, q)),
                  (params, zero, zero), (params, p, q), (params, q, p), (params, p, zero),
                  (params, zero, q)]
    search = [reference_witness] * len(cases)
    # Full classes at the upper rungs, seeds 11 and 12: (p, act(g, p)) and
    # an independent (p, q), whose forced None is taken at once.  At
    # (1, 10, 12) only the isomorphic pair of seed 11 is searched; the
    # search stops at t = 1 there, and would run through every t on the
    # independent pair.
    for seed in (11, 12):
        for (k, j, m) in [(1, 6, 8), (2, 8, 10)] + [(1, 10, 12)] * (seed == 11):
            params = params_of(k, j, m)
            rng = substream(seed, 100 * k + 10 * j + m)
            p, q = full_class(params, rng), full_class(params, rng)
            g = sample_group_elem(params, rng, max_terms=10 ** 6)
            cases.append((params, p, act(g, p)))
            search.append(reference_witness)
            if m < 12:
                cases.append((params, p, q))
                search.append(forced_or_reference_witness)
    t_used, columns, verdicts = set(), set(), []
    for (params, p, q), reference in zip(cases, search):
        ring = params.ring
        basis0, basis_c = _band_layout(params)
        n0 = len(basis0)
        pivots = linalg.echelon(build_linear_system(p, q))
        columns.add(tuple(idx in pivots for idx in unit_columns(params)))
        found = reference(p, q)
        w = isom_decide(p, q)
        verdicts.append(w is not None)
        if found is None:
            assert w is None
            continue
        assert w is not None
        t, vec = found
        t_used.add(t)
        assert w.a.rep == RingElem(ring, dict(zip(basis0, vec[:n0])))
        assert w.d.rep == RingElem(ring, dict(zip(basis0, vec[n0:2 * n0])))
        assert w.c.rep == RingElem(ring, dict(zip(basis_c, vec[2 * n0:])))
        assert w.b.rep.is_zero()
    assert t_used == {1, 2}
    assert columns == {(False, False), (False, True), (True, False), (True, True)}
    assert verdicts.count(False) >= 12 and verdicts.count(True) >= 39


def test_linear_system_layout():
    p = ec([1, 0, 0])
    rows = build_linear_system(p, p)
    ring = MP.ring
    band = ext1_band(MP)
    ncols = 2 * h0_dim(0, ring) + h0_dim(4, ring)
    assert len(rows) == len(band) and ncols == 6 + 6 + 18
    assert all(0 <= c < ncols for row in rows for c in row)
    assert all(v != 0 for row in rows for v in row.values())
    assert all(list(row) == sorted(row) for row in rows)
    # The a(0,0) column is the band class of -p, the d(0,0) column that of p.
    a00, d00 = unit_columns(MP)
    assert [row.get(a00) for row in rows] == [-1 if il == (1, 0) else None for il in band]
    assert [row.get(d00) for row in rows] == [1 if il == (1, 0) else None for il in band]


def test_linear_system_is_minus_the_band_obstruction():
    # Row r applied to the coefficients of (a, d, c) is minus the band
    # coefficient r of the gluing residual of (a, d, c) times
    # D = den(p) den(q): every unknown's index and sign is pinned, block by
    # block.
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 4, 3)]:
        params = params_of(k, j, m)
        ring = params.ring
        basis0, basis_c = _band_layout(params)
        for idx in range(4):
            rng = substream(5150, 100 * k + 10 * j + m + 1000 * idx)
            p = sample_ext_class(params, rng, max_terms=1 + 4 * idx)
            q = sample_ext_class(params, rng, max_terms=1 + 4 * idx)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(2 * len(basis0) + len(basis_c))]
            a, d, c = (RingElem(ring, dict(zip(b, xs))) for b, xs in
                       ((basis0, x[:len(basis0)]), (basis0, x[len(basis0):2 * len(basis0)]),
                        (basis_c, x[2 * len(basis0):])))
            obs = _residual(a, c, d, p, q)[-1]
            rows = build_linear_system(p, q)
            assert all(type(v) is int for row in rows for v in row.values())
            image = [sum((v * x[u] for u, v in row.items()), Fraction(0)) for row in rows]
            den = p.p.den * q.p.den
            assert image == [-den * obs.coeff(l, i) for (i, l) in ext1_band(params)]


def reference_build_linear_system(p: ExtClass, p_target: ExtClass) -> list[dict[int, Fraction]]:
    """Verbatim copy of the per-unknown builder, two full products per
    c-unknown through minus the gluing residual of (0, 0, c).  The
    running-product builder must match it in every value and in the key
    order of every row.
    """
    if p.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    ring = p.params.ring
    zero = RingElem.zero(ring)
    band_index = {li: r for r, li in enumerate(ext1_band(p.params))}
    basis0, basis_c = _band_layout(p.params)
    # Each image is made when its unknown is read, so none outlives its row entries.
    images = chain((-(p.p * RingElem.monomial(ring, l, i)) for (l, i) in basis0),
                   (p_target.p * RingElem.monomial(ring, l, i) for (l, i) in basis0),
                   (-_residual(zero, RingElem.monomial(ring, l, i), zero, p, p_target)[-1]
                    for (l, i) in basis_c))
    rows: list[dict[int, Fraction]] = [{} for _ in band_index]
    for unknown, elem in enumerate(images):
        for (l, i), coeff in elem.terms.items():
            r = band_index.get((i, l))
            if r is not None:
                rows[r][unknown] = coeff
    return rows


def assert_same_rows(rows, expected, den):
    """rows are exactly den times the rational rows expected, in integers."""
    assert [list(row.items()) for row in rows] == \
        [[(u, den * v) for u, v in row.items()] for row in expected]
    assert all(type(v) is int for row in rows for v in row.values())


def test_linear_system_matches_per_unknown_reference():
    kinds = set()
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 4, 3), (2, 3, 4), (3, 3, 4), (1, 4, 6)]:
        params = params_of(k, j, m)
        width = len(basis_W(params))
        rng = substream(8128, 100 * k + 10 * j + m)
        sparse = [sample_ext_class(params, rng) for _ in range(2)]
        two_term = [ec([rng.choice((1, -2)) if t in (s, s + 1) else 0 for t in range(width)],
                       params) for s in (0, width - 2)]
        full = [full_class(params, rng) for _ in range(2)]
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
        classes = sparse + two_term + full + [ExtClass(params, RingElem.zero(params.ring))]
        pairs = [(p, q) for p in classes for q in classes] + [(p, act(g, p)) for p in full]
        for p, q in pairs:
            assert_same_rows(build_linear_system(p, q), reference_build_linear_system(p, q),
                             p.p.den * q.p.den)
            kinds.add((len(p.p.terms), len(q.p.terms), p == q))
    params = params_of(1, 6, 8)
    rng = substream(8128, 168)
    p, q = full_class(params, rng), full_class(params, rng)
    assert_same_rows(build_linear_system(p, q), reference_build_linear_system(p, q),
                     p.p.den * q.p.den)
    assert len(kinds) > 40


# -- spectral differentials and dimensions ---------------------------------------

def test_differentials_vanish_for_split_bundles():
    zero = ExtClass(MP, RingElem.zero(MP.ring))
    assert all(not row for row in build_linear_system(zero, zero))
    assert spectral_differentials(zero, zero) == (0, 0)


def test_identity_endomorphism_in_kernel():
    p = ec([1, 2, 5])
    rows = build_linear_system(p, p)
    a00, d00 = unit_columns(MP)
    # the pair (a, d) = (1, 1) maps to the class of p - p = 0
    assert any(a00 in row for row in rows)
    assert all(row.get(a00, 0) + row.get(d00, 0) == 0 for row in rows)


def reference_spectral_differentials(p, q):
    """The two-rank computation as first written, on the columns of the
    band matrix: rank d1 from the (a, d)-columns alone, then rank [d1 | d2]
    from all of them, one elimination each.
    """
    rows = build_linear_system(p, q)
    ring = p.params.ring
    cols = [{} for _ in range(2 * h0_dim(0, ring) + h0_dim(2 * p.params.j, ring))]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    rank_d1 = len(linalg.echelon(cols[:2 * h0_dim(0, p.params.ring)]))
    return rank_d1, len(linalg.echelon(cols)) - rank_d1


def test_spectral_differentials_match_column_reference():
    cases = []
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 4, 3), (1, 4, 6), (2, 3, 4)]:
        params = params_of(k, j, m)
        width = len(basis_W(params))
        rng = substream(2718, 100 * k + 10 * j + m)
        sparse = [sample_ext_class(params, rng) for _ in range(3)]
        two_term = [ec([1 if t in (s, s + 1) else 0 for t in range(width)], params)
                    for s in range(width - 1)]
        dense = [ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                     for _ in range(width)], params) for _ in range(2)]
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
        cases += [(p, q) for p in sparse + two_term + dense for q in (p, sparse[0])]
        cases += [(p, act(g, p)) for p in dense]
    params = params_of(1, 6, 8)
    n = len(basis_W(params))
    p = ec([1 + t % 3 for t in range(n)], params)
    cases += [(p, p), (p, ec([(-1) ** t * (1 + t % 4) for t in range(n)], params))]
    seen = set()
    for p, q in cases:
        ranks = spectral_differentials(p, q)
        assert ranks == reference_spectral_differentials(p, q)
        seen.add(ranks)
    assert len(seen) > 10


def test_anchored_split_dimensions():
    zero = ExtClass(MP, RingElem.zero(MP.ring))
    profile = hom_ext_dims(zero, zero)
    assert profile.dim_hom == 30
    assert profile.dim_ext1 == 6
    assert profile.dim_hom_L2L1 == 0
    assert profile.dim_ker_d1 == 2 * h0_dim(0, MP.ring)


def test_curve_level_split_dimensions():
    # m = 1 is the curve itself: dim End = 2j + 3 for the split bundle.
    for j in (1, 2, 3):
        params = params_of(1, j, 1)
        zero = ExtClass(params, RingElem.zero(params.ring))
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
    zero = ExtClass(MP, RingElem.zero(MP.ring))
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


@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (1, 4, 6), (2, 4, 3), (1, 6, 8)])
def test_dense_brute_force_matches_filtration(k, j, m):
    # Every band coefficient and every section of g nonzero.
    params = params_of(k, j, m)
    rng = substream(4606, 100 * k + 10 * j + m)
    p = ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
            for _ in basis_W(params)], params)
    g = sample_group_elem(params, rng, max_terms=10 ** 6)
    for q in (p, act(g, p)):
        assert brute_force_hom(p, q)[0] == hom_ext_dims(p, q).dim_hom


def brute_force_isomorphic(p, q):
    """Whether E_p and E_q are isomorphic, read off the brute-force Hom basis.

    det A = det B is a global function, so a pair is an isomorphism
    exactly when the (0, 0) coefficient of det A is nonzero.  On
    combinations sum x_i v_i of the basis pairs that coefficient is the
    quadratic form x^T (a11 a22^T - a12 a21^T) x, where a_e lists the
    (0, 0) coefficients of entry e of A over the basis.  Over QQ a
    quadratic form has a nonzero value exactly when its symmetric part
    is nonzero.
    """
    _, pairs = brute_force_hom(p, q)
    a11, a12, a21, a22 = ([pair.A.entries()[e].coeff(0, 0) for pair in pairs] for e in range(4))
    n = len(pairs)
    form = [[a11[r] * a22[c] - a12[r] * a21[c] for c in range(n)] for r in range(n)]
    return any(form[r][c] + form[c][r] for r in range(n) for c in range(n))


def test_isom_verdicts_match_brute_force_determinant():
    verdicts = []
    for (k, j, m) in [(1, 2, 3), (1, 3, 4), (2, 3, 3), (2, 4, 3), (2, 3, 4), (3, 3, 4)]:
        params = params_of(k, j, m)
        width = len(basis_W(params))
        rng = substream(3141, 100 * k + 10 * j + m)

        def two_term():
            s = rng.randrange(width - 1)
            return ec([rng.choice((1, -2)) if t in (s, s + 1) else 0
                       for t in range(width)], params)

        def dense():
            return ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                       for _ in range(width)], params)

        pairs = []
        for _ in range(3):
            p = sample_ext_class(params, rng)
            pairs.append((p, sample_ext_class(params, rng)))
            pairs.append((p, act(sample_group_elem(params, rng), p)))
        pairs += [(two_term(), two_term()) for _ in range(3)]
        d = dense()
        pairs += [(d, dense()), (d, act(sample_group_elem(params, rng, max_terms=10 ** 6), d))]
        for p, q in pairs:
            decided = isom_decide(p, q) is not None
            assert decided == brute_force_isomorphic(p, q), (k, j, m, p, q)
            verdicts.append(decided)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 15


# Isomorphism classes of the classes with coefficients in {-1, 0, 1}, on the
# 13 acceptance tuples with dim W <= 4: (k, j, m) -> class count.  The
# brute-force check runs only on the grids of at most 27 extension classes,
# to keep the 13 tests near 7 s.
UNIT_GRIDS = {(1, 2, 2): 5, (1, 2, 3): 6, (1, 2, 4): 6, (1, 3, 2): 41, (2, 2, 2): 2,
              (2, 2, 3): 2, (2, 2, 4): 2, (2, 3, 2): 14, (2, 3, 3): 15, (2, 3, 4): 15,
              (3, 3, 2): 5, (3, 3, 3): 5, (3, 3, 4): 5}


def unit_grid(params):
    """The classes with coefficients in {-1, 0, 1}, in product order."""
    return [ec(list(vec), params) for vec in product((-1, 0, 1), repeat=len(basis_W(params)))]


@pytest.mark.parametrize("kjm", sorted(UNIT_GRIDS))
def test_isom_classes_partition_the_unit_grid(kjm):
    count = UNIT_GRIDS[kjm]
    params = params_of(*kjm)
    width = len(basis_W(params))
    grid = unit_grid(params)
    if params.m == 2:
        # Criterion 1: at the first level the classes are 0 and the lines
        # of W, and the nonzero vectors of the grid meet each line in +-v.
        assert count == 1 + (3 ** width - 1) // 2
    witness = {(s, t): isom_decide(p, q) for s, p in enumerate(grid) for t, q in enumerate(grid)}
    related = [frozenset(t for t in range(len(grid)) if witness[s, t] is not None)
               for s in range(len(grid))]
    # Reflexive and symmetric, and each class is the related set of each of
    # its members: the verdicts are an equivalence relation.
    assert all(s in related[s] for s in range(len(grid)))
    assert all(s in related[t] for s in range(len(grid)) for t in related[s])
    assert all(related[t] == related[s] for s in range(len(grid)) for t in related[s])
    classes = sorted(set(related), key=min)
    assert len(classes) == count
    for members in classes:
        first, *rest = sorted(members)
        p = grid[first]
        dim_end = hom_ext_dims(p, p).dim_hom
        # Witnesses compose through the base-point product: from p to q,
        # then from q to r, is one witness from p to r.
        for q_idx, r_idx in zip([first] + rest, rest):
            w_pq, w_qr = witness[first, q_idx], witness[q_idx, r_idx]
            assert act(induced_product(w_qr, w_pq, p), p) == grid[r_idx]
        for t in rest:
            assert hom_ext_dims(grid[t], grid[t]).dim_hom == dim_end
            assert hom_ext_dims(p, grid[t]).dim_hom == dim_end
    if len(grid) <= 27:
        # Brute force agrees on every pair of class representatives and on
        # each member against its representative; it decides an
        # equivalence too, so it then gives the same partition.
        firsts = [min(members) for members in classes]
        checked = [(s, t) for s in firsts for t in firsts]
        checked += [(min(related[t]), t) for t in range(len(grid)) if t not in firsts]
        for s, t in checked:
            assert brute_force_isomorphic(grid[s], grid[t]) == (witness[s, t] is not None)


# Criterion 2's orbit facts at (1, 2, 3), each class named by a member of
# the unit grid, or None for a class that meets no member.
CRITERION_2_CLASSES = {
    (0, 0, 1): (0, 0, -1), (0, 0, 9): (0, 0, -1),
    (1, 0, 0): (-1, 0, -1), (0, 1, 0): (0, -1, -1),
    (1, 2, 5): None, (3, 6, 0): None, (3, 6, -7): None, (3, 6, 13): None,
}


def test_criterion_2_orbit_facts_on_the_unit_grid():
    # One representative per class of the (1, 2, 3) unit grid: its first
    # member.  The partition test checks that the verdicts are an
    # equivalence there, so each class is read off its representative.
    reps = []
    for p in unit_grid(MP):
        if all(isom_decide(p, r) is None for r in reps):
            reps.append(p)
    assert len(reps) == UNIT_GRIDS[1, 2, 3]

    def classes_of(p):
        return [s for s, r in enumerate(reps) if isom_decide(p, r) is not None]

    for vec, member in CRITERION_2_CLASSES.items():
        expected = [] if member is None else classes_of(ec(list(member)))
        assert len(expected) == (member is not None)
        assert classes_of(ec(list(vec))) == expected, vec


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

    def mono(l, i):
        return RingElem.monomial(ring, l, i)

    # Contribution of a unit coefficient of each A entry to each B entry.
    # B11 = A11 + z^-j p' A21            B12 = z^2j A12 + z^j p' A22
    # B21 = z^-2j A21                          - z^j A11 p - p p' A21
    # B22 = A22 - z^-j A21 p
    def contributions(entry: int, l: int, i: int):
        if entry == 0:  # A11
            return ((0, mono(l, i)), (1, (pp * mono(l + j, i)).scale(-1)))
        if entry == 1:  # A12
            return ((1, mono(l + 2 * j, i)),)
        if entry == 2:  # A21
            return ((0, ptp * mono(l - j, i)), (1, (pp_ptp * mono(l, i)).scale(-1)),
                    (2, mono(l - 2 * j, i)), (3, (pp * mono(l - j, i)).scale(-1)))
        return ((1, ptp * mono(l + j, i)), (3, mono(l, i)))  # A22

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
    basis = dense(linalg.nullspace(integer_rows(row_list), ncols), ncols)
    return basis, monos


def reference_pairs(p, q, degree):
    basis, monos = reference_hom_space(p, q, degree)
    ring = p.params.ring
    t_target, t_source = q.transition(), p.transition()
    t_source_inv = Mat2(t_source.a22, -t_source.a12, -t_source.a21, t_source.a11)
    pairs = []
    for vec in basis:
        entries = [RingElem(ring, {mono: vec[e * len(monos) + idx]
                                   for idx, mono in enumerate(monos)}) for e in range(4)]
        a_mat = Mat2(*entries)
        pairs.append(CocyclePair(a_mat, t_target * a_mat * t_source_inv))
    return pairs


def reference_case(k, j, m, density):
    """A seeded nonzero class p and q = act(g, p), sparse or dense."""
    params = params_of(k, j, m)
    rng = substream(7117, 100 * k + 10 * j + m)
    if density == "dense":
        p = ec([Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                for _ in basis_W(params)], params)
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
    else:
        p = sample_ext_class(params, rng)
        g = sample_group_elem(params, rng)
    assert not p.p.is_zero()
    return p, act(g, p)


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (2, 4, 3), (1, 4, 6)])
def test_brute_force_matches_reference_table(k, j, m, density):
    p, q = reference_case(k, j, m, density)
    pairs = reference_pairs(p, q, default_degree_bound(p.params))
    assert brute_force_hom(p, q) == (len(pairs), pairs)


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("k,j,m", [(1, 2, 3), (1, 3, 4), (2, 4, 3)])
def test_brute_force_matches_reference_table_at_smallest_stable_degree(k, j, m, density):
    # The degree system is cut from the degree + 1 system; at the first
    # degree whose dimension has stabilized, one degree less has a
    # smaller dimension, so every column with l = degree matters.  That
    # degree is D = k(m-1) + 2j, one below the default bound.
    p, q = reference_case(k, j, m, density)
    dims = [len(reference_hom_space(p, q, d)[0]) for d in range(default_degree_bound(p.params) + 2)]
    degree = next(d for d in range(1, len(dims) - 1) if dims[d] == dims[d + 1])
    assert degree == k * (m - 1) + 2 * j == default_degree_bound(p.params) - 1
    assert dims[degree - 1] < dims[degree]
    pairs = reference_pairs(p, q, degree)
    assert brute_force_hom(p, q, degree) == (len(pairs), pairs)
    with pytest.raises(ValueError, match="degree bound too small"):
        brute_force_hom(p, q, degree - 1)


def test_brute_force_stabilizes_at_d_on_dense_1_6_8():
    # The smallest stable degree D = k(m-1) + 2j, without the reference
    # table: one degree less raises, and D gives the filtration count.
    p, q = reference_case(1, 6, 8, "dense")
    degree = 1 * (8 - 1) + 2 * 6
    with pytest.raises(ValueError, match="degree bound too small"):
        brute_force_hom(p, q, degree - 1)
    dim = brute_force_hom(p, q, degree)[0]
    assert dim == hom_ext_dims(p, q).dim_hom == 164


@pytest.mark.parametrize("k,j,m", GRID)
def test_degree_bound_of_brute_force_is_sharp(k, j, m):
    # brute_force_hom's docstring proves every A of a Hom lies in l <= D;
    # A = (0, 0; z^D u^(m-1), 0) reaches it, and one z more leaves Hom.
    params = params_of(k, j, m)
    ring = params.ring
    rng = substream(4, 100 * k + 10 * j + m)
    p, p_target = (sample_ext_class(params, rng, max_terms=10 ** 6) for _ in range(2))
    t_source = p.transition()
    # det T(p) = 1, so T(p)^-1 is its adjugate.
    t_source_inv = Mat2(t_source.a22, -t_source.a12, -t_source.a21, t_source.a11)
    zero = RingElem.zero(ring)
    top = k * (m - 1) + 2 * j
    for degree, is_hom in ((top, True), (top + 1, False)):
        a_mat = Mat2(zero, zero, RingElem.monomial(ring, degree, m - 1), zero)
        pair = CocyclePair(a_mat, p_target.transition() * a_mat * t_source_inv)
        assert pair.intertwines(p, p_target)
        assert pair.is_chart_regular() == is_hom
        if is_hom:
            assert pair.B == Mat2(zero, zero, RingElem.monomial(ring, k * (m - 1), m - 1), zero)


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
    zero = ExtClass(MP, RingElem.zero(MP.ring))
    with pytest.raises(ValueError, match="degree bound too small"):
        brute_force_hom(zero, zero, degree=1)


def test_param_mismatch_rejected():
    p = ec([1, 0, 0])
    params = params_of(1, 2, 2)
    other = ExtClass(params, RingElem.zero(params.ring))
    with pytest.raises(ValueError, match="mismatched"):
        isom_decide(p, other)
    with pytest.raises(ValueError, match="mismatched"):
        hom_ext_dims(p, other)


@pytest.mark.parametrize("operation", ["act", "cocycle_matrices", "induced_product g1",
                                       "induced_product g2", "induced_inverse", "isom_decide",
                                       "hom_ext_dims", "brute_force_hom", "extract_group_elem"])
def test_every_two_class_operation_rejects_mismatched_j(operation):
    # At (k, m) = (1, 4) the rings of j = 2 and j = 3 are equal, so only a
    # comparison of the moduli parameters catches the mismatch.
    rng = substream(2828, 0)
    params, other = params_of(1, 2, 4), params_of(1, 3, 4)
    g, h, p = (sample_group_elem(params, rng), sample_group_elem(params, rng),
               sample_ext_class(params, rng))
    g_other, q = sample_group_elem(other, rng), sample_ext_class(other, rng)
    # Between zero classes the identity's pair glues for either j, so only
    # the comparison catches a pair extracted against the other j.
    zero, zero_other = (ExtClass(ps, RingElem.zero(ps.ring)) for ps in (params, other))
    identity = cocycle_matrices(GroupElem.identity(params), zero)
    call = {
        "act": lambda: act(g_other, p),
        "cocycle_matrices": lambda: cocycle_matrices(g_other, p),
        "induced_product g1": lambda: induced_product(g_other, h, p),
        "induced_product g2": lambda: induced_product(g, g_other, p),
        "induced_inverse": lambda: induced_inverse(g_other, p),
        "isom_decide": lambda: isom_decide(p, q),
        "hom_ext_dims": lambda: hom_ext_dims(p, q),
        "brute_force_hom": lambda: brute_force_hom(p, q),
        "extract_group_elem": lambda: extract_group_elem(identity.A, identity.B.a11, zero,
                                                         zero_other),
    }[operation]
    with pytest.raises(ValueError, match=r"^mismatched moduli parameters$"):
        call()


# -- orbit dimension: the Hom count from the action alone -------------------------

# The automorphisms (a, b; c, d) are open in End(split) = H0(O) + H0(O(-2j))
# + H0(O(2j)) + H0(O), and the stabilizer of p is Aut(E_p), open in
# End(E_p).  So the differential of g -> act(g, p) at the identity has rank
# dim End(split) - dim Hom(E_p, E_p).  It is computed from `act` only: no
# linear system, no Hom rows and no `linalg`, with the rank taken by sympy.

def lagrange_derivative_weights(n):
    """w with f'(0) = sum_t w[t] f(t) for every polynomial f of degree <= n.

    The derivatives at 0 of the Lagrange basis on the nodes t = 0..n:
    -(1 + 1/2 + ... + 1/n) for t = 0 and (-1)^(t+1) C(n, t) / t for t >= 1.
    """
    return ([-sum(Fraction(1, s) for s in range(1, n + 1))]
            + [Fraction((-1) ** (t + 1) * comb(n, t), t) for t in range(1, n + 1)])


def to_vector(p):
    return [p.p.coeff(l, i) for (i, l) in basis_W(p.params)]


def action_differential_columns(p):
    """The derivative at t = 0 of act(e + t xi, p), in basis_W coordinates, for
    every direction xi of End(split) but those of b.

    act(e + t xi, p) is a polynomial in t of degree at most m - 1 when
    xi_d(0,0) = 0, since d(0,0) = 1 is the only divisor.  Its values at
    t = 0..m+2 give the derivative by exact Lagrange weights, and the value
    at t = m+3 checks the degree: the (m+3)-th forward difference must vanish.  The
    b directions act trivially (act never reads b), and a(0,0) + d(0,0) fixes
    every class, so the d(0,0) column is minus the a(0,0) one.
    """
    params = p.params
    ring, j, m = params.ring, params.j, params.m
    one, zero = RingElem.one(ring), RingElem.zero(ring)
    n = m + 2
    weights = lagrange_derivative_weights(n)
    directions = ([("a", mono) for mono in h0_basis(0, ring)]
                  + [("c", mono) for mono in h0_basis(2 * j, ring)]
                  + [("d", mono) for mono in h0_basis(0, ring) if mono != (0, 0)])
    columns = []
    for slot, (l, i) in directions:
        values = []
        for t in range(n + 2):
            xi = RingElem.monomial(ring, l, i, t)
            a, c, d = (one + xi if slot == "a" else one, xi if slot == "c" else zero,
                       one + xi if slot == "d" else one)
            values.append(to_vector(act(GroupElem.from_reps(params, a, zero, c, d), p)))
        top = [sum((-1) ** (n + 1 - t) * comb(n + 1, t) * v[r] for t, v in enumerate(values))
               for r in range(len(values[0]))]
        assert not any(top), f"act(e + t xi, p) has degree > {n} in t along {slot}{(l, i)}"
        columns.append([sum(w * v[r] for w, v in zip(weights, values[:n + 1]))
                        for r in range(len(values[0]))])
    columns.append([-x for x in columns[0]])  # d(0,0), from a(0,0)
    return columns


def test_lagrange_derivative_weights():
    for n in (1, 3, 6):
        w = lagrange_derivative_weights(n)
        for deg in range(n + 1):
            assert sum(wt * t ** deg for t, wt in enumerate(w)) == (1 if deg == 1 else 0)


@pytest.mark.parametrize("k,j,m", GRID)
def test_orbit_dimension_equals_end_split_minus_hom(k, j, m):
    # Full classes, as in acceptance criterion 5; dense (1,6,8) passes too but
    # takes about 3.4 s a case, so it is left out here.
    matrices = pytest.importorskip("sympy.polys.matrices")
    qq = pytest.importorskip("sympy").QQ
    params = params_of(k, j, m)
    ring = params.ring
    end_split = 2 * h0_dim(0, ring) + h0_dim(2 * j, ring) + h0_dim(-2 * j, ring)
    rng = substream(5150, 100 * k + 10 * j + m)
    for p in (full_class(params, rng), ExtClass(params, RingElem.zero(params.ring))):
        columns = action_differential_columns(p)
        rank = matrices.DomainMatrix([[qq(x.numerator, x.denominator) for x in col]
                                      for col in columns],
                                     (len(columns), len(basis_W(params))), qq).rank()
        assert rank == end_split - hom_ext_dims(p, p).dim_hom
