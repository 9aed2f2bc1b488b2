"""Isomorphism decision and Hom/Ext dimensions for glued rank-2 bundles.

Two bundles with classes p and p' are isomorphic exactly when some
automorphism datum (a, d, c) with a(0,0)*d(0,0) != 0 kills the band
obstruction

    a*p - d*p' + (z^-j p' c)_V * p - (z^-j c p)_+ * p',

where (.)_V keeps the second-chart-regular monomials and (.)_+ the
rest.  On the band the obstruction is minus [d1 | d2] applied to the
coefficients of (a, d, c), where d1(a, d) is the class of d*p' - a*p and
d2(c) that of (z^-j c p)_+ p' - (z^-j c p')_V p.  ``build_linear_system``
builds these columns once.  The isomorphism decision is an exact
nullspace computation on them, and Hom(E_p, E_p') is counted by a
two-step filtration: ker d1, then the c whose d2-image lies in the image
of d1, of codimension rank [d1 | d2] - rank d1.  An independent
brute-force solver for intertwining matrix pairs cross-checks every
dimension; its system is read from B = T(p') A T(p)^-1, one image
T(p') E T(p)^-1 per unit matrix E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .extensions import ExtClass, Mat2, ModuliParams, class_is_zero, ext1_band
from .groupoid import CocyclePair, GroupElem, act, cech_parts
from .ring import ConsistencyError, RingElem
from .sections import h0_basis, h0_dim, h1_dim


def _c_differential(c_rep: RingElem, p: ExtClass, p_target: ExtClass) -> RingElem:
    """The band contribution of c: (z^-j c p)_+ p' - (z^-j c p')_V p."""
    j = p.params.j
    g_plus, _ = cech_parts(c_rep, p.p, j)
    _, f_v = cech_parts(c_rep, p_target.p, j)
    return g_plus * p_target.p - f_v * p.p


def obstruction(a_rep: RingElem, d_rep: RingElem, c_rep: RingElem,
                p: ExtClass, p_target: ExtClass) -> RingElem:
    """The exact gluing obstruction of the datum (a, d, c) from p to p_target."""
    return a_rep * p.p - d_rep * p_target.p - _c_differential(c_rep, p, p_target)


def witness_condition(g: GroupElem, p: ExtClass, p_target: ExtClass) -> bool:
    """Whether the datum of g glues E_p to E_{p_target}.

    True exactly when the obstruction class vanishes, which is
    equivalent to act(g, p) == p_target; the equivalence is asserted.
    """
    if g.params != p.params or g.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    ok = class_is_zero(obstruction(g.a.rep, g.d.rep, g.c.rep, p, p_target), p.params)
    if ok and act(g, p) != p_target:
        raise ConsistencyError("vanishing obstruction but act(g, p) != target")
    return ok


def build_linear_system(p: ExtClass, p_target: ExtClass) -> list[dict[int, Fraction]]:
    """The band columns of [d1 | d2], each a sparse map band row -> coefficient.

    Columns follow the unknowns: the a-basis, then the d-basis (both
    h0_basis(0)), then the c-basis (h0_basis(2j)).  Rows are indices
    into ext1_band.
    """
    if p.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    params = p.params
    ring = params.ring
    band_index = {li: r for r, li in enumerate(ext1_band(params))}

    def column(elem: RingElem) -> dict[int, Fraction]:
        col = {}
        for (l, i), coeff in elem.terms.items():
            r = band_index.get((i, l))
            if r is not None:
                col[r] = coeff
        return col

    basis0 = h0_basis(0, ring)
    cols = [column(-p.p.shift(l, i)) for (l, i) in basis0]
    cols += [column(p_target.p.shift(l, i)) for (l, i) in basis0]
    cols += [column(_c_differential(RingElem.monomial(ring, l, i), p, p_target))
             for (l, i) in h0_basis(2 * params.j, ring)]
    return cols


def isom_decide(p: ExtClass, p_target: ExtClass) -> GroupElem | None:
    """An explicit gluing isomorphism from E_p to E_{p_target}, or None.

    Solves the band obstruction for (a, d, c), then looks for a solution
    with a(0,0)*d(0,0) != 0.  Over the rationals such a solution exists
    unless one of the two coordinate functionals vanishes on the whole
    solution space, so finitely many combinations of nullspace basis
    vectors settle it.  A found witness (with b = 0) is verified by
    applying the action before it is returned.
    """
    cols = build_linear_system(p, p_target)
    params = p.params
    rows: list[dict[int, Fraction]] = [{} for _ in ext1_band(params)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r][c] = v
    ncols = len(cols)
    basis = linalg.nullspace(rows, ncols)
    if not basis:
        return None
    ring = params.ring
    basis0 = h0_basis(0, ring)
    n0 = len(basis0)
    # h0_basis(0) starts at (0, 0), so a(0,0) and d(0,0) are the first
    # a- and d-unknowns.
    idx_a, idx_d = 0, n0
    if all(v[idx_a] == 0 for v in basis) or all(v[idx_d] == 0 for v in basis):
        return None

    # Both coordinate functionals are nonzero somewhere, so along the
    # curve t -> sum t^i * basis[i] their product is a nonzero polynomial
    # of degree < 2*len(basis); enough sample points must hit a unit.
    for t in range(2 * len(basis) + 1):
        weights = [t ** e for e in range(len(basis))]
        if (sum(w * bv[idx_a] for w, bv in zip(weights, basis))
                and sum(w * bv[idx_d] for w, bv in zip(weights, basis))):
            break
    else:
        raise ConsistencyError("no unit-determinant point found on the solution space")
    vec = [Fraction(0)] * ncols
    for w, bv in zip(weights, basis):
        if w:
            for c, x in enumerate(bv):
                if x:
                    vec[c] += w * x

    witness = GroupElem.from_reps(
        params, RingElem(ring, dict(zip(basis0, vec[:n0]))), RingElem.zero(ring),
        RingElem(ring, dict(zip(h0_basis(2 * params.j, ring), vec[2 * n0:]))),
        RingElem(ring, dict(zip(basis0, vec[n0:2 * n0]))))
    if act(witness, p) != p_target:
        raise ConsistencyError("isomorphism witness fails to act correctly")
    return witness


# -- filtration count of Hom dimensions --------------------------------------


def spectral_differentials(p: ExtClass, p_target: ExtClass) -> tuple[int, int]:
    """The ranks of d1 and of d2 modulo the image of d1.

    The second is the quotient rank rank [d1 | d2] - rank d1.
    """
    cols = build_linear_system(p, p_target)
    rank_d1 = linalg.rank(cols[:2 * h0_dim(0, p.params.ring)])
    return rank_d1, linalg.rank(cols) - rank_d1


@dataclass(frozen=True)
class HomProfile:
    """Dimension bookkeeping for Hom(E_p, E_p') and Ext^1(E_p, E_p')."""

    dim_hom: int
    dim_ext1: int
    dim_ker_d1: int
    dim_ker_d2: int
    dim_hom_L2L1: int

    def __post_init__(self):
        if self.dim_hom != self.dim_hom_L2L1 + self.dim_ker_d1 + self.dim_ker_d2:
            raise ConsistencyError("Hom filtration dimensions do not add up")
        if self.dim_ext1 < 0:
            raise ConsistencyError("negative Ext dimension")

    def to_dict(self) -> dict:
        return {
            "dim_hom": self.dim_hom,
            "dim_ext1": self.dim_ext1,
            "dim_ker_d1": self.dim_ker_d1,
            "dim_ker_d2": self.dim_ker_d2,
            "dim_hom_L2L1": self.dim_hom_L2L1,
        }


def hom_ext_dims(p: ExtClass, p_target: ExtClass) -> HomProfile:
    """Hom/Ext dimensions via the filtration differentials.

    dim_hom = h0(-2j) + dim ker d1 + dim ker d2, where d2 is taken modulo
    the image of d1, so dim ker d2 = h0(2j) - (rank [d1 | d2] - rank d1).
    dim_ext1 closes the four-term exact sequence relating Hom and Ext of
    the glued bundles to those of the split bundle:
    dim_hom - dim End(split) + dim Ext^1(split) - dim_ext1 = 0.
    """
    params = p.params
    ring = params.ring
    j = params.j
    rank_d1, rank_d2 = spectral_differentials(p, p_target)
    dim_b = h0_dim(-2 * j, ring)
    dim_ker_d1 = 2 * h0_dim(0, ring) - rank_d1
    dim_ker_d2 = h0_dim(2 * j, ring) - rank_d2
    dim_hom = dim_b + dim_ker_d1 + dim_ker_d2
    dim_end_split = 2 * h0_dim(0, ring) + h0_dim(2 * j, ring) + dim_b
    dim_ext1_split = h1_dim(-2 * j, ring)
    dim_ext1 = dim_hom - dim_end_split + dim_ext1_split
    return HomProfile(dim_hom, dim_ext1, dim_ker_d1, dim_ker_d2, dim_b)


# -- brute-force oracle -------------------------------------------------------


def default_degree_bound(params: ModuliParams) -> int:
    return params.k * (params.m - 1) + 2 * params.j + 1


def _hom_space(t_target: Mat2, t_source_inv: Mat2, degree: int):
    """Nullspace of the chart-regularity system for intertwining pairs.

    Unknowns are the coefficients of the four entries of A on monomials
    z^l u^i with 0 <= l <= degree.  The second-chart matrix
    B = T(p') A T(p)^-1 is linear in them: the unknown z^l u^i of entry e
    contributes z^l u^i times the image T(p') E_e T(p)^-1 of the unit
    matrix E_e.  Each monomial of B with l > k*i must vanish.
    """
    ring = t_target.a11.params
    k = ring.k
    monos = [(l, i) for i in range(ring.m) for l in range(degree + 1)]
    zero, one = RingElem.zero(ring), RingElem.one(ring)
    units = (Mat2(one, zero, zero, zero), Mat2(zero, one, zero, zero),
             Mat2(zero, zero, one, zero), Mat2(zero, zero, zero, one))
    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for entry, unit in enumerate(units):
        image = [(b_entry, elem) for b_entry, elem
                 in enumerate((t_target * unit * t_source_inv).entries()) if elem]
        base = entry * len(monos)
        for idx, (l, i) in enumerate(monos):
            for b_entry, elem in image:
                for (ll, ii), coeff in elem.shift(l, i).terms.items():
                    if ll > k * ii:
                        rows.setdefault((b_entry, ll, ii), {})[base + idx] = coeff
    return linalg.nullspace(list(rows.values()), 4 * len(monos)), monos


def brute_force_hom(p: ExtClass, p_target: ExtClass,
                    degree: int | None = None) -> tuple[int, list[CocyclePair]]:
    """Dimension and basis of Hom(E_p, E_p') by direct linear algebra.

    Solves for matrix pairs with A supported in z-degrees 0..degree and
    requires the dimension to be unchanged at degree+1; otherwise the
    degree bound was too small to have stabilized.  Each pair's B is
    T(p') A T(p)^-1, the same product the solver's system is read from.
    """
    if p.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    params = p.params
    if degree is None:
        degree = default_degree_bound(params)
    if degree < 1:
        raise ValueError("degree bound must be at least 1")
    t_target = p_target.transition()
    t_source_inv = p.transition().inverse()
    basis, monos = _hom_space(t_target, t_source_inv, degree)
    basis_next, _ = _hom_space(t_target, t_source_inv, degree + 1)
    if len(basis) != len(basis_next):
        raise ValueError("degree bound too small")

    ring = params.ring
    pairs = []
    for vec in basis:
        entries = []
        for entry in range(4):
            terms = {}
            base = entry * len(monos)
            for idx, (l, i) in enumerate(monos):
                coeff = vec[base + idx]
                if coeff:
                    terms[(l, i)] = coeff
            entries.append(RingElem(ring, terms))
        a_mat = Mat2(*entries)
        b_mat = t_target * a_mat * t_source_inv
        pairs.append(CocyclePair(params, a_mat, b_mat))
    return len(basis), pairs
