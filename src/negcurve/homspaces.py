"""Isomorphism decision and Hom/Ext dimensions for glued rank-2 bundles.

Two bundles with classes p and p' are isomorphic exactly when some
automorphism datum (a, d, c) with a(0,0)*d(0,0) != 0 kills the band
sector of the residual r = B11 p - p' A22 of its canonical cocycle
pair, which ``groupoid._residual`` computes:

    r = (a + (z^-j c p')_V) p - p' (d + (z^-j c p)_+),

where (.)_V keeps the second-chart-regular monomials and (.)_+ the
rest.  On the band r is minus [d1 | d2] applied to the
coefficients of (a, d, c), where d1(a, d) is the class of d*p' - a*p and
d2(c) that of (z^-j c p)_+ p' - (z^-j c p')_V p.  ``build_linear_system``
builds this matrix once in integers, times den(p) den(p'), one sparse
row per band monomial, its c-columns from one running integer product:
at most 3 |p| |p'| term products, in memory bounded by the support of
p p'.  Its unknowns are numbered by decreasing u-order within each
block, so elimination meets the sparse columns first.  Both consumers
read the echelon rows of that matrix and nothing more.  The isomorphism
decision reduces the unit rows of a(0,0) and d(0,0) against them and
finds a witness by one back-substitution, in integers over one common
denominator.  Hom(E_p, E_p') is counted by a
two-step filtration: ker d1, then the c whose d2-image lies in the
image of d1, of codimension rank [d1 | d2] - rank d1; the pivot columns
give both ranks.
An independent brute-force solver for intertwining matrix pairs
cross-checks every dimension; its system is read from
B = T(p') A T(p)^-1, one image T(p') E T(p)^-1 per unit matrix E, in
integers, and built once for both of its degree bounds: the degree
system is a column prefix.  Its basis pairs are read from the sparse
nullspace vectors, each B the sum of the images weighted by the entries
of A.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter

from . import linalg
from .extensions import ExtClass, Mat2, ModuliParams
from .groupoid import CocyclePair, GroupElem, act
from .ring import ConsistencyError, RingElem, _Frozen, _normal
from .sections import h0_basis, h0_dim, h1_dim


def _by_order(nums, scale: int, m: int) -> list[dict[int, int]]:
    """scale * nums as one map l -> integer per u-order 0..m-1."""
    out: list[dict[int, int]] = [{} for _ in range(m)]
    for (l, i), n in nums.items():
        out[i][l] = scale * n
    return out


def _band_entries(band: list[tuple[int, range]], w: list[dict[int, int]],
                  dl: int, di: int) -> list[tuple[int, int]]:
    """(row, n) for each nonzero term n z^l u^i of w whose shift
    z^(l+dl) u^(i+di) is a band monomial.

    band[i] is the first row and the z-exponents of the band at u-order
    i.  Each u-order is read from the smaller side: the terms of w there,
    or the band slice they shift into.
    """
    out = []
    for i in range(len(band) - di):
        wi = w[i]
        first, ls = band[i + di]
        if not wi or not ls:
            continue
        lo, hi = ls.start - dl, ls.stop - dl
        off = first - lo
        if len(wi) <= len(ls):
            for l, n in wi.items():
                if lo <= l < hi and n:
                    out.append((off + l, n))
        else:
            for l in range(lo, hi):
                n = wi.get(l)
                if n:
                    out.append((off + l, n))
    return out


def _add_term_product(w: list[dict[int, int]], key: tuple[int, int], n: int,
                      terms: list, m: int) -> None:
    """w += n z^l u^i * terms in integers, truncated at u^m; (l, i) = key."""
    l1, i1 = key
    for (l2, i2), n2 in terms:
        i = i1 + i2
        if i < m:
            wi = w[i]
            l = l1 + l2
            wi[l] = wi.get(l, 0) + n * n2


def _band_layout(params: ModuliParams) -> tuple[list, list]:
    """The monomials of the a- and d-blocks, and of the c-block, of
    ``build_linear_system``, each in column order.

    They are h0_basis(0) and h0_basis(2j), each by decreasing u-order
    (increasing l within one).  An unknown of u-order i meets only band
    rows of u-order above i, since p and p' have no i = 0 terms, so the
    high-order columns are the sparse ones, and ``echelon``, which pivots
    on the smallest column, takes them first: the column half of a
    Markowitz order (Markowitz, Management Science 3, 1957).  The a- and
    d-blocks stay a prefix, so rank d1 is still read from the pivots.
    """
    ring = params.ring
    return tuple(sorted(h0_basis(s, ring), key=lambda mono: -mono[1]) for s in (0, 2 * params.j))


def build_linear_system(p: ExtClass, p_target: ExtClass) -> list[dict[int, int]]:
    """The band rows of [d1 | d2] times D = den(p) den(p'), in integers.

    Each row is a sparse map unknown -> nonzero integer, the rational row
    times D; one row per band monomial z^l u^i, k*i - j < l < j, in (i, l)
    order over 0 <= i < m.  The unknowns are the a-block, the d-block
    (both h0_basis(0)), then the c-block (h0_basis(2j)), each block in
    the order of ``_band_layout``, and each row holds its unknowns in
    increasing column order.  The a- and d-columns are
    band lookups of the shifts -z^l u^i p and z^l u^i p', read from nums
    as -den(p') nums(p) and den(p) nums(p').

    The c-columns are read from one running product.  Write
    a(t) = l - k*i for a term t = p_t z^l u^i of p, and b(s) likewise for
    a term s of p'.  For c = z^lc u^ic and theta = j - lc + k*ic,
    minus the residual r of (0, 0, c) is z^(lc-j) u^ic W_theta with

        W_theta = sum_{a(t) > theta} t p' - sum_{b(s) <= theta} s p,

    because (z^-j c t)_+ keeps exactly the t with a(t) > theta and
    (z^-j c s)_V the s with b(s) <= theta.  The c-unknowns are visited in
    increasing theta: W starts as p p', and each threshold a(t) or b(s)
    that theta reaches subtracts t p' or s p once, so the c-block makes at
    most 3 |p| |p'| integer term products.  W is held as the integers
    D W, from nums alone, on the support of p p'; no Fraction and no
    table of term pairs is formed.
    """
    if p.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    params = p.params
    ring, j, k, m = params.ring, params.j, params.k, params.m
    band, first = [], 0
    for i in range(m):
        ls = params.band_rows(i)
        band.append((first, ls))
        first += len(ls)
    basis0, basis_c = _band_layout(params)
    minus_p = _by_order(p.p.nums, -p_target.p.den, m)
    target = _by_order(p_target.p.nums, p.p.den, m)
    columns = [_band_entries(band, terms, l, i)
               for terms in (minus_p, target) for (l, i) in basis0]
    first_c = len(columns)
    columns += [[]] * len(basis_c)

    num_p, num_q = list(p.p.nums.items()), list(p_target.p.nums.items())
    w: list[dict[int, int]] = [{} for _ in range(m)]
    for key, n in num_p:
        _add_term_product(w, key, n, num_q, m)
    leaving = sorted([(l - k * i, (l, i), -n, num_q) for (l, i), n in num_p]
                     + [(l - k * i, (l, i), -n, num_p) for (l, i), n in num_q],
                     key=itemgetter(0))
    pos = 0
    for theta, u, lc, ic in sorted((j - lc + k * ic, u, lc, ic)
                                   for u, (lc, ic) in enumerate(basis_c, first_c)):
        while pos < len(leaving) and leaving[pos][0] <= theta:
            _, key, n, terms = leaving[pos]
            _add_term_product(w, key, n, terms, m)
            pos += 1
        columns[u] = _band_entries(band, w, lc - j, ic)

    rows: list[dict[int, int]] = [{} for _ in range(first)]
    for u, column in enumerate(columns):
        for r, x in column:
            rows[r][u] = x
    return rows


def isom_decide(p: ExtClass, p_target: ExtClass) -> GroupElem | None:
    """An explicit gluing isomorphism from E_p to E_{p_target}, or None.

    Solves the band obstruction for (a, d, c), in the column order of
    ``build_linear_system``, then looks for a solution with
    a(0,0)*d(0,0) != 0.  Over the rationals such a solution exists
    unless one of the two coordinate functionals vanishes on the whole
    solution space, so finitely many combinations of nullspace basis
    vectors settle it.  Everything is read from the echelon rows, with no
    back-elimination.  A functional e_c vanishes on the kernel exactly
    when it lies in the row space, that is when the unit row {c: 1}
    reduces to zero against the pivot rows; otherwise the reduced row,
    on free columns only, is a nonzero multiple of e_c on the kernel.
    The combination with weight w_f on free column f is the kernel
    vector with those free coordinates; it is found by one
    back-substitution through the echelon rows, highest pivot first, in
    integers over one common denominator.  So the witness is the kernel
    vector whose free coordinates, in that column order, are the chosen
    weights.  A found witness (with b = 0) is verified by applying the
    action before it is returned.
    """
    params = p.params
    ring = params.ring
    basis0, basis_c = _band_layout(params)
    n0 = len(basis0)
    ncols = 2 * n0 + len(basis_c)
    pivots = linalg.echelon(build_linear_system(p, p_target))
    order = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]
    # (0, 0) is the last monomial of u-order 0, so a(0,0) and d(0,0) are
    # the last a- and d-unknowns.  Clearing pivot column c adds only
    # columns above c, so one pass in increasing order clears every
    # pivot column.
    residuals = []
    for idx in (n0 - 1, 2 * n0 - 1):
        red = {idx: 1}
        for c in order:
            if c in red:
                red = linalg._clear(red, c, pivots[c])
        if not red:
            return None
        residuals.append(red)

    # Both coordinate functionals are nonzero somewhere, so along the
    # curve t -> sum t^e * (vector of free column e) their product is a
    # nonzero polynomial of degree < 2*len(free_cols); enough sample
    # points must hit a unit.
    for t in range(2 * len(free_cols) + 1):
        weights = {f: t ** e for e, f in enumerate(free_cols)}
        if all(sum(v * weights[f] for f, v in red.items()) for red in residuals):
            break
    else:
        raise ConsistencyError("no unit-determinant point found on the solution space")
    # The kernel vector is nums / den; row c gives
    # x_c = -sum_{cc > c} row[cc] x_cc / row[c].
    nums = {f: w for f, w in weights.items() if w}
    den = 1
    for c in reversed(order):
        row = pivots[c]
        s = sum(v * nums[cc] for cc, v in row.items() if cc in nums)
        if s:
            lead = row[c]
            g = gcd(s, lead)
            s, lead = s // g, lead // g
            if lead < 0:
                s, lead = -s, -lead
            if lead != 1:
                den *= lead
                for cc in nums:
                    nums[cc] *= lead
            nums[c] = -s

    def rep(basis: list, first: int) -> RingElem:
        return _normal(ring, den, {mono: nums[u] for u, mono in enumerate(basis, first) if u in nums})

    witness = GroupElem.from_reps(params, rep(basis0, 0), RingElem.zero(ring),
                                  rep(basis_c, 2 * n0), rep(basis0, n0))
    if act(witness, p) != p_target:
        raise ConsistencyError("isomorphism witness fails to act correctly")
    return witness


# -- filtration count of Hom dimensions --------------------------------------


def spectral_differentials(p: ExtClass, p_target: ExtClass) -> tuple[int, int]:
    """The ranks of d1 and of d2 modulo the image of d1.

    The second is the quotient rank rank [d1 | d2] - rank d1.  Both are
    read from one echelon form of the band rows: row operations keep the
    linear relations among columns and each pivot row is keyed by its
    leading column, so the first n columns have rank equal to the number
    of pivots below n.  rank d1 counts the pivots among the 2*h0(0)
    (a, d)-columns, rank [d1 | d2] all of them.
    """
    pivots = linalg.echelon(build_linear_system(p, p_target))
    n_ad = 2 * h0_dim(0, p.params.ring)
    rank_d1 = sum(1 for c in pivots if c < n_ad)
    return rank_d1, len(pivots) - rank_d1


class HomProfile(_Frozen):
    """Dimension bookkeeping for Hom(E_p, E_p') and Ext^1(E_p, E_p')."""

    __slots__ = ("dim_hom", "dim_ext1", "dim_ker_d1", "dim_ker_d2", "dim_hom_L2L1")

    def __init__(self, dim_hom: int, dim_ext1: int, dim_ker_d1: int, dim_ker_d2: int,
                 dim_hom_L2L1: int):
        if dim_hom != dim_hom_L2L1 + dim_ker_d1 + dim_ker_d2:
            raise ConsistencyError("Hom filtration dimensions do not add up")
        if dim_ext1 < 0:
            raise ConsistencyError("negative Ext dimension")
        super().__init__(dim_hom, dim_ext1, dim_ker_d1, dim_ker_d2, dim_hom_L2L1)

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values(self)))


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


def _hom_rows(images: list, columns: list) -> list[dict[int, int]]:
    """The integer chart-regularity system for intertwining pairs, one row
    per monomial of B that must vanish.

    Unknown u is the coefficient of the monomial z^l u^i of entry e of A,
    where columns[u] = (e, (l, i)).  It contributes z^l u^i times
    images[e], the image T(p') E_e T(p)^-1 of the unit matrix E_e with
    its entries in (x, y) order, to B = T(p') A T(p)^-1, and each monomial
    of B with l > k*i must vanish.  Rows are scaled by the lcm of the
    images' denominators; each row holds its columns in increasing order.
    """
    ring = images[0][0].params
    k, m = ring.k, ring.m
    den = lcm(*(elem.den for image in images for elem in image))
    scaled = [[(b, elem.nums.items(), den // elem.den) for b, elem in enumerate(image) if elem]
              for image in images]
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    for u, (e, (l, i)) in enumerate(columns):
        for b, nums, scale in scaled[e]:
            # The terms of z^l u^i times the image entry, truncated at u^m.
            for (ll, ii), num in nums:
                ll, ii = ll + l, ii + i
                if ii < m and ll > k * ii:
                    rows.setdefault((b, ll, ii), {})[u] = scale * num
    return list(rows.values())


def brute_force_hom(p: ExtClass, p_target: ExtClass,
                    degree: int | None = None) -> tuple[int, list[CocyclePair]]:
    """Dimension and basis of Hom(E_p, E_p') by direct linear algebra.

    Solves for matrix pairs with A supported in z-degrees 0..degree and
    requires the dimension to be unchanged at degree+1; otherwise the
    degree bound was too small to have stabilized.  One system serves
    both bounds: it is built once for degree+1, and the degree system is
    its column prefix of l <= degree.  Each entry of a row is set by its
    unknown alone, so dropping the other columns (and the rows left
    empty) gives exactly the system built for degree.  B = T(p') A T(p)^-1
    is linear in A: it is the sum of A_e times the image T(p') E_e T(p)^-1
    of each unit matrix E_e.  E_e = E_rs, with e = 2r + s, is column r
    times row s, so entry (x, y) of its image is T(p')_xr T(p)^-1_sy, one
    ring product; the 16 are formed once, and both the system and each
    basis pair's B are read from them.  Each basis pair's A holds the
    nonzero entries of one sparse nullspace vector.  The columns keep the
    (entry, u-order, l) order, since the free columns, and so the basis
    pairs, follow the column order.

    Every entry of A of every pair lies in z-degrees <= D = k(m-1) + 2j,
    so any degree >= D gives all of Hom.  Solve B = T(p') A T(p)^-1 for
    A, with T(p) = (z^j, p; 0, z^-j), B v-regular (l <= k*i) and
    i <= m-1 throughout:

    - A21 = z^2j B21, so l <= k*i + 2j <= D.
    - A11 = B11 - z^-j p' A21 and A22 = B22 + z^-j A21 p.  A band term of
      p or p' has i >= 1 and l <= j - 1, so at u-order i the product
      terms have l <= (j - 1) + k(i-1) + 2j - j, and
      l <= max(k*i, k(i-1) + 2j - 1) <= D.
    - A12 = z^-2j (B12 - z^j (p' A22 - A11 p) + p' A21 p).  At u-order i,
      z^-2j B12 gives l <= k*i - 2j; the middle products give
      l <= (j - 1) + max(k(i-1), k(i-2) + 2j - 1) - j; the last, with
      two band factors, gives l <= 2(j - 1) + k(i-2) + 2j - 2j.  Each is
      below D.

    The bound is sharp: A = (0, 0; z^D u^(m-1), 0) pairs with
    B = (0, 0; z^(D-2j) u^(m-1), 0), since every other product carries a
    band factor and so a u^m, while z^(D+1) u^(m-1) in A21 puts
    z^(k(m-1)+1) u^(m-1) in B21, which is not v-regular.
    """
    if p.params != p_target.params:
        raise ValueError("mismatched moduli parameters")
    params = p.params
    if degree is None:
        degree = default_degree_bound(params)
    if degree < 1:
        raise ValueError("degree bound must be at least 1")
    t = p_target.transition().entries()
    s11, s12, s21, s22 = p.transition().entries()
    # det T(p) = 1, so T(p)^-1 is the adjugate of T(p).
    t_inv = (s22, -s12, -s21, s11)
    images = [[t[2 * x + r] * t_inv[2 * s + y] for x in (0, 1) for y in (0, 1)]
              for r in (0, 1) for s in (0, 1)]
    ring = params.ring
    # The unknowns (entry, monomial) with l <= degree, then those with l = degree + 1.
    columns = [(e, (l, i)) for e in range(4) for i in range(ring.m) for l in range(degree + 1)]
    n = len(columns)
    columns += [(e, (degree + 1, i)) for e in range(4) for i in range(ring.m)]
    rows_next = _hom_rows(images, columns)
    rows = [r for r in ({u: x for u, x in row.items() if u < n} for row in rows_next) if r]
    basis = linalg.nullspace(rows, n)
    # Only the size of this basis is read; a rank would do, but
    # `perfbench/run.py --self-test` pins 2 `nullspace` calls per brute
    # force, so the change waits for the benchmark revision (ROADMAP item 1).
    if len(basis) != len(linalg.nullspace(rows_next, len(columns))):
        raise ValueError("degree bound too small")

    zero = RingElem.zero(ring)
    pairs = []
    for vec in basis:
        entries: list[dict] = [{}, {}, {}, {}]
        for u, x in vec.items():
            e, mono = columns[u]
            entries[e][mono] = x
        a = [RingElem(ring, terms) for terms in entries]
        b = [zero] * 4
        for a_e, image in zip(a, images):
            if a_e:
                b = [acc + a_e * elem if elem else acc for acc, elem in zip(b, image)]
        pairs.append(CocyclePair(Mat2(*a), Mat2(*b)))
    return len(basis), pairs
