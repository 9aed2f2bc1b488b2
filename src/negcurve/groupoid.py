"""Bundle automorphisms acting on extension classes, as a groupoid.

An automorphism of O(j) + O(-j) is a matrix g = (a, b; c, d) of twisted
sections with nonvanishing determinant on the zero section.  Acting on
a normal-form extension class p, it produces the unique band-supported
class g.p whose bundle is glued to p's by a pair of chart-regular
matrices (A, B) with

    B * (z^j, p; 0, z^-j) = (z^j, g.p; 0, z^-j) * A,

where A and B are built from g by canonical Cech corrections.  Because
g.p depends on the base point, composing two automorphisms relative to
p gives a base-point-dependent product, and the whole structure is a
groupoid rather than a group action.  ``verify_groupoid`` checks the
groupoid laws exactly on seeded random samples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .extensions import ExtClass, Mat2, ModuliParams, basis_W, restrict_level
from .ring import (ConsistencyError, RingElem, _fields, _Frozen, _normal, invert_unit,
                   sector_split, truncate)
from .sections import TwistedSection, h0_basis


class GroupElem(_Frozen):
    """An automorphism g = (a, b; c, d) of O(j) + O(-j).

    a and d are global functions, c a section of O(2j), b a section of
    O(-2j) stored by its first-chart representative.  Invertibility is
    certified by a(0,0) * d(0,0) != 0, the determinant restricted to the
    zero section (b vanishes there for j >= 1).
    """

    __slots__ = ("params", "a", "b", "c", "d")

    def __init__(self, params: ModuliParams, a: TwistedSection, b: TwistedSection,
                 c: TwistedSection, d: TwistedSection):
        j = params.j
        for sec, twist, name in ((a, 0, "a"), (b, -2 * j, "b"), (c, 2 * j, "c"), (d, 0, "d")):
            if sec.s != twist:
                raise ValueError(f"section {name} must have twist {twist}, got {sec.s}")
            if sec.rep.params is not params.ring and sec.rep.params != params.ring:
                raise ValueError("mismatched ring parameters")
        if (0, 0) not in a.rep.nums or (0, 0) not in d.rep.nums:
            raise ValueError("not invertible")
        super().__init__(params, a, b, c, d)

    @classmethod
    def from_reps(cls, params: ModuliParams, a: RingElem, b: RingElem, c: RingElem,
                  d: RingElem) -> "GroupElem":
        j = params.j
        return cls(params, TwistedSection(0, a), TwistedSection(-2 * j, b),
                   TwistedSection(2 * j, c), TwistedSection(0, d))

    @classmethod
    def identity(cls, params: ModuliParams) -> "GroupElem":
        one = RingElem.one(params.ring)
        zero = RingElem.zero(params.ring)
        return cls.from_reps(params, one, zero, zero, one)

    def matrix(self) -> Mat2:
        """First-chart matrix (a, b_U; c_U, d)."""
        return Mat2(self.a.rep, self.b.rep, self.c.rep, self.d.rep)

    def truncated(self, m_new: int) -> "GroupElem":
        params = self.params.restricted(m_new)
        return GroupElem.from_reps(params, truncate(self.a.rep, m_new),
                                   truncate(self.b.rep, m_new),
                                   truncate(self.c.rep, m_new),
                                   truncate(self.d.rep, m_new))

    def __repr__(self):
        return (f"GroupElem(a={self.a.rep!r}, b={self.b.rep!r}, "
                f"c={self.c.rep!r}, d={self.d.rep!r})")

    def to_dict(self) -> dict:
        return {"a": self.a.to_dict(), "b": self.b.to_dict(),
                "c": self.c.to_dict(), "d": self.d.to_dict()}

    @classmethod
    def from_dict(cls, data: dict, params: ModuliParams) -> "GroupElem":
        secs = _fields(data, "abcd", "group element")
        return cls(params, *(TwistedSection.from_dict(sec) for sec in secs))


class CocyclePair(_Frozen):
    """Chart-regular matrices (A, B) intertwining two transition matrices."""

    __slots__ = ("A", "B")

    def __init__(self, A: Mat2, B: Mat2):  # named, so that CocyclePair(A=..., B=...) works
        super().__init__(A, B)

    def intertwines(self, p: ExtClass, p_target: ExtClass) -> bool:
        return self.B * p.transition() == p_target.transition() * self.A

    def is_chart_regular(self) -> bool:
        return (all(e.is_u_regular() for e in self.A.entries())
                and all(e.is_v_regular() for e in self.B.entries()))


def cech_parts(c: RingElem, x: RingElem, j: int) -> tuple[RingElem, RingElem]:
    """The canonical Cech split of z^-j * c * x into (plus, v).

    plus keeps the monomials with l > k*i, which are not regular on the
    second chart, and v the rest, so z^-j * c * x = plus + v.  Every Cech
    correction of the gluing matrices is one of these two parts.  The
    product c * x is walked once: each term is shifted by z^-j and sent
    to its part.
    """
    y = c * x
    k, nums = y.params.k, y.nums
    parts: tuple[dict, dict] = ({}, {})  # (plus, v), indexed by "is v-regular"
    for (l, i), n in nums.items():
        parts[l - j <= k * i][(l - j, i)] = n
    return _normal(y.params, y.den, parts[0]), _normal(y.params, y.den, parts[1])


def act(g: GroupElem, p: ExtClass) -> ExtClass:
    """The corrected fractional-linear action of g on the class p.

    Returns the unique band-supported class p' for which the canonical
    cocycle pair of g intertwines the transition matrices of p and p'.
    Since the band equations are triangular in the u-order with constant
    diagonal d(0,0), p' is found by forward substitution layer by layer;
    to leading order it is the familiar quotient (a*p - z^j b)/(d - z^-j p c).
    The residual r = B11 p - p' A22 is updated after every band layer
    but the last: that update would change only u-orders that are never
    read again.  So A22 = d + (z^-j c p)_+ is formed only when an update
    is due, and the final r is left to ``_pair_core``.
    """
    params = g.params
    if params is not p.params and params != p.params:
        raise ValueError("mismatched moduli parameters")
    j, k = params.j, params.k
    ring = params.ring
    i_cap = params.i_cap()
    a_rep, d_rep, c_rep = g.a.rep, g.d.rep, g.c.rep
    inv_d00 = Fraction(d_rep.den, d_rep.nums[(0, 0)])
    a22 = None
    residual = a_rep * p.p
    sol = RingElem.zero(ring)
    for i in range(1, i_cap + 1):
        nums, low = residual.nums, k * i - j
        delta = _normal(ring, residual.den,
                        {(l, ii): n for (l, ii), n in nums.items() if ii == i and low < l < j})
        if delta.is_zero():
            continue
        delta = delta.scale(inv_d00)
        sol = sol + delta
        if i == i_cap:
            break
        # Knock out this layer's band and propagate to higher u-orders.
        if a22 is None:
            a22 = d_rep + cech_parts(c_rep, p.p, j)[0]
        _, f_delta = cech_parts(c_rep, delta, j)
        residual = residual - a22 * delta + f_delta * p.p
    return ExtClass(params, sol)


def _pair_core(g: Mat2, p: ExtClass, target: ExtClass) -> tuple[RingElem, ...]:
    """A11, A12, A22 and B11 of the canonical pair of g = (a, b; c, d) from
    p to target = g.p, then the pieces g_V and prec of B22 and B12.

    B21 = z^-2j c, B22 = d - g_V and B12 = z^2j b - z^j prec complete the
    pair, where g_V is the V part of z^-j c p and prec the prec sector of
    r = B11 p - p' A22.  Extraction reads none of them.
    """
    j = p.params.j
    a_rep, b_rep, c_rep, d_rep = g.entries()
    f_plus, f_v = cech_parts(c_rep, target.p, j)
    g_plus, g_v = cech_parts(c_rep, p.p, j)
    b11 = a_rep + f_v
    a22 = d_rep + g_plus
    succ, good, prec = sector_split(b11 * p.p - target.p * a22, j)
    if not good.is_zero():
        raise ConsistencyError("cocycle target does not match the action")
    return a_rep - f_plus, b_rep + succ.shift(-j), a22, b11, g_v, prec


def _assemble_pair(g: Mat2, core: tuple, p: ExtClass, target: ExtClass,
                   check: bool) -> CocyclePair:
    """The canonical pair of g from its ``_pair_core``; with check on, verified exactly."""
    j = p.params.j
    a11, a12, a22, b11, g_v, prec = core
    _, b_rep, c_rep, d_rep = g.entries()
    pair = CocyclePair(Mat2(a11, a12, c_rep, a22),
                       Mat2(b11, b_rep.shift(2 * j) - prec.shift(j), c_rep.shift(-2 * j),
                            d_rep - g_v))
    if check:
        if not pair.is_chart_regular():
            raise ConsistencyError("cocycle pair is not chart regular")
        if not pair.intertwines(p, target):
            raise ConsistencyError("cocycle pair fails the intertwining identity")
    return pair


def _build_pair(g: Mat2, p: ExtClass, target: ExtClass, check: bool) -> CocyclePair:
    """The canonical cocycle pair of g = (a, b; c, d) from p to target = g.p."""
    return _assemble_pair(g, _pair_core(g, p, target), p, target, check)


def cocycle_matrices(g: GroupElem, p: ExtClass, check: bool = True) -> CocyclePair:
    """The canonical pair (A, B) with B * T(p) = T(act(g, p)) * A.

    With check on (the default), chart regularity and the intertwining
    identity are verified exactly before returning.
    """
    return _build_pair(g.matrix(), p, act(g, p), check)


def _global_part(x: RingElem) -> RingElem:
    k = x.params.k
    return _normal(x.params, x.den, {(l, i): n for (l, i), n in x.nums.items() if 0 <= l <= k * i})


def extract_group_elem(A: Mat2, b11: RingElem, p: ExtClass, p_target: ExtClass) -> GroupElem:
    """Recover the unique automorphism underlying an intertwining pair (A, B).

    Reads only A and the entry B11 of B: a and d are the global parts of
    A11 and A22 and c is A21; the core of the canonical pair of
    (a, 0; c, d) from p to p_target is rebuilt, and b is read off as the
    difference of the A12 entries.  A11, A22 and B11 must match the
    rebuilt ones exactly.
    """
    params = p.params
    j = params.j
    a_rep, c_rep, d_rep = _global_part(A.a11), A.a21, _global_part(A.a22)
    try:
        c_sec = TwistedSection(2 * j, c_rep)
        a11, a12, a22, rebuilt_b11, _, _ = _pair_core(
            Mat2(a_rep, RingElem.zero(params.ring), c_rep, d_rep), p, p_target)
        b_sec = TwistedSection(-2 * j, A.a12 - a12)
    except (ConsistencyError, ValueError) as exc:
        raise ValueError("not a normalized cocycle pair") from exc
    if (A.a11, A.a22, b11) != (a11, a22, rebuilt_b11):
        raise ValueError("not a normalized cocycle pair")
    return GroupElem(params, TwistedSection(0, a_rep), b_sec, c_sec, TwistedSection(0, d_rep))


def induced_product(g1: GroupElem, g2: GroupElem, p: ExtClass,
                    check: bool = True) -> GroupElem:
    """The base-point product g1 *_p g2: compose cocycle pairs and extract.

    Extraction reads only A and B11 of the composed pair, so only the
    cores of the two pairs are built, and A1 A2 and B11 are formed from
    them: B1_12 B2_21 = (z^2j b1 - z^j prec1) z^-2j c2 = (b1 - z^-j prec1) c2.
    With check on, both pairs are also assembled and verified.
    """
    if not (g1.params is g2.params is p.params or g1.params == g2.params == p.params):
        raise ValueError("mismatched moduli parameters")
    q = act(g2, p)
    q2 = act(g1, q)
    m1, m2 = g1.matrix(), g2.matrix()
    core1, core2 = _pair_core(m1, q, q2), _pair_core(m2, p, q)
    if check:
        _assemble_pair(m2, core2, p, q, check)
        _assemble_pair(m1, core1, q, q2, check)
    # A core is (A11, A12, A22, B11, g_V, prec); A21 = c.
    a1 = Mat2(core1[0], core1[1], m1.a21, core1[2])
    a2 = Mat2(core2[0], core2[1], m2.a21, core2[2])
    b11 = core1[3] * core2[3] + (m1.a12 - core1[5].shift(-p.params.j)) * m2.a21
    return extract_group_elem(a1 * a2, b11, p, q2)


def induced_inverse(g: GroupElem, p: ExtClass, check: bool = True) -> GroupElem:
    """The base-point inverse of g at p: invert the pair and extract.

    Extraction reads only A^-1 and the entry B22 / det B of B^-1, and
    det B = det A since the transition matrices have determinant 1.  So
    det A is inverted once, and that inverse scales both the adjugate
    of A and B22.
    """
    if g.params is not p.params and g.params != p.params:
        raise ValueError("mismatched moduli parameters")
    q = act(g, p)
    pair = _build_pair(g.matrix(), p, q, check)
    A = pair.A
    inv_det = invert_unit(A.det())
    a_inv = Mat2(A.a22 * inv_det, (-A.a12) * inv_det, (-A.a21) * inv_det, A.a11 * inv_det)
    return extract_group_elem(a_inv, pair.B.a22 * inv_det, q, p)


# -- seeded sampling ---------------------------------------------------------

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MASK = (1 << 63) - 1


def substream(seed: int, index: int) -> random.Random:
    """A deterministic per-sample random stream derived from (seed, index)."""
    return random.Random(((seed * _MIX1) ^ (index * _MIX2)) & _MASK)


def _nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))


def _sparse_terms(basis, rng: random.Random, max_terms: int) -> dict:
    count = min(len(basis), rng.randint(0, max_terms))
    return {(l, i): _nonzero_rational(rng) for (l, i) in rng.sample(basis, count)}


def sample_ext_class(params: ModuliParams, rng: random.Random,
                     max_terms: int = 3) -> ExtClass:
    basis = [(l, i) for (i, l) in basis_W(params)]
    return ExtClass(params, RingElem(params.ring, _sparse_terms(basis, rng, max_terms)))


def sample_group_elem(params: ModuliParams, rng: random.Random,
                      max_terms: int = 2) -> GroupElem:
    """A random automorphism: sparse sections, diagonal constants nonzero."""
    ring = params.ring
    j = params.j
    basis0 = [t for t in h0_basis(0, ring) if t != (0, 0)]
    a_terms = _sparse_terms(basis0, rng, max_terms)
    a_terms[(0, 0)] = _nonzero_rational(rng)
    d_terms = _sparse_terms(basis0, rng, max_terms)
    d_terms[(0, 0)] = _nonzero_rational(rng)
    b_terms = _sparse_terms(h0_basis(-2 * j, ring), rng, max_terms)
    c_terms = _sparse_terms(h0_basis(2 * j, ring), rng, max_terms)
    return GroupElem.from_reps(params, *(RingElem(ring, terms)
                                         for terms in (a_terms, b_terms, c_terms, d_terms)))


# -- randomized exact verification -------------------------------------------

def _check_sample(params: ModuliParams, rng: random.Random,
                  with_truncation: bool) -> dict[str, bool]:
    e = GroupElem.identity(params)
    g1 = sample_group_elem(params, rng)
    g2 = sample_group_elem(params, rng)
    g3 = sample_group_elem(params, rng)
    p = sample_ext_class(params, rng)
    out = {}

    out["identity_action"] = act(e, p) == p

    q1 = act(g1, p)
    pair1 = _build_pair(g1.matrix(), p, q1, check=False)
    out["intertwining"] = pair1.is_chart_regular() and pair1.intertwines(p, q1)
    out["roundtrip"] = extract_group_elem(pair1.A, pair1.B.a11, p, q1) == g1

    # Compatibility: acting by g1 *_p g2 equals acting by g2 then g1.
    q3 = act(g3, p)
    h23 = induced_product(g2, g3, p, check=False)
    q23 = act(g2, q3)
    out["compatibility"] = act(h23, p) == q23

    # Associativity of the base-point product.
    h12 = induced_product(g1, g2, q3, check=False)
    lhs = induced_product(h12, g3, p, check=False)
    # h23b repeats h23 on purpose: `perfbench/run.py --self-test` pins 28
    # `act` and 10 `induced_product` calls per sweep sample, so reusing h23
    # waits for the benchmark revision (ROADMAP item 1).
    h23b = induced_product(g2, g3, p, check=False)
    rhs = induced_product(g1, h23b, p, check=False)
    out["associativity"] = lhs == rhs

    out["identity_laws"] = (induced_product(e, g1, p, check=False) == g1
                            and induced_product(g1, e, p, check=False) == g1)

    ginv = induced_inverse(g1, p, check=False)
    out["inverse_laws"] = (induced_product(ginv, g1, p, check=False) == e
                           and induced_product(g1, ginv, q1, check=False) == e
                           and act(ginv, q1) == p)

    if with_truncation and params.m > 1:
        m_new = params.m - 1
        tg1, tg2 = g1.truncated(m_new), g2.truncated(m_new)
        tp = restrict_level(p, m_new)
        ok = act(tg1, tp) == restrict_level(q1, m_new)
        ok = ok and induced_product(tg1, tg2, tp, check=False) == \
            induced_product(g1, g2, p, check=False).truncated(m_new)
        ok = ok and induced_inverse(tg1, tp, check=False) == ginv.truncated(m_new)
        out["truncation"] = ok
    return out


def _run_sample(params: ModuliParams, seed: int, truncation_samples: int,
                idx: int) -> dict[str, bool]:
    return _check_sample(params, substream(seed, idx), with_truncation=idx < truncation_samples)


def verify_groupoid(params: ModuliParams, samples: int, seed: int,
                    truncation_samples: int = 0, workers: int = 1) -> dict:
    """Check the groupoid laws exactly on seeded random samples.

    Runs ``samples`` independent draws of (g1, g2, g3, p) and verifies
    the identity action, the compatibility of the base-point product
    with composition of actions, associativity, identity and inverse
    laws, the intertwining identity, and the pair-to-element round
    trip.  The first ``truncation_samples`` draws additionally check
    that everything commutes with truncation to level m-1.  Sample
    streams are derived per index, so the report does not depend on the
    number of workers.  Raises ValueError unless samples >= 1 and
    truncation_samples >= 0.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if truncation_samples < 0:
        raise ValueError("truncation_samples must be non-negative")
    run = partial(_run_sample, params, seed, truncation_samples)
    if workers > 1 and samples >= 2 * workers:
        # Imported here: loading the pool costs every CLI start-up, and
        # no CLI verb runs more than one worker.
        from concurrent.futures import ProcessPoolExecutor

        chunk = (samples + 2 * workers - 1) // (2 * workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_sample = list(pool.map(run, range(samples), chunksize=chunk))
    else:
        per_sample = map(run, range(samples))

    # Samples fold in index order, so a family's first failure is its lowest failing index.
    families: dict[str, dict] = {}
    for idx, results in enumerate(per_sample):
        for name, ok in results.items():
            fam = families.setdefault(name, {"checked": 0, "passed": 0,
                                             "first_failure_sample": None})
            fam["checked"] += 1
            if ok:
                fam["passed"] += 1
            elif fam["first_failure_sample"] is None:
                fam["first_failure_sample"] = idx
    return {
        "k": params.k,
        "j": params.j,
        "m": params.m,
        "samples": samples,
        "seed": seed,
        "dim_W": len(basis_W(params)),
        "families": families,
        "all_passed": all(f["passed"] == f["checked"] for f in families.values()),
    }
