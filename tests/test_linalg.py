"""Exact row echelon, rank and nullspace: integer rows in, Fraction vectors out."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from negcurve import linalg
from negcurve.extensions import ExtClass, ModuliParams, basis_W
from negcurve.groupoid import act, sample_ext_class, sample_group_elem, substream
from negcurve.homspaces import (_hom_rows, brute_force_hom, build_linear_system,
                                default_degree_bound)
from negcurve.ring import RingParams
from negcurve.sections import h0_dim


def integer_rows(rows):
    """Each row of rationals times the lcm of its denominators, as ints."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row.values()))
        out.append({c: int(v * den) for c, v in row.items()})
    return out


def random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def apply_rows(rows, vec):
    return [sum((v * vec[c] for c, v in row.items()), Fraction(0)) for row in rows]


def dense(basis, ncols):
    """The sparse nullspace vectors as dense lists of Fractions."""
    out = []
    for vec in basis:
        assert all(type(v) is Fraction and v for v in vec.values())
        assert list(vec) == sorted(vec)
        out.append([vec.get(c, Fraction(0)) for c in range(ncols)])
    return out


def test_rank_plus_nullity():
    rng = random.Random(0)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        ints = integer_rows(rows)
        r = len(linalg.echelon(ints))
        basis = dense(linalg.nullspace(ints, ncols), ncols)
        assert r + len(basis) == ncols
        for vec in basis:
            assert all(v == 0 for v in apply_rows(rows, vec))


def test_nullspace_vectors_independent():
    rng = random.Random(1)
    rows = random_rows(rng, 4, 7)
    basis = dense(linalg.nullspace(integer_rows(rows), 7), 7)
    as_rows = [{c: v for c, v in enumerate(vec) if v} for vec in basis]
    assert len(linalg.echelon(integer_rows(as_rows))) == len(basis)


def test_rank_of_identity_and_zero():
    eye = [{i: 1} for i in range(5)]
    assert len(linalg.echelon(eye)) == 5
    assert len(linalg.echelon([{} for _ in range(3)])) == 0
    assert dense(linalg.nullspace([], 4), 4) == [
        [Fraction(int(i == j)) for i in range(4)] for j in range(4)
    ]


def test_rows_must_be_integer_rows():
    for rows in ([{0: Fraction(1, 2)}], [{0: 2, 1: Fraction(3)}],
                 [{1: 1}, {0: Fraction(2, 3), 2: 1}]):
        with pytest.raises(TypeError):
            linalg.echelon(rows)
        with pytest.raises(TypeError):
            linalg.nullspace(rows, 3)


def test_echelon_rows_are_primitive_integer_rows():
    pivots = linalg.echelon([{0: 4, 2: 6}, {0: 2, 1: 6}])
    assert sorted(pivots) == [0, 1]
    assert pivots[0] == {0: 2, 2: 3}
    for c, row in pivots.items():
        assert min(row) == c
        assert all(type(v) is int for v in row.values())
    # Explicit zeros are dropped.
    assert linalg.echelon([{0: 0, 1: 2, 2: 4}]) == {1: {1: 1, 2: 2}}
    # The band system in integers, each row the rational row times
    # D = den(p) den(q), has the pivot columns and nullspace of the
    # rational rows under the Fraction reference below.
    grid = [(k, j, m) for k in (1, 2, 3) for j in (2, 3) for m in (2, 3, 4)
            if (2 * j - 2) // k >= 1]
    for k, j, m in grid:
        params = ModuliParams(RingParams(k, m), j)
        rng = substream(5353, 100 * k + 10 * j + m)
        full = ExtClass.from_vector(params, [big_rational(rng) for _ in basis_W(params)])
        sparse = sample_ext_class(params, rng)
        g = sample_group_elem(params, rng, max_terms=10 ** 6)
        assert full.p.den > 1
        ncols = 2 * h0_dim(0, params.ring) + h0_dim(2 * j, params.ring)
        for p, q in [(full, act(g, full)), (full, sparse), (sparse, full), (sparse, sparse)]:
            rows = build_linear_system(p, q)
            den = p.p.den * q.p.den
            assert all(type(v) is int and v for row in rows for v in row.values())
            rational = [{c: Fraction(v, den) for c, v in row.items()} for row in rows]
            assert sorted(linalg.echelon(rows)) == sorted(echelon(rational))
            assert dense(linalg.nullspace(rows, ncols), ncols) == nullspace(rational, ncols)


# -- reference: the earlier Fraction elimination, verbatim --------------------
# Reduces each row against the pivots found so far and back-substitutes a
# dense Fraction vector per free column.  linalg must match it bit for bit.


def _reduce_row(row: dict, pivots: dict) -> dict:
    """Eliminate row against the pivot rows, lowest column first."""
    row = dict(row)
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return row
        factor = row[c] / piv[c]
        for cc, v in piv.items():
            s = row.get(cc, Fraction(0)) - factor * v
            if s:
                row[cc] = s
            else:
                row.pop(cc, None)
    return row


def echelon(rows: list[dict]) -> dict[int, dict]:
    """Bring rows to echelon form; returns pivot column -> reduced row."""
    pivots: dict[int, dict] = {}
    for row in rows:
        red = _reduce_row(row, pivots)
        if red:
            pivots[min(red)] = red
    return pivots


def rank(rows: list[dict]) -> int:
    return len(echelon(rows))


def nullspace(rows: list[dict], ncols: int) -> list[list[Fraction]]:
    """A basis of the right nullspace, one dense vector per free column."""
    pivots = echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            s = sum((v * vec[cc] for cc, v in row.items() if cc != c), Fraction(0))
            if s:
                vec[c] = -s / row[c]
        basis.append(vec)
    return basis


# -- exactness against the reference and against sympy ------------------------

BIG = 10 ** 6


def big_rational(rng):
    """A nonzero rational with numerator and denominator up to about 10^6."""
    return Fraction(rng.randint(1, BIG) * rng.choice((-1, 1)), rng.randint(1, BIG))


def big_rows(rng, nrows, ncols, density):
    return [{c: big_rational(rng) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)]


def deficient_rows(rng, nrows, ncols, rank_):
    """nrows rows spanning a space of dimension at most rank_, zeros dropped."""
    base = big_rows(rng, rank_, ncols, 0.6)
    rows = []
    for _ in range(nrows):
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in base]
        row = {}
        for w, b in zip(weights, base):
            for c, v in b.items():
                row[c] = row.get(c, Fraction(0)) + w * v
        rows.append({c: v for c, v in row.items() if v})
    return rows


def random_systems():
    """Seeded sparse, dense and rank-deficient systems as (name, rows, ncols)."""
    rng = random.Random(20261018)
    systems = []
    for idx in range(12):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
        systems.append((f"sparse{idx}", big_rows(rng, nrows, ncols, 0.25), ncols))
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        systems.append((f"dense{idx}", big_rows(rng, nrows, ncols, 1.0), ncols))
        ncols = rng.randint(2, 14)
        systems.append((f"deficient{idx}",
                        deficient_rows(rng, rng.randint(2, 12), ncols, rng.randint(1, ncols - 1)),
                        ncols))
    return systems


SYSTEMS = random_systems()


def bits(vectors):
    """Every entry as (type, numerator, denominator)."""
    return [[(type(v), v.numerator, v.denominator) for v in vec] for vec in vectors]


def dense_hom_class():
    """A full (1,3,4) class with coefficients of about 10^6 over 10^6."""
    params = ModuliParams(RingParams(1, 4), 3)
    rng = random.Random("dense(1,3,4)")
    return ExtClass.from_vector(params, [big_rational(rng) for _ in basis_W(params)])


def dense_hom_system():
    """The rows and width of the degree system of brute_force_hom on a full (1,3,4) class.

    The references take Fraction rows, so each integer row is divided by
    its first entry: the same system, with entries of at most about half
    the bits of the integer rows, which keeps sympy's RREF fast.
    """
    p = dense_hom_class()
    captured = []
    real = linalg.nullspace

    def capture(rows, ncols):
        captured.append(([{c: Fraction(v, next(iter(r.values()))) for c, v in r.items()}
                          for r in rows], ncols))
        return real(rows, ncols)

    linalg.nullspace = capture
    try:
        brute_force_hom(p, p)
    finally:
        linalg.nullspace = real
    return captured[0]


@pytest.fixture(scope="module")
def hom_system():
    return dense_hom_system()


@pytest.mark.parametrize("name,rows,ncols", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_matches_fraction_reference(name, rows, ncols):
    ints = integer_rows(rows)
    assert len(linalg.echelon(ints)) == rank(rows)
    assert bits(dense(linalg.nullspace(ints, ncols), ncols)) == bits(nullspace(rows, ncols))


def test_hom_system_matches_fraction_reference(hom_system):
    rows, ncols = hom_system
    ints = integer_rows(rows)
    assert len(rows) > 100 and ncols > 100
    assert len(linalg.echelon(ints)) == rank(rows)
    assert bits(dense(linalg.nullspace(ints, ncols), ncols)) == bits(nullspace(rows, ncols))


def test_hom_rows_are_nonzero_integer_rows():
    p = dense_hom_class()
    m, degree = p.params.m, default_degree_bound(p.params)
    columns = [(e, (l, i)) for e in range(4) for i in range(m) for l in range(degree + 1)]
    n = len(columns)
    columns += [(e, (degree + 1, i)) for e in range(4) for i in range(m)]
    # The images T(p) E_e T(p)^-1 of the unit matrices, as brute_force_hom forms them.
    t = p.transition().entries()
    t_inv = (t[3], -t[1], -t[2], t[0])
    images = [[t[2 * x + r] * t_inv[2 * s + y] for x in (0, 1) for y in (0, 1)]
              for r in (0, 1) for s in (0, 1)]
    rows = _hom_rows(images, columns)
    assert len(rows) > 100
    assert all(type(v) is int and v for row in rows for v in row.values())
    assert all(list(row) == sorted(row) and 0 <= min(row) and max(row) < len(columns)
               for row in rows)
    # The system built on a column prefix is the full system cut to that prefix.
    cut = [r for r in ({u: x for u, x in row.items() if u < n} for row in rows) if r]
    alone = _hom_rows(images, columns[:n])
    assert sorted(map(sorted, map(dict.items, cut))) == sorted(map(sorted, map(dict.items, alone)))


def sympy_rref_nullspace(rows, ncols):
    """Rank and nullspace basis read off sympy's RREF over QQ."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    dense = [[qq(row[c].numerator, row[c].denominator) if c in row else qq(0)
              for c in range(ncols)] for row in rows]
    rref, pivots = DomainMatrix(dense, (len(rows), ncols), qq).rref()
    rref = rref.to_list()
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v = rref[i][f]
            vec[c] = -Fraction(int(v.numerator), int(v.denominator))
        basis.append(vec)
    return len(pivots), basis


@pytest.mark.parametrize("name,rows,ncols", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_matches_sympy_rref(name, rows, ncols):
    r, basis = sympy_rref_nullspace(rows, ncols)
    ints = integer_rows(rows)
    assert len(linalg.echelon(ints)) == r
    assert dense(linalg.nullspace(ints, ncols), ncols) == basis


def test_hom_system_matches_sympy_rref(hom_system):
    rows, ncols = hom_system
    r, basis = sympy_rref_nullspace(rows, ncols)
    ints = integer_rows(rows)
    assert len(linalg.echelon(ints)) == r
    assert dense(linalg.nullspace(ints, ncols), ncols) == basis


# -- the reduced echelon form and the nullspace read from it -------------------


def read_nullspace(pivots, ncols):
    """The basis vector of each free column f: 1 at f, -row_c[f] / row_c[c]
    at each pivot column c."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for c, row in pivots.items():
            if f in row:
                vec[c] = Fraction(-row[f], row[c])
        basis.append(vec)
    return basis


@pytest.mark.parametrize("name,rows,ncols", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_reduced_echelon_rows_hold_pivot_and_free_columns(name, rows, ncols):
    ints = integer_rows(rows)
    pivots = linalg._reduced_echelon(linalg.echelon(ints))
    assert sorted(pivots) == sorted(linalg.echelon(ints))
    for c, row in pivots.items():
        assert min(row) == c and row[c] != 0
        assert all(cc == c or cc not in pivots for cc in row)
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
    assert bits(dense(linalg.nullspace(ints, ncols), ncols)) == bits(read_nullspace(pivots, ncols))


def test_hom_system_reduced_echelon(hom_system):
    rows, ncols = hom_system
    ints = integer_rows(rows)
    pivots = linalg._reduced_echelon(linalg.echelon(ints))
    assert all(cc == c or cc not in pivots for c, row in pivots.items() for cc in row)
    assert bits(dense(linalg.nullspace(ints, ncols), ncols)) == bits(read_nullspace(pivots, ncols))


# -- independence of the input row order ---------------------------------------


def orderings(rows):
    """The rows reversed and in three seeded shuffles."""
    out = [rows[::-1]]
    for seed in range(3):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        out.append(shuffled)
    return out


def assert_order_independent(rows):
    rows = integer_rows(rows)
    pivots = linalg._reduced_echelon(linalg.echelon(rows))
    assert all(row[c] > 0 for c, row in pivots.items())
    keys = sorted(linalg.echelon(rows))
    for other in orderings(rows):
        assert linalg._reduced_echelon(linalg.echelon(other)) == pivots
        assert sorted(linalg.echelon(other)) == keys


@pytest.mark.parametrize("name,rows,ncols", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_reduced_echelon_does_not_depend_on_row_order(name, rows, ncols):
    assert_order_independent(rows)


def test_hom_system_reduced_echelon_does_not_depend_on_row_order(hom_system):
    rows, _ = hom_system
    assert_order_independent(rows)
