"""Exact rational row echelon, rank and nullspace."""

import random
from fractions import Fraction

import pytest

from negcurve import linalg
from negcurve.extensions import ExtClass, ModuliParams, basis_W
from negcurve.homspaces import brute_force_hom
from negcurve.ring import RingParams


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


def test_rank_plus_nullity():
    rng = random.Random(0)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        r = len(linalg.echelon(rows))
        basis = linalg.nullspace(rows, ncols)
        assert r + len(basis) == ncols
        for vec in basis:
            assert all(v == 0 for v in apply_rows(rows, vec))


def test_nullspace_vectors_independent():
    rng = random.Random(1)
    rows = random_rows(rng, 4, 7)
    basis = linalg.nullspace(rows, 7)
    as_rows = [{c: v for c, v in enumerate(vec) if v} for vec in basis]
    assert len(linalg.echelon(as_rows)) == len(basis)


def test_rank_of_identity_and_zero():
    eye = [{i: Fraction(1)} for i in range(5)]
    assert len(linalg.echelon(eye)) == 5
    assert len(linalg.echelon([{} for _ in range(3)])) == 0
    assert linalg.nullspace([], 4) == [
        [Fraction(int(i == j)) for i in range(4)] for j in range(4)
    ]


def test_echelon_rows_are_primitive_integer_rows():
    rows = [{0: Fraction(1, 2), 2: Fraction(3, 4)}, {0: Fraction(2), 1: Fraction(6)}]
    pivots = linalg.echelon(rows)
    assert sorted(pivots) == [0, 1]
    assert pivots[0] == {0: 2, 2: 3}
    for c, row in pivots.items():
        assert min(row) == c
        assert all(type(v) is int for v in row.values())


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


def dense_hom_system():
    """The rows and width of the _hom_space system of a full (1,3,4) class."""
    params = ModuliParams(RingParams(1, 4), 3)
    rng = random.Random("dense(1,3,4)")
    p = ExtClass.from_vector(params, [big_rational(rng) for _ in basis_W(params)])
    captured = []
    real = linalg.nullspace

    def capture(rows, ncols):
        captured.append(([dict(r) for r in rows], ncols))
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
    assert len(linalg.echelon(rows)) == rank(rows)
    assert bits(linalg.nullspace(rows, ncols)) == bits(nullspace(rows, ncols))


def test_hom_system_matches_fraction_reference(hom_system):
    rows, ncols = hom_system
    assert len(rows) > 100 and ncols > 100
    assert len(linalg.echelon(rows)) == rank(rows)
    assert bits(linalg.nullspace(rows, ncols)) == bits(nullspace(rows, ncols))


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
    assert len(linalg.echelon(rows)) == r
    assert linalg.nullspace(rows, ncols) == basis


def test_hom_system_matches_sympy_rref(hom_system):
    rows, ncols = hom_system
    r, basis = sympy_rref_nullspace(rows, ncols)
    assert len(linalg.echelon(rows)) == r
    assert linalg.nullspace(rows, ncols) == basis
