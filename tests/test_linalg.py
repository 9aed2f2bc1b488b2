"""Exact rational row echelon, rank and nullspace."""

import random
from fractions import Fraction

from negcurve import linalg


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
        r = linalg.rank(rows)
        basis = linalg.nullspace(rows, ncols)
        assert r + len(basis) == ncols
        for vec in basis:
            assert all(v == 0 for v in apply_rows(rows, vec))


def test_nullspace_vectors_independent():
    rng = random.Random(1)
    rows = random_rows(rng, 4, 7)
    basis = linalg.nullspace(rows, 7)
    as_rows = [{c: v for c, v in enumerate(vec) if v} for vec in basis]
    assert linalg.rank(as_rows) == len(basis)


def test_rank_of_identity_and_zero():
    eye = [{i: Fraction(1)} for i in range(5)]
    assert linalg.rank(eye) == 5
    assert linalg.rank([{} for _ in range(3)]) == 0
    assert linalg.nullspace([], 4) == [
        [Fraction(int(i == j)) for i in range(4)] for j in range(4)
    ]
