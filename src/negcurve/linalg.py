"""Exact linear algebra over the rationals on sparse integer rows.

Input rows are dicts mapping column index -> rational (a Fraction or an
int).  Columns are integers 0..ncols-1.  Everything is exact; there are
no pivot thresholds.

Each input row is scaled by the lcm of its denominators and kept
primitive: after every step the gcd of its entries (its content) is
divided out.  Elimination is fraction-free Gauss-Jordan in the spirit of
Bareiss (Math. Comp. 22, 1968): an entry at column c is cleared from a
row r by the pivot row p as (p[c] r - r[c] p) / g, with g = gcd(p[c], r[c]),
so every row stays an integer multiple of a rational row of the system.

``echelon`` brings the rows to echelon form, one pivot row per leading
column.  ``nullspace`` back-eliminates those rows once, from the highest
pivot down, into reduced echelon form, where row c has only its pivot
column c and free columns.  The basis vector of a free column f is then
read off: 1 at f, -row_c[f] / row_c[c] at each pivot column c, and 0
elsewhere.  This is the unique nullspace vector whose free coordinates
are those of e_f, so the basis does not depend on the elimination order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _integer_row(row: dict) -> dict[int, int]:
    """The primitive integer multiple of a row of rationals, zeros dropped."""
    row = {c: v for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})


def _clear(row: dict[int, int], col: int, piv: dict[int, int]) -> dict[int, int]:
    """row with its entry at col cleared by the pivot row piv, made primitive."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in piv.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            del out[c]
    return _primitive(out)


def echelon(rows: list[dict]) -> dict[int, dict[int, int]]:
    """Bring rows to echelon form; returns pivot column -> primitive integer row.

    The pivot rows have distinct leading columns, and the leading column
    of each is its key.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        red = _integer_row(row)
        while red:
            c = min(red)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = red
                break
            red = _clear(red, c, piv)
    return pivots


def nullspace(rows: list[dict], ncols: int) -> list[list[Fraction]]:
    """A basis of the right nullspace, one dense vector per free column.

    Vectors follow the free columns in increasing order; the vector of
    free column f is 1 at f and 0 at every other free column.
    """
    pivots = echelon(rows)
    # Highest pivot first, in place: the other pivot columns of row c lie
    # above c, and their rows already hold only their own pivot column
    # and free columns, so clearing with them adds no pivot column.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in [cc for cc in row if cc != c and cc in pivots]:
            row = _clear(row, cc, pivots[cc])
        pivots[c] = row
    free_cols = [c for c in range(ncols) if c not in pivots]
    zero = Fraction(0)
    basis = {f: [zero] * ncols for f in free_cols}
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    for c, row in pivots.items():
        lead = row[c]
        for f, v in row.items():
            if f != c:
                basis[f][c] = Fraction(-v, lead)
    return list(basis.values())
