"""Exact linear algebra over the rationals on sparse integer rows.

Integer rows in, Fraction vectors out.  Input rows are dicts mapping
column index -> int; zero entries are dropped.  Columns are integers
0..ncols-1.  Everything is exact; there are no pivot thresholds.

Each row is kept primitive: after every step the gcd of its entries (its
content) is divided out.  Elimination is fraction-free Gauss-Jordan in
the spirit of Bareiss (Math. Comp. 22, 1968): an entry at column c is
cleared from a row r by the pivot row p as (p[c] r - r[c] p) / g, with
g = gcd(p[c], r[c]), so every row stays an integer multiple of a
rational row of the system.

``echelon`` brings the rows to echelon form, one pivot row per leading
column.  It takes the rows shortest first (fewest nonzero entries; a
stable sort, so rows of equal length keep their input order), in the
manner of Markowitz pivot ordering (Management Science 3, 1957) and
structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90).
A pivot row's entries are added to every row it clears, so short pivot
rows spread fewer nonzeros and smaller integers through the later rows
than long ones taken first.  The order changes neither the pivot
columns nor the result: the leading columns are the lexicographically
first column basis of the row space.  Callers that need less than a
basis read what they need from these rows with ``_clear``.

``nullspace`` back-eliminates the echelon rows once, from the highest
pivot down, into reduced echelon form, where row c has only its pivot
column c and free columns.  Such a primitive integer row is unique up
to sign, a multiple of the reduced row echelon row of column c; rows
with a negative pivot entry are negated, so the form does not depend on
the input order of the rows.  The basis is read off that form: the
vector of a free column f is 1 at f, -row_c[f] / row_c[c] at each pivot
column c whose row holds f, and 0 elsewhere.  This is the unique
nullspace vector whose free coordinates are those of e_f.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


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


def echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Bring integer rows to echelon form; returns pivot column -> primitive row.

    The pivot rows have distinct leading columns, and the leading column
    of each is its key.  Rows are reduced in increasing order of their
    nonzero count.
    """
    pivots: dict[int, dict[int, int]] = {}
    for red in sorted((_primitive({c: v for c, v in row.items() if v}) for row in rows), key=len):
        while red:
            c = min(red)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = red
                break
            red = _clear(red, c, piv)
    return pivots


def _reduced_echelon(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The echelon rows back-eliminated in place into reduced echelon form.

    Row c holds its pivot column c, with a positive entry, and free
    columns only.
    """
    # The other pivot columns of row c lie above c, and their rows
    # already hold only their own pivot column and free columns, so
    # clearing with them adds no pivot column.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in [cc for cc in row if cc != c and cc in pivots]:
            row = _clear(row, cc, pivots[cc])
        pivots[c] = row if row[c] > 0 else {cc: -v for cc, v in row.items()}
    return pivots


def nullspace(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """A basis of the right nullspace, one sparse vector per free column.

    Each vector maps column -> nonzero Fraction, in increasing column
    order.  Vectors follow the free columns in increasing order; the
    vector of free column f is 1 at f and 0 at every other free column.
    """
    pivots = _reduced_echelon(echelon(rows))
    basis: dict[int, dict[int, Fraction]] = {f: {} for f in range(ncols) if f not in pivots}
    # Row c holds free columns above c only, so each vector gets its
    # pivot columns in increasing order and all of them below f.
    for c in sorted(pivots):
        row = pivots[c]
        lead = row[c]
        for f, v in row.items():
            if f != c:
                basis[f][c] = Fraction(-v, lead)
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    return list(basis.values())
