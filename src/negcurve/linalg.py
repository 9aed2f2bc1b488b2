"""Exact linear algebra over the rationals on sparse rows.

Rows are dicts mapping column index -> Fraction.  Columns are integers
0..ncols-1.  Everything is exact; no pivot thresholds.
"""

from __future__ import annotations

from fractions import Fraction


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

