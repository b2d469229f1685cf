"""Sparse exact matrices: a dict ``{(row, col): value}`` of the nonzero entries.

This is the one matrix kernel of the package.  The structure-constant
realization of :mod:`deodhar.roots` holds its root vectors in this form and
brackets every pair of them here, by the one sparse join of
:func:`bracket_rows`, and the adjoint oracle of :mod:`deodhar.chevalley`
multiplies its factors here.
Entries are integers or Fractions; products and linear combinations are
exact, or reduced modulo a prime when one is given.  No result holds a zero
entry, so two matrices are equal exactly when their dicts are.  This module
depends on nothing else in the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Matrix = dict  # {(row, col): nonzero value}


def identity(dim: int) -> Matrix:
    return {(i, i): 1 for i in range(dim)}


def mat_mul(a: Matrix, b: Matrix, prime: int | None = None) -> Matrix:
    """The product ab; ``b`` is indexed by row once per call."""
    rows: dict = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0) + x * y
    return _clean(out, prime)


def bracket_rows(mats: Sequence[Matrix]) -> Iterator[tuple[int, dict[int, Matrix]]]:
    """For each index k, in order, ``(k, row)`` with ``row[j] = mats[k] mats[j]
    - mats[j] mats[k]`` for every later j whose matrix meets mats[k].

    The entries of every matrix are indexed by row and by column once; one
    pass over the entries of mats[k] then finds the products mats[k] mats[j]
    (k's column meets j's row) and mats[j] mats[k] (j's column meets k's row),
    summed in one accumulator for the whole row.  A pair missing from the row
    has bracket exactly zero; a bracket that cancels is empty.
    """
    by_row: dict = {}
    by_col: dict = {}
    for j, b in enumerate(mats):
        for (rb, cb), vb in b.items():
            by_row.setdefault(rb, []).append((j, cb, vb))
            by_col.setdefault(cb, []).append((j, rb, vb))
    for k, a in enumerate(mats):
        acc: dict = {}  # {(j, row, col): value}
        for (ra, ca), va in a.items():
            for j, cb, vb in by_row.get(ca, ()):
                if j > k:
                    key = (j, ra, cb)
                    acc[key] = acc.get(key, 0) + va * vb
            for j, rb, vb in by_col.get(ra, ()):
                if j > k:
                    key = (j, rb, ca)
                    acc[key] = acc.get(key, 0) - vb * va
        row: dict[int, Matrix] = {}
        for (j, r, c), v in acc.items():
            br = row.setdefault(j, {})
            if v:
                br[r, c] = v
        yield k, row


def combine(terms: Iterable[tuple[object, Matrix]], prime: int | None = None) -> Matrix:
    """The linear combination sum c * m over the (c, m) of ``terms``."""
    out: dict = {}
    for c, m in terms:
        if c:
            for key, v in m.items():
                out[key] = out.get(key, 0) + c * v
    return _clean(out, prime)


def dense(a: Matrix, dim: int) -> tuple[tuple, ...]:
    """The dim x dim matrix as a tuple of row tuples, zeros filled in."""
    rows = [[0] * dim for _ in range(dim)]
    for (i, j), v in a.items():
        rows[i][j] = v
    return tuple(tuple(row) for row in rows)


def _clean(out: dict, prime: int | None = None) -> Matrix:
    if prime is None:
        return {key: v for key, v in out.items() if v}
    return {key: v % prime for key, v in out.items() if v % prime}
