"""Sparse exact matrices: a dict ``{row: {col: value}}`` of the nonzero
entries by rows, with no empty row.

This is the one matrix kernel of the package.  The structure-constant
realization of :mod:`deodhar.roots` holds its root vectors in this form and
brackets every pair of them here, by the one sparse join of
:func:`bracket_rows`.  The adjoint oracle of :mod:`deodhar.chevalley` keeps
each root's divided powers in it and applies each factor here as one left
multiplication by I + N, which rebuilds only the rows where N is nonzero
(:func:`add_row_multiples`).
Entries are integers or Fractions; products and linear combinations are
exact, and the left multiplication reduces modulo a prime when one is given.
No result holds a zero entry or an empty row, so two matrices are equal
exactly when their dicts are.  This module depends on nothing else in the
package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Matrix = dict  # {row: {col: nonzero value}}, no empty row


def identity(dim: int) -> Matrix:
    return {i: {i: 1} for i in range(dim)}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab, row by row."""
    out: Matrix = {}
    for i, row_a in a.items():
        acc: dict = {}
        for k, x in row_a.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        if row := _row(acc):
            out[i] = row
    return out


def bracket_rows(mats: Sequence[Matrix]) -> Iterator[tuple[int, dict[int, Matrix]]]:
    """For each index k, in order, ``(k, row)`` with ``row[j] = mats[k] mats[j]
    - mats[j] mats[k]`` for every later j whose matrix meets mats[k].

    The entries of every matrix are indexed by row and by column once, in
    flat lists; one pass over the entries of mats[k] then finds the products
    mats[k] mats[j] (k's column meets j's row) and mats[j] mats[k] (j's column
    meets k's row), summed in one accumulator for the whole row.  A pair
    missing from the row has bracket exactly zero; a bracket that cancels is
    empty.
    """
    by_row: dict = {}
    by_col: dict = {}
    for j, b in enumerate(mats):
        for rb, row_b in b.items():
            for cb, vb in row_b.items():
                by_row.setdefault(rb, []).append((j, cb, vb))
                by_col.setdefault(cb, []).append((j, rb, vb))
    for k, a in enumerate(mats):
        acc: dict = {}  # {(j, row, col): value}
        for ra, row_a in a.items():
            for ca, va in row_a.items():
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
                br.setdefault(r, {})[c] = v
        yield k, row


def combine(terms: Iterable[tuple[object, Matrix]]) -> Matrix:
    """The linear combination sum c * m over the (c, m) of ``terms``."""
    out: dict = {}
    for c, m in terms:
        if c:
            for i, row in m.items():
                acc = out.setdefault(i, {})
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + c * v
    return {i: row for i, acc in out.items() if (row := _row(acc))}


def add_row_multiples(
    m: Matrix, divided: Sequence[Matrix], values: Sequence, prime: int | None = None
) -> Matrix:
    """(I + N) m for N = sum_k values[k-1] D_k over the ``divided`` = [D_1,
    D_2, ...], reduced modulo ``prime`` if one is given.

    Every nonzero row of a D_k must be a row of D_1, and only those rows are
    rebuilt, row_i + sum_j N[i][j] row_j, from the rows of ``m``, one D_k
    after the other; the others are shared.
    """
    new = {i: dict(m.get(i, ())) for i in divided[0]}
    for d, x in zip(divided, values):
        for i, entries in d.items():
            acc = new[i]
            for j, dij in entries.items():
                y = dij * x
                for col, v in m.get(j, {}).items():
                    acc[col] = acc.get(col, 0) + y * v
    out = m.copy()
    for i, acc in new.items():
        if row := _row(acc, prime):
            out[i] = row
        else:
            out.pop(i, None)
    return out


def _row(acc: dict, prime: int | None = None) -> dict:
    """The caller's own ``acc`` without zeros, or reduced mod ``prime``."""
    if prime is None:
        return acc if 0 not in acc.values() else {j: v for j, v in acc.items() if v}
    return {j: v % prime for j, v in acc.items() if v % prime}
