"""Sparse exact matrices: a dict ``{(row, col): value}`` of the nonzero entries.

This is the one matrix kernel of the package.  The structure-constant
realization of :mod:`deodhar.roots` holds its root vectors in this form and
brackets the simple coroots here, and the adjoint oracle of
:mod:`deodhar.chevalley` multiplies its factors here.
Entries are integers or Fractions; products and linear combinations are
exact, or reduced modulo a prime when one is given.  No result holds a zero
entry, so two matrices are equal exactly when their dicts are.  This module
depends on nothing else in the package.
"""

from __future__ import annotations

from typing import Iterable

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


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """The commutator ab - ba, by one loop over pairs of entries; cheaper
    than two products when both factors hold only a few entries."""
    out: dict = {}
    for (ra, ca), va in a.items():
        for (rb, cb), vb in b.items():
            if ca == rb:
                out[(ra, cb)] = out.get((ra, cb), 0) + va * vb
            if cb == ra:
                out[(rb, ca)] = out.get((rb, ca), 0) - vb * va
    return _clean(out)


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
