"""Dense exact matrices as tuples of row tuples.

Entries are integers or Fractions; products are exact, or reduced modulo a
prime when one is given.  The only elimination is the rank over F_q used by
the finite-field cross-checks.  This module depends on nothing else in the
package.
"""

from __future__ import annotations

Matrix = tuple[tuple, ...]


def mat_identity(dim: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def mat_mul(a: Matrix, b: Matrix, prime: int | None = None) -> Matrix:
    cols = tuple(zip(*b))
    if prime is None:
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
        )
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % prime for col in cols)
        for row in a
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def rank_mod(rows, q: int) -> int:
    """Rank over F_q (q prime) of a list of integer rows, by elimination."""
    m = [list(row) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] % q), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, q)
        m[rank] = [v * inv % q for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % q:
                factor = m[r][col]
                m[r] = [(v - factor * w) % q for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank
