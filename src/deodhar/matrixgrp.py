"""Concrete rank 2 (SL_3) cross-checks over small prime fields.

The Borel subgroup is upper triangular, its opposite lower triangular, and
the Weyl group is the symmetric group on three letters acting by permutation
matrices.  Matrices are tuples of row tuples.  Both relative positions of an
invertible matrix g come from one column elimination over F_q by the column
operations of B acting on the right: in each column a nonzero entry is the
pivot, the later columns are cleared along its row, so no pivot row is used
twice, and the position sends j to the row of the pivot of column j.  With
the lowest pivot each column is zero below it, so permuting the columns of
the result by w^-1 gives an upper triangular matrix and g lies in BwB; with
the topmost pivot it is zero above, the permuted matrix is lower triangular
and g lies in B*vB, B* the opposite Borel.

``count_cells`` tallies every flag of F_q^3 by its pair of relative
positions (w.r.t. the standard and the opposite base flag).  Enumerating the
unipotent radical alone cannot see the opposite position: a lower
unitriangular matrix always lies in the big cell.  Flags are enumerated once
each through canonical representatives.
"""

from __future__ import annotations

from itertools import product

from .weyl import WeylElement, context

MAX_PRIME = 64

Matrix = tuple[tuple[int, ...], ...]


def _position(g: Matrix, q: int, pick) -> WeylElement:
    """The position of g by one column elimination over F_q, with the pivot
    of each column chosen by ``pick`` among the rows of its nonzero entries."""
    cols = [[v % q for v in col] for col in zip(*g)]
    window = []
    for j, col in enumerate(cols):
        pivot = pick((i for i, v in enumerate(col) if v), default=None)
        if pivot is None:
            raise ValueError("matrix is singular")
        window.append(pivot + 1)
        inverse = pow(col[pivot], -1, q)
        for later in cols[j + 1 :]:
            factor = later[pivot] * inverse % q
            if factor:
                later[:] = [(u - factor * v) % q for u, v in zip(later, col)]
    return context("A", 2).from_window(tuple(window))


def bruhat_word(g: Matrix, q: int) -> WeylElement:
    """The unique w with g in BwB: the lowest pivot of each column."""
    return _position(g, q, max)


def opposite_coset(g: Matrix, q: int) -> WeylElement:
    """The v with g in B*vB, B* the lower triangular Borel: the topmost pivot
    of each column."""
    return _position(g, q, min)


def _canonical_lines(q: int) -> list[tuple[int, ...]]:
    lines = []
    for pivot in range(3):
        for rest in product(range(q), repeat=2 - pivot):
            vec = [0] * pivot + [1] + list(rest)
            lines.append(tuple(vec))
    return lines


def enumerate_flags(q: int):
    """One matrix per complete flag of F_q^3: columns span the flag steps."""
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for x in _canonical_lines(q):
        pivot = next(k for k in range(3) if x[k])
        others = [basis[k] for k in range(3) if k != pivot]
        # second column: canonical representatives of P^1 in a complement of x
        seconds = [
            tuple(u + s * v for u, v in zip(others[0], others[1]))
            for s in range(q)
        ] + [others[1]]
        for y in seconds:
            # the first basis vector z off the plane of x and y: the
            # determinant of (x, y, e_k) is the k-th entry of x cross y
            cross = (
                x[1] * y[2] - x[2] * y[1],
                x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0],
            )
            z = basis[next(k for k in range(3) if cross[k] % q)]
            yield tuple(zip(x, y, z))  # columns x, y, z


def count_cells(q: int) -> dict[tuple[WeylElement, WeylElement], int]:
    """Exact table (w, v) -> number of flags in BwB with opposite position v."""
    _check_prime(q)
    counts: dict[tuple[WeylElement, WeylElement], int] = {}
    for g in enumerate_flags(q):
        key = (bruhat_word(g, q), opposite_coset(g, q))
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_cells_csv(q: int) -> str:
    """CSV rows (q, w, v, count) in deterministic order."""
    lines = ["q,w,v,count"]
    table = count_cells(q)
    for (w, v), count in sorted(
        table.items(), key=lambda item: (item[0][0].window, item[0][1].window)
    ):
        lines.append(f'{q},"{w.serialize()}","{v.serialize()}",{count}')
    return "\n".join(lines) + "\n"


def _check_prime(q: int):
    if q < 2 or q > MAX_PRIME:
        raise ValueError(f"q must be a prime with 2 <= q <= {MAX_PRIME}")
    if any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
        raise ValueError(f"{q} is not prime")
