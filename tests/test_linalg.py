import random

import pytest

from conftest import reduce_mod
from deodhar.linalg import add_row_multiples, bracket_rows, combine, identity, mat_mul

PRIMES = (None, 2, 7, 11)


def random_sparse(rng, dim, density=0.3, rows=None):
    """A random matrix in row form, its rows drawn from ``rows`` (all rows
    by default); a row that draws no entry is left out."""
    out = {}
    for i in range(dim) if rows is None else rows:
        row = {j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in range(dim) if rng.random() < density}
        if row:
            out[i] = row
    return out


def dense(a, dim):
    """The dim x dim matrix as a tuple of row tuples, zeros filled in."""
    return tuple(tuple(a.get(i, {}).get(j, 0) for j in range(dim)) for i in range(dim))


def dense_product(a, b, prime):
    dim = len(a)
    rows = [
        [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    if prime is not None:
        rows = [[v % prime for v in row] for row in rows]
    return tuple(tuple(row) for row in rows)


def pairs(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 6)
        yield dim, random_sparse(rng, dim), random_sparse(rng, dim)


def assert_sparse(m):
    """The one form: no empty row and no zero entry."""
    assert all(row and all(row.values()) for row in m.values()), m


@pytest.mark.parametrize("prime", PRIMES)
def test_mat_mul_matches_dense_product(prime):
    for dim, a, b in pairs(1):
        product = mat_mul(a, b)
        assert_sparse(product)
        reduced = reduce_mod(product, prime)
        assert_sparse(reduced)
        assert dense(reduced, dim) == dense_product(dense(a, dim), dense(b, dim), prime)


def test_bracket_rows_are_the_commutators():
    rng = random.Random(2)
    for _ in range(60):
        dim = rng.randint(1, 6)
        mats = [random_sparse(rng, dim) for _ in range(rng.randint(1, 6))]
        # a repeated matrix, whose bracket with its copy cancels
        mats.insert(rng.randint(0, len(mats)), rng.choice(mats))
        rows = dict(bracket_rows(mats))
        assert list(rows) == list(range(len(mats)))
        for k, a in enumerate(mats):
            assert all(j > k for j in rows[k])
            for j in range(k + 1, len(mats)):
                b = mats[j]
                result = rows[k].get(j, {})
                assert_sparse(result)
                assert result == combine([(1, mat_mul(a, b)), (-1, mat_mul(b, a))])


@pytest.mark.parametrize("prime", PRIMES)
def test_combine_matches_dense_sum(prime):
    rng = random.Random(3)
    for dim, a, b in pairs(3):
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        result = combine([(x, a), (y, b)])
        assert_sparse(result)
        reduced = reduce_mod(result, prime)
        assert_sparse(reduced)
        expected = tuple(
            tuple(
                (x * u + y * v) % prime if prime else x * u + y * v
                for u, v in zip(row_a, row_b)
            )
            for row_a, row_b in zip(dense(a, dim), dense(b, dim))
        )
        assert dense(reduced, dim) == expected
        assert combine([(1, a), (-1, a)]) == {}


def test_identity():
    assert dense(identity(3), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for dim, a, _ in pairs(4, count=20):
        assert mat_mul(identity(dim), a) == a == mat_mul(a, identity(dim))


@pytest.mark.parametrize("prime", PRIMES)
def test_add_row_multiples_is_left_multiplication(prime):
    # (I + sum_k c^k D_k) M against the product of the sparse matrices; every
    # D_k after the first keeps to the rows of D_1, as divided powers do
    rng = random.Random(5)
    for dim, m, _ in pairs(5):
        m = reduce_mod(m, prime)  # the rows come in reduced
        first = random_sparse(rng, dim, density=0.2)
        if not first:
            continue
        divided = [first]
        for _ in range(rng.randint(0, 2)):
            divided.append(random_sparse(rng, dim, density=0.2, rows=list(first)))
        c = rng.choice([-2, -1, 1, 3])
        values = [c ** k for k in range(1, len(divided) + 1)]
        result = add_row_multiples(m, divided, values, prime)
        assert_sparse(result)
        factor = combine([(1, identity(dim))] + list(zip(values, divided)))
        assert result == reduce_mod(mat_mul(factor, m), prime)
        for i in set(m) - set(first):
            assert result[i] is m[i]
