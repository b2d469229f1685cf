import random

import pytest

from deodhar.linalg import bracket_rows, combine, dense, identity, mat_mul

PRIMES = (None, 2, 7, 11)


def random_sparse(rng, dim, density=0.3):
    return {
        (i, j): rng.choice([-3, -2, -1, 1, 2, 3])
        for i in range(dim)
        for j in range(dim)
        if rng.random() < density
    }


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


def assert_no_zero_entry(m):
    assert all(v for v in m.values()), m


@pytest.mark.parametrize("prime", PRIMES)
def test_mat_mul_matches_dense_product(prime):
    for dim, a, b in pairs(1):
        product = mat_mul(a, b, prime)
        assert_no_zero_entry(product)
        assert dense(product, dim) == dense_product(dense(a, dim), dense(b, dim), prime)


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
                assert_no_zero_entry(result)
                assert result == combine([(1, mat_mul(a, b)), (-1, mat_mul(b, a))])


@pytest.mark.parametrize("prime", PRIMES)
def test_combine_matches_dense_sum(prime):
    rng = random.Random(3)
    for dim, a, b in pairs(3):
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        result = combine([(x, a), (y, b)], prime)
        assert_no_zero_entry(result)
        expected = tuple(
            tuple(
                (x * u + y * v) % prime if prime else x * u + y * v
                for u, v in zip(row_a, row_b)
            )
            for row_a, row_b in zip(dense(a, dim), dense(b, dim))
        )
        assert dense(result, dim) == expected
        assert combine([(1, a), (-1, a)], prime) == {}


def test_identity_and_dense_export():
    assert dense(identity(3), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for dim, a, _ in pairs(4, count=20):
        assert mat_mul(identity(dim), a) == a == mat_mul(a, identity(dim))
    assert dense({(0, 1): 5}, 2) == ((0, 5), (0, 0))
