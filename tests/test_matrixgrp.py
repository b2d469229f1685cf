import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from deodhar.cells import point_count_polynomial
from deodhar.matrixgrp import (
    bruhat_word,
    count_cells,
    count_cells_csv,
    enumerate_flags,
    opposite_coset,
)
from deodhar.weyl import context, parse_word

A2 = context("A", 2)
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def unipotent_lower(a, b, c, q):
    """The lower unitriangular matrix with parameters (a, b, c) over F_q."""
    return ((1, 0, 0), (a % q, 1, 0), (c % q, b % q, 1))


def minors_criterion(g, q):
    """The principal-minors test, an oracle independent of the column
    elimination: a lower unitriangular g lies in B w_0 B iff its lower-left
    minors c and ab - c are nonzero."""
    a, b, c = g[1][0], g[2][1], g[2][0]
    return c % q != 0 and (a * b - c) % q != 0


def permutation_matrix(w):
    rows = [[0, 0, 0] for _ in range(3)]
    for j in range(3):
        rows[w.window[j] - 1][j] = 1
    return tuple(tuple(row) for row in rows)


def test_bruhat_word_identity_and_permutations():
    assert bruhat_word(IDENTITY, 5) == A2.identity
    for w in A2.elements():
        assert bruhat_word(permutation_matrix(w), 5) == w


def test_bruhat_word_rejects_singular():
    with pytest.raises(ValueError):
        bruhat_word(((1, 0, 0), (1, 0, 0), (0, 0, 1)), 3)


def test_generic_unitriangular_is_w0():
    w0 = A2.longest_element()
    for q in (3, 5):
        for a, b in product(range(q), repeat=2):
            for c in range(1, q):
                if (a * b - c) % q:
                    assert bruhat_word(unipotent_lower(a, b, c, q), q) == w0


def test_bruhat_word_invariant_under_upper_triangular():
    rng = random.Random(3)
    q = 7

    def random_upper():
        return (
            (1, rng.randrange(q), rng.randrange(q)),
            (0, 1, rng.randrange(q)),
            (0, 0, 1),
        )

    def matmul(a, b):
        cols = tuple(zip(*b))
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols)
            for row in a
        )

    for _ in range(50):
        g = unipotent_lower(rng.randrange(q), rng.randrange(q), rng.randrange(q), q)
        w = bruhat_word(g, q)
        assert bruhat_word(matmul(random_upper(), g), q) == w
        assert bruhat_word(matmul(g, random_upper()), q) == w


def test_opposite_coset_trivial_cases():
    assert opposite_coset(IDENTITY, 5) == A2.identity
    # the unipotent radical of the opposite Borel sits in the big cell
    for q in (2, 3):
        for a, b, c in product(range(q), repeat=3):
            assert opposite_coset(unipotent_lower(a, b, c, q), q) == A2.identity


def test_minors_criterion():
    q = 5
    assert minors_criterion(unipotent_lower(0, 0, 1, q), q)
    assert not minors_criterion(unipotent_lower(0, 0, 0, q), q)
    w0 = A2.longest_element()
    for qq in (2, 3):
        for a, b, c in product(range(qq), repeat=3):
            u = unipotent_lower(a, b, c, qq)
            assert minors_criterion(u, qq) == (bruhat_word(u, qq) == w0)


def test_unipotent_counts_partition():
    for q in (2, 3, 5):
        counts = Counter(
            bruhat_word(unipotent_lower(a, b, c, q), q) for a, b, c in product(range(q), repeat=3)
        )
        assert sum(counts.values()) == q ** 3
        assert counts[A2.identity] == 1
        assert counts[A2.longest_element()] == (q - 1) ** 3 + q * (q - 1)


def test_flag_enumeration_counts():
    for q in (2, 3, 5):
        flags = list(enumerate_flags(q))
        assert len(flags) == (q ** 2 + q + 1) * (q + 1)


def test_count_cells_examples():
    table2 = count_cells(2)
    w0 = A2.longest_element()
    assert table2[(w0, A2.identity)] == 3
    table5 = count_cells(5)
    assert table5[(w0, A2.identity)] == 84
    # the w0 row enumerates the Schubert cell: q^{l(w0)} points
    for q, table in ((2, table2), (5, table5)):
        assert sum(c for (w, v), c in table.items() if w == w0) == q ** 3
        assert sum(table.values()) == sum(q ** w.length for w in A2.elements())


def test_count_cells_against_point_count_polynomials():
    word = parse_word(A2, "1,2,1")
    w0 = A2.longest_element()
    for q in (2, 3):
        table = count_cells(q)
        for v in A2.elements():
            expected = point_count_polynomial(word, v).evaluate({"q": Fraction(q)})
            assert table.get((w0, v), 0) == expected


def test_count_cells_validates_q():
    with pytest.raises(ValueError):
        count_cells(4)
    with pytest.raises(ValueError):
        count_cells(67)


def test_csv_output_shape():
    csv = count_cells_csv(2)
    lines = csv.strip().splitlines()
    assert lines[0] == "q,w,v,count"
    assert all(line.startswith('2,"') for line in lines[1:])
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert total == 21


# -- the lower-left and upper-left rank profiles, as independent references ----


def _rank_mod(rows, q):
    m = [[v % q for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, q)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv
                m[r] = [(v - factor * w) % q for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_profile_word(g, q):
    """The w with g in BwB from the ranks of the lower-left submatrices
    (rows i..3, columns 1..j), which are constant on B x B orbits; None for
    a singular matrix."""

    def r(i, j):
        if i > 3 or j < 1:
            return 0
        return _rank_mod([row[:j] for row in g[i - 1 :]], q)

    if r(1, 3) != 3:
        return None
    window = [0, 0, 0]
    for j in range(1, 4):
        for i in range(1, 4):
            if r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1) == 1:
                window[j - 1] = i
                break
    return A2.from_window(tuple(window))


def nw_rank_profile_word(g, q):
    """The v with g in B*vB from the ranks of the upper-left submatrices
    (rows 1..i, columns 1..j), which are constant on B* x B orbits; None for
    a singular matrix."""

    def r(i, j):
        if i < 1 or j < 1:
            return 0
        return _rank_mod([row[:j] for row in g[:i]], q)

    if r(3, 3) != 3:
        return None
    window = [0, 0, 0]
    for j in range(1, 4):
        for i in range(1, 4):
            if r(i, j) - r(i - 1, j) - r(i, j - 1) + r(i - 1, j - 1) == 1:
                window[j - 1] = i
                break
    return A2.from_window(tuple(window))


def _check_every_matrix_over_f2(position, reference):
    invertible = 0
    for entries in product(range(2), repeat=9):
        g = (entries[0:3], entries[3:6], entries[6:9])
        expected = reference(g, 2)
        if expected is None:
            with pytest.raises(ValueError):
                position(g, 2)
        else:
            invertible += 1
            assert position(g, 2) == expected, g
    assert invertible == 168  # the order of GL_3(F_2)


def test_bruhat_word_matches_rank_profile_over_f2():
    _check_every_matrix_over_f2(bruhat_word, rank_profile_word)


def test_opposite_coset_matches_nw_rank_profile_over_f2():
    _check_every_matrix_over_f2(opposite_coset, nw_rank_profile_word)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_flag_positions_match_rank_profile(q):
    for g in enumerate_flags(q):
        assert bruhat_word(g, q) == rank_profile_word(g, q), g
        assert opposite_coset(g, q) == nw_rank_profile_word(g, q), g
