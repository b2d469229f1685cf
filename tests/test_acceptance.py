"""Acceptance suite: one test per criterion, exact values, timed budgets.

Each criterion prints one pass/fail line (echoed in the terminal summary);
budgets are asserted with the stated limits.
"""

import time
from fractions import Fraction

import pytest

import conftest
from conftest import (
    expected_neg_phi_first,
    expected_neg_phi_second,
    expected_neg_phi_sigma,
    expected_neg_phi_tau,
    random_unipotent_word,
)
from deodhar.cells import (
    CELLS_BOUND,
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    DISJOINTNESS_EXTENDED,
    catalog,
    cell,
    enumerate_subexpressions,
    is_distinguished,
    point_count_polynomial,
    preceq,
)
from deodhar.chevalley import collect, evaluate_adjoint, verify_closure_witness
from deodhar.laurent import LaurentPoly
from deodhar.matrixgrp import count_cells
from deodhar.roots import root_system
from deodhar.search import disjointness_certificate
from deodhar.weyl import all_reduced_words, context, parse_word

A2 = context("A", 2)
B3 = context("B", 3)
STS = parse_word(A2, "1,2,1")


class _Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = f"criterion {self.number} ({self.label}): {status} in {elapsed:.2f}s"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)
        if exc_type is None:
            assert elapsed < self.seconds, f"budget exceeded: {elapsed:.2f}s"
        return False


def test_criterion_1_distinguished_count():
    with _Budget(1, "rank 2 distinguished count", 1.0):
        subs = conftest.all_subexpressions(STS)
        assert len(subs) == 8
        flags = {s.mask_string: is_distinguished(s) for s in subs}
        assert sum(flags.values()) == 7
        assert [m for m, ok in flags.items() if not ok] == ["100"]


def test_criterion_2_open_double_cell():
    with _Budget(2, "open double cell decomposition", 1.0):
        walk = enumerate_subexpressions(STS, CELLS_BOUND)
        descriptors = [d for d in walk if d.endpoint is A2.identity]
        assert [d.mask_string for d in descriptors] == ["000", "101"]
        shapes = [(d.affine_rank, d.torus_rank) for d in descriptors]
        assert shapes == [(0, 3), (1, 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_criterion_3_closure_obstruction_catalog(n):
    with _Budget(3, f"closure-obstruction catalog n={n}", 1.0):
        entry = catalog(CLOSURE_OBSTRUCTION, n)
        assert is_distinguished(entry.first) and is_distinguished(entry.second)
        assert preceq(entry.second, entry.first)
        first, second = cell(entry.first), cell(entry.second)
        assert first.dimension == 2 * n
        assert second.dimension == 3 * n - 3
        assert [-e.root for e in first.phi] == expected_neg_phi_first(n)
        assert [-e.root for e in second.phi] == expected_neg_phi_second(n)


def test_criterion_4_symbolic_closure_witness():
    with _Budget(4, "symbolic closure witness n=3,4,5", 30.0):
        for n in (3, 4, 5):
            report = verify_closure_witness(n)
            assert report.passed
            assert len(report.signs) == 2 * n  # every psi coefficient signed


def test_criterion_5_disjointness_certificates():
    with _Budget(5, "disjointness certificates", 1.0):
        entry = catalog(DISJOINTNESS, 3)
        sigma, tau = cell(entry.first), cell(entry.second)
        assert [-e.root for e in sigma.phi] == expected_neg_phi_sigma()
        assert [-e.root for e in tau.phi] == expected_neg_phi_tau()
        certificate = disjointness_certificate(sigma, tau)
        assert certificate is not None
        assert certificate.root == -root_system("B", 3).simple(1)
        assert certificate.witness_index == 7
        for n in (4, 5):
            extended = catalog(DISJOINTNESS_EXTENDED, n)
            first, second = cell(extended.first), cell(extended.second)
            assert first.dimension == second.dimension == 2 * n + 4
            assert disjointness_certificate(first, second) is not None


@pytest.mark.xfail(
    strict=True,
    reason="stated extended dimension 2n+2 is inconsistent with the printed "
    "masks, whose partial products force dimension 2n+4 (see the catalog "
    "tests for the machine-derived value)",
)
def test_criterion_5_extended_dimension_as_stated():
    line = (
        "criterion 5 (extended dimension as stated, 2n+2): FAIL expected; "
        "masks force 2n+4"
    )
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    entry = catalog(DISJOINTNESS_EXTENDED, 4)
    assert cell(entry.first).dimension == 2 * 4 + 2


def test_criterion_6_finite_field_point_counts():
    with _Budget(6, "finite-field point counts q=2,3,5,7", 30.0):
        w0 = A2.longest_element()
        one = LaurentPoly.one()
        q_poly = LaurentPoly.variable("q")
        open_cell = (q_poly - one) ** 3 + q_poly * (q_poly - one)
        assert point_count_polynomial(STS, A2.identity) == open_cell
        for q in (2, 3, 5, 7):
            table = count_cells(q)
            for v in A2.elements():
                expected = point_count_polynomial(STS, v).evaluate({"q": Fraction(q)})
                assert table.get((w0, v), 0) == expected
            assert table[(w0, A2.identity)] == (q - 1) ** 3 + q * (q - 1)


def test_criterion_7_reduced_word_invariance():
    with _Budget(7, "reduced-word invariance over W(B_3)", 300.0):
        for w in B3.elements():
            reference = None
            for word in all_reduced_words(w):
                polys = {
                    v.window: point_count_polynomial(word, v) for v in B3.elements()
                }
                if reference is None:
                    reference = polys
                else:
                    assert polys == reference, w.window


def test_criterion_8_collection_oracle(rng):
    with _Budget(8, "collection oracle, 200 random words", 120.0):
        for _ in range(200):
            word = random_unipotent_word(B3, rng, max_factors=8)
            collected = collect(word)
            assert evaluate_adjoint(B3, word) == evaluate_adjoint(B3, collected)
            for prime in (7, 11):
                assert evaluate_adjoint(B3, word, prime=prime) == evaluate_adjoint(
                    B3, collected, prime=prime
                )


def test_criterion_9_distinguished_equivalence():
    with _Budget(9, "distinguishedness equivalence in B_3", 120.0):
        checked = 0
        for w in B3.elements():
            for word in all_reduced_words(w):
                for sub in conftest.all_subexpressions(word):
                    descents = sub.descent_positions()
                    nonempty = set(descents) <= set(sub.chosen_positions())
                    assert is_distinguished(sub) == nonempty
                    if nonempty:
                        assert len(cell(sub).phi) == len(word) - len(descents)
                    else:
                        with pytest.raises(ValueError):
                            cell(sub)
                    checked += 1
        assert checked > 2 ** 10  # the sweep is genuinely exhaustive
