import hashlib
import os
import re
import subprocess
import sys
from operator import add
from pathlib import Path

import pytest

import deodhar
from deodhar import roots as roots_module
from deodhar.linalg import bracket_rows, combine, mat_mul
from deodhar.roots import CommutatorTerm, RootSystem, _StructureConstants, root_system
from deodhar.weyl import context


@pytest.mark.parametrize("rank", range(2, 9))
def test_positive_root_counts(rank):
    assert len(root_system("B", rank).positive_roots) == rank * rank
    assert len(root_system("A", rank).positive_roots) == rank * (rank + 1) // 2


def test_b3_list_matches_ambient_description():
    # independent route: type B positive roots are e_j and e_j +- e_k (k < j)
    system = root_system("B", 3)
    ambient = set()
    for j in range(3):
        vec = [0, 0, 0]
        vec[j] = 1
        ambient.add(tuple(vec))
        for k in range(j):
            for sign in (1, -1):
                vec = [0, 0, 0]
                vec[j] = 1
                vec[k] = sign
                ambient.add(tuple(vec))
    generated = {system.to_ambient(r.coeffs) for r in system.positive_roots}
    assert generated == ambient


def test_a2_positive_roots():
    system = root_system("A", 2)
    assert {r.coeffs for r in system.positive_roots} == {(1, 0), (0, 1), (1, 1)}


def test_doubled_root_present():
    for n in (3, 4, 5):
        system = root_system("B", n)
        doubled = tuple(2 if k < n - 1 else 1 for k in range(n))
        assert system.is_root(doubled)


def test_is_root_examples():
    system = root_system("B", 3)
    assert system.is_root((1, 1, 0))
    assert not system.is_root((0, 2, 0))
    assert not system.is_root((0, 0, 0))


def test_root_validation_and_classification():
    system = root_system("B", 3)
    with pytest.raises(ValueError):
        system.root((1, 2, 0))


def test_roots_are_interned():
    system = root_system("B", 4)
    roots = system.all_roots()
    for r in roots:
        assert system.root(r.coeffs) is system.root(r.coeffs) is r
        assert -(-r) is r
    for a in roots:
        for b in roots:
            total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            expected = system.root(total) if system.is_root(total) else None
            assert a.try_add(b) is expected
    # try_add sums integer codes, one signed base-16 digit per coefficient;
    # at the rank bound every ordered pair agrees with the sum of coefficient
    # tuples looked up by tuple
    for family in ("A", "B"):
        system = root_system(family, roots_module.RANK_BOUND)
        by_coeffs = {r.coeffs: r for r in system.roots}
        for a in system.roots:
            for b in system.roots:
                assert a.try_add(b) is by_coeffs.get(tuple(map(add, a.coeffs, b.coeffs)))


def test_root_hashes_stable_across_interpreters():
    code = (
        "from deodhar.roots import root_system\n"
        "from deodhar.weyl import context\n"
        "roots = root_system('B', 3).all_roots()\n"
        "print([hash(r) for r in roots], [str(r) for r in set(roots)])\n"
        "elements = list(context('B', 3).elements())\n"
        "print([hash(w) for w in elements], [str(w) for w in set(elements)])\n"
        "from deodhar.cells import subexpression\n"
        "from deodhar.weyl import parse_word\n"
        "word = parse_word(context('B', 3), '1,2')\n"
        "print(hash(word), hash(subexpression(word, '01')))\n"
    )
    src = str(Path(deodhar.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_dropped_root_breaks_reflection_closure(monkeypatch):
    # without the highest root of B_3 the table is no longer closed under the
    # simple reflections; nothing but the reflection check rejects it
    generate = RootSystem._generate_positive
    monkeypatch.setattr(RootSystem, "_generate_positive", lambda self: generate(self)[:-1])
    with pytest.raises(AssertionError, match="breaks root"):
        RootSystem("B", 3)


def test_roots_closed_under_weyl_action():
    system = root_system("B", 3)
    ctx = context("B", 3)
    for w in ctx.elements():
        for r in system.all_roots():
            w.act_on_root(r)  # raises if the image is not a root


def test_root_string_examples():
    for n in (3, 4):
        system = root_system("B", n)
        alpha = system.root(tuple(-1 if k < n - 1 else 0 for k in range(n)))
        beta = -system.simple(n)
        assert system.root_string(alpha, beta) == (0, 2)
    system = root_system("B", 3)
    b1, b3 = system.simple(1), system.simple(3)
    assert system.root_string(b1, b3) == (0, 0)
    with pytest.raises(ValueError):
        system.root_string(b1, b1)


def test_root_string_against_direct_scan():
    system = root_system("B", 3)
    roots = system.all_roots()
    for alpha in roots:
        for beta in roots:
            if alpha.coeffs == beta.coeffs or alpha.coeffs == (-beta).coeffs:
                continue
            p, q = system.root_string(alpha, beta)
            down = {
                k
                for k in range(1, 5)
                if system.is_root(
                    tuple(b - k * a for a, b in zip(alpha.coeffs, beta.coeffs))
                )
            }
            up = {
                k
                for k in range(1, 5)
                if system.is_root(
                    tuple(b + k * a for a, b in zip(alpha.coeffs, beta.coeffs))
                )
            }
            assert down == set(range(1, p + 1))
            assert up == set(range(1, q + 1))


def test_structure_constant_basics():
    system = root_system("B", 3)
    b1, b2 = system.simple(1), system.simple(2)
    assert system.structure_constant(b1, b2) in (1, -1)
    with pytest.raises(ValueError):
        system.structure_constant(b1, system.simple(3))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4)])
def test_structure_constant_table_properties(family, rank):
    system = root_system(family, rank)
    roots = system.all_roots()
    for alpha in roots:
        for beta in roots:
            total = alpha.try_add(beta)
            if total is None:
                continue
            n_ab = system.structure_constant(alpha, beta)
            assert n_ab == -system.structure_constant(beta, alpha)
            assert n_ab == -system.structure_constant(-alpha, -beta)
            p, _ = system.root_string(alpha, beta)
            assert abs(n_ab) == p + 1


def test_extraspecial_pairs_positive():
    system = root_system("B", 3)
    roots = system.roots
    for k, j in system.structure.extraspecial.values():
        assert system.structure_constant(roots[k], roots[j]) > 0


def test_structure_tables_pinned():
    # regression anchor, not a derivation: SHA-256 over (a, b, a + b, N) by
    # root index of every entry of structure.sums, row by row, the coroots of
    # each positive root k and of its negative k + half, and the extraspecial
    # pairs in their dict order, on A_1..A_7 and B_2..B_16, as the tables
    # were built before the build moved to root indices
    digest = hashlib.sha256()
    for family, rank in [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 17)]:
        system = root_system(family, rank)
        table = system.structure
        half = len(system.positive_roots)
        digest.update(f"{family}{rank}|".encode())
        for a, row in enumerate(table.sums):
            for b, (total, c) in row.items():
                digest.update(f"{a},{b},{total.index},{c};".encode())
        for k in range(half):
            for r in (k, k + half):
                digest.update(f"{r}:{table.coroot_coords[r]};".encode())
        for t, (k, j) in table.extraspecial.items():
            digest.update(f"{t}={k}+{j};".encode())
    assert digest.hexdigest() == (
        "4f4b355c2e41b5aff09e009286a377630f35ebe3f080c9deaa171b8574ec1e70"
    )


def test_corrupted_realization_is_rejected(monkeypatch):
    # Negating e_{-beta_2} keeps every bracket a multiple of a root vector,
    # but for alpha = beta_1 + beta_2 the bracket [e_alpha, e_-alpha] is no
    # longer h_1 + 2 h_2, the closed-form coroot.
    realization = _StructureConstants._basis_matrices

    def corrupted(self):
        vectors = realization(self)
        e_minus_b2 = self.system.root((0, -1, 0))
        vectors[e_minus_b2] = {k: -v for k, v in vectors[e_minus_b2].items()}
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    with pytest.raises(AssertionError):
        RootSystem("B", 3).structure


def test_bracket_missing_target_entry_is_rejected(monkeypatch):
    # e_{beta_1+beta_2} of A_2 moved to the matrix unit (2, 0): the bracket
    # [e_beta_2, e_beta_1] = -E_{0,2} has no entry where that target has its
    # first one, so it is no multiple of the target
    realization = _StructureConstants._basis_matrices

    def corrupted(self):
        vectors = realization(self)
        vectors[self.system.root((1, 1))] = {(2, 0): 1}
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    with pytest.raises(AssertionError):
        RootSystem("A", 2).structure


@pytest.mark.parametrize(
    "family,rank", [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 7)]
)
def test_join_brackets_match_matrix_products(family, rank):
    # the bracket of every pair of the realized root vectors, listed by root
    # index as the table build lists them, from the sparse join, against the
    # reference e_a e_b - e_b e_a by two matrix products
    system = root_system(family, rank)
    vectors = system.structure._basis_matrices()
    mats = [vectors[r] for r in system.roots]
    rows = dict(bracket_rows(mats))
    assert list(rows) == list(range(len(mats)))
    for k, va in enumerate(mats):
        for j in range(k + 1, len(mats)):
            vb = mats[j]
            reference = combine([(1, mat_mul(va, vb)), (-1, mat_mul(vb, va))])
            assert rows[k].get(j, {}) == reference


def test_nonvanishing_bracket_is_rejected(monkeypatch):
    # beta_3 + beta_1 is no root of A_3, so [e_beta_3, e_beta_1] must vanish;
    # one more entry on each, in rows and columns that no other vector
    # touches, makes it E_{10,12} and leaves every other bracket as it was
    realization = _StructureConstants._basis_matrices

    def corrupted(self):
        vectors = realization(self)
        vectors[self.system.simple(3)][10, 11] = 1
        vectors[self.system.simple(1)][11, 12] = 1
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    with pytest.raises(AssertionError, match="should vanish"):
        RootSystem("A", 3).structure


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3)])
def test_pair_that_never_meets_is_rejected(family, rank, monkeypatch):
    # e_beta_1 moved to rows and columns that no partner touches: the pair
    # (beta_2, beta_1), whose sum is a root, is missing from the join and is
    # the first pair rejected; a build that skipped it would fail later, on a
    # pair whose target is e_beta_1
    realization = _StructureConstants._basis_matrices

    def corrupted(self):
        vectors = realization(self)
        beta1 = self.system.simple(1)
        vectors[beta1] = {(i + 100, j + 100): v for (i, j), v in vectors[beta1].items()}
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    system = root_system(family, rank)
    pair = f"bracket [{system.simple(2)}; {system.simple(1)}] not a multiple"
    with pytest.raises(AssertionError, match=re.escape(pair)):
        RootSystem(family, rank).structure


def _reference_extraspecial(system):
    # for each positive sum, the pair (r, s) of positive roots with r + s =
    # total and r earliest in Carter's total order, by a scan over r
    positive = system.positive_roots
    out = {}
    for total in positive:
        for r in positive:
            s = total.try_add(-r)
            if s is not None and s.is_positive and r.index < s.index:
                out[total] = (r, s)
                break
    return out


def _reference_commutator_terms(system, alpha, beta):
    # the derivation by root sums: each term's root by try_add, each constant
    # from the structure constants of the pairs met on the way
    ab = alpha.try_add(beta)
    if ab is None:
        return []
    n_ab = system.structure_constant(alpha, beta)
    out = [CommutatorTerm(1, 1, ab, -n_ab)]
    aab, abb = ab.try_add(alpha), ab.try_add(beta)
    if aab is not None:
        out.append(CommutatorTerm(1, 2, aab, -n_ab * system.structure_constant(alpha, ab) // 2))
    if abb is not None:
        out.append(CommutatorTerm(2, 1, abb, n_ab * system.structure_constant(beta, ab) // 2))
    return out


@pytest.mark.parametrize(
    "family,rank", [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 7)]
)
def test_sums_table_matches_references(family, rank):
    system = root_system(family, rank)
    table = system.structure
    for alpha in system.roots:
        norm = system.norm_sq(alpha)
        closed_form = tuple(
            a * system.norm_sq(system.simple(i)) // norm
            for i, a in enumerate(alpha.coeffs, start=1)
        )
        assert system.coroot_coords(alpha) == closed_form
        for beta in system.roots:
            total = alpha.try_add(beta)
            if total is None:
                assert beta.index not in table.sums[alpha.index]
                with pytest.raises(ValueError):
                    system.structure_constant(alpha, beta)
            else:
                entry = (total, system.structure_constant(alpha, beta))
                assert table.sums[alpha.index][beta.index] == entry
            if beta is not alpha and beta is not -alpha:
                expected = _reference_commutator_terms(system, alpha, beta)
                assert system.commutator_terms(alpha, beta) == expected
    assert table.extraspecial == {
        t.index: (r.index, s.index) for t, (r, s) in _reference_extraspecial(system).items()
    }


def test_commutator_terms_empty_when_sum_not_root():
    system = root_system("B", 3)
    alpha, beta = -system.simple(1), -system.simple(3)
    assert system.commutator_terms(alpha, beta) == []


def test_commutator_terms_single_case():
    # alpha = -beta_2, beta = -(beta_3 + ... + beta_n): one term at alpha+beta
    system = root_system("B", 3)
    alpha = -system.simple(2)
    beta = -system.root((0, 0, 1))
    terms = system.commutator_terms(alpha, beta)
    assert [(t.i, t.j) for t in terms] == [(1, 1)]
    assert terms[0].root == system.root((0, -1, -1))
    assert abs(terms[0].constant) == 1


def test_commutator_terms_doubled_case():
    # alpha = -(beta_1 + ... + beta_{n-1}) short, beta = -beta_n: terms at
    # alpha+beta and 2 alpha+beta, both with unit constants
    for n in (3, 4, 5):
        system = root_system("B", n)
        alpha = system.root(tuple(-1 if k < n - 1 else 0 for k in range(n)))
        beta = -system.simple(n)
        terms = system.commutator_terms(alpha, beta)
        assert [(t.i, t.j) for t in terms] == [(1, 1), (1, 2)]
        assert terms[0].root.coeffs == tuple(-1 for _ in range(n))
        assert terms[1].root.coeffs == tuple(-2 if k < n - 1 else -1 for k in range(n))
        assert {abs(t.constant) for t in terms} == {1}


def test_conjugation_formula_cases_b5():
    """The five commutator configurations met by the collection engine, at
    rank 5: supports and unit magnitudes."""
    n = 5
    system = root_system("B", n)

    def chain(i, j):
        return system.root(tuple(1 if i - 1 <= k <= j - 1 else 0 for k in range(n)))

    # (i) sum not a root: no terms
    assert system.commutator_terms(-system.simple(1), -system.simple(n)) == []
    # (ii) alpha = -b_i, beta = -(b_{i+1}+..+b_n)
    for i in range(2, n):
        terms = system.commutator_terms(-system.simple(i), -chain(i + 1, n))
        assert [(t.i, t.j) for t in terms] == [(1, 1)]
        assert terms[0].root == -chain(i, n) and abs(terms[0].constant) == 1
    # (iii) alpha = -(2b_1+b_2+..+b_{n-1}), beta = -(b_2+..+b_n)
    doubled_head = system.root(
        tuple(2 if k == 0 else (1 if k <= n - 2 else 0) for k in range(n))
    )
    terms = system.commutator_terms(-doubled_head, -chain(2, n))
    assert [(t.i, t.j) for t in terms] == [(1, 1)]
    assert abs(terms[0].constant) == 1
    assert terms[0].root.coeffs == tuple(-2 if k <= n - 2 else -1 for k in range(n))
    # (iv) alpha = -(b_i+..+b_{n-1}), beta = -b_n
    for i in range(2, n):
        terms = system.commutator_terms(-chain(i, n - 1), -system.simple(n))
        assert [(t.i, t.j) for t in terms] == [(1, 1)]
        assert terms[0].root == -chain(i, n) and abs(terms[0].constant) == 1
    # (v) alpha = -(b_1+..+b_{n-1}) short, beta = -b_n: two terms
    terms = system.commutator_terms(-chain(1, n - 1), -system.simple(n))
    assert [(t.i, t.j) for t in terms] == [(1, 1), (1, 2)]
    assert {abs(t.constant) for t in terms} == {1}


def test_commutator_terms_ordering_by_weight():
    system = root_system("B", 4)
    roots = system.all_roots()
    for alpha in roots:
        for beta in roots:
            if alpha.coeffs == beta.coeffs or alpha.coeffs == (-beta).coeffs:
                continue
            terms = system.commutator_terms(alpha, beta)
            weights = [t.i + t.j for t in terms]
            assert weights == sorted(weights)
            for t in terms:
                assert t.constant != 0


def test_cartan_pairing_values():
    system = root_system("B", 3)
    b1, b2 = system.simple(1), system.simple(2)
    # double bond between the first two nodes: <beta_2, beta_1-check> = -2
    assert system.cartan_pairing(b2, 1) == -2
    assert system.cartan_pairing(b1, 2) == -1
    assert system.cartan_pairing(b1, 1) == 2


def test_serialization():
    system = root_system("B", 3)
    r = system.root((2, 1, 0))
    assert r.serialize() == "2,1,0"
