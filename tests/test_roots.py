import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

import deodhar
from conftest import act_on_root
from deodhar import roots as roots_module
from deodhar.linalg import bracket_rows, combine, mat_mul
from deodhar.roots import CommutatorTerm, RootSystem, _StructureConstants, _steps, root_system
from deodhar.weyl import RANK_BOUND, context


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
        assert system.root(doubled).coeffs == doubled


def test_is_root_examples():
    system = root_system("B", 3)
    assert system.root((1, 1, 0)).coeffs == (1, 1, 0)
    for coeffs in ((0, 2, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="is not a root of B_3"):
            system.root(coeffs)


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
    by_coeffs = {r.coeffs: r for r in roots}
    for a in roots:
        for b in roots:
            total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            assert a.try_add(b) is by_coeffs.get(total)
    # try_add sums integer codes, one signed base-16 digit per coefficient;
    # at the rank bound every ordered pair agrees with the sum of coefficient
    # tuples looked up by tuple
    for family in ("A", "B"):
        system = root_system(family, RANK_BOUND)
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


@pytest.mark.parametrize(
    "labels,message",
    [((1, 3, 2), "s_2(beta_1) != beta_1 + beta_2"), ((3, 2, 1), "s_1(beta_2) != 2 beta_1 + beta_2")],
)
def test_mislabeled_type_b_diagram_is_rejected(labels, message, monkeypatch):
    # the simple roots of B_3 relabeled: the reflections, and so the closure
    # check, are unchanged, but the double bond no longer joins nodes 1 and 2
    # the right way round; (1, 3, 2) separates beta_1 from beta_2, and
    # (3, 2, 1) puts the single bond (beta_3, beta_2) first
    simple = RootSystem.simple
    monkeypatch.setattr(RootSystem, "simple", lambda self, i: simple(self, labels[i - 1]))
    with pytest.raises(AssertionError, match=re.escape(message)):
        RootSystem("B", 3)


@pytest.mark.parametrize("family", ["A", "B"])
def test_non_integral_cartan_pairing_is_rejected(family, monkeypatch):
    # squared lengths read three times too large: 2 (r, beta_i) / (beta_i,
    # beta_i) is then 2/3 or -2/3 for every pair of adjacent simple roots
    norm_sq = RootSystem.norm_sq
    monkeypatch.setattr(RootSystem, "norm_sq", lambda self, root: 3 * norm_sq(self, root))
    with pytest.raises(AssertionError, match="non-integral Cartan pairing"):
        RootSystem(family, 3)


def test_roots_closed_under_weyl_action():
    system = root_system("B", 3)
    ctx = context("B", 3)
    for w in ctx.elements():
        for r in system.all_roots():
            act_on_root(w, r)  # raises if the image is not a root


@pytest.mark.parametrize(
    "family,rank,sample",
    [("A", 3, None), ("B", 3, None), ("A", 4, None), ("A", 16, 200), ("B", 16, 200)],
)
def test_simple_image_table_matches_ambient_action(family, rank, sample):
    # w(beta_i), read from the window entries at the support of beta_i,
    # against the action on the whole ambient vector: every element and
    # letter of the small groups, and sample seeded elements of the rank-16
    # ones
    ctx = context(family, rank)
    system = root_system(family, rank)
    table = system.simple_image_table
    if sample is None:
        elements = list(ctx.elements())
    else:
        rng = random.Random(f"{family}{rank}")
        size = ctx.window_size
        elements = []
        for _ in range(sample):
            window = rng.sample(range(1, size + 1), size)
            if family == "B":
                window = [rng.choice((1, -1)) * a for a in window]
            elements.append(ctx.from_window(window))
    for w in elements:
        for i in range(1, rank + 1):
            p, q, grid = table[i]
            assert grid[w.window[p]][w.window[q]] is act_on_root(w, system.simple(i)), (w, i)
    # one grid per shape of support (e_1 and e_i - e_{i-1} in type B), with a
    # row and a column per window entry and one for 0: O(rank^2) roots
    grids = {id(grid): grid for _, _, grid in table[1:]}
    side = (2 if family == "B" else 1) * ctx.window_size + 1
    assert len(grids) == (2 if family == "B" else 1)
    assert all(len(row) == side for grid in grids.values() for row in (grid, *grid))


def root_string(system, alpha, beta):
    """(p, q): p = max{k : beta - k alpha is a root}, q likewise for +, by
    the stepper on codes that the |N| = p+1 check of the table build uses."""
    by_code = system._by_code
    return _steps(beta.code, -alpha.code, by_code), _steps(beta.code, alpha.code, by_code)


def structure_constant(system, alpha, beta):
    """N(alpha, beta), read from the table of root sums."""
    return system.structure.sums[alpha.index][beta.index][1]


def test_root_string_examples():
    for n in (3, 4):
        system = root_system("B", n)
        alpha = system.root(tuple(-1 if k < n - 1 else 0 for k in range(n)))
        beta = -system.simple(n)
        assert root_string(system, alpha, beta) == (0, 2)
    system = root_system("B", 3)
    b1, b3 = system.simple(1), system.simple(3)
    assert root_string(system, b1, b3) == (0, 0)


def test_root_string_against_direct_scan():
    system = root_system("B", 3)
    roots = system.all_roots()
    coeffs = {r.coeffs for r in roots}
    for alpha in roots:
        for beta in roots:
            if alpha.coeffs == beta.coeffs or alpha.coeffs == (-beta).coeffs:
                continue
            p, q = root_string(system, alpha, beta)
            down = {
                k
                for k in range(1, 5)
                if tuple(b - k * a for a, b in zip(alpha.coeffs, beta.coeffs)) in coeffs
            }
            up = {
                k
                for k in range(1, 5)
                if tuple(b + k * a for a, b in zip(alpha.coeffs, beta.coeffs)) in coeffs
            }
            assert down == set(range(1, p + 1))
            assert up == set(range(1, q + 1))


def test_structure_constant_basics():
    system = root_system("B", 3)
    b1, b2, b3 = system.simple(1), system.simple(2), system.simple(3)
    assert structure_constant(system, b1, b2) in (1, -1)
    # beta_1 + beta_3 is not a root
    assert b3.index not in system.structure.sums[b1.index]
    with pytest.raises(ValueError, match="roots are proportional"):
        system.commutator_terms(b1, b1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4)])
def test_structure_constant_table_properties(family, rank):
    system = root_system(family, rank)
    roots = system.all_roots()
    for alpha in roots:
        for beta in roots:
            total = alpha.try_add(beta)
            if total is None:
                continue
            n_ab = structure_constant(system, alpha, beta)
            assert n_ab == -structure_constant(system, beta, alpha)
            assert n_ab == -structure_constant(system, -alpha, -beta)
            p, _ = root_string(system, alpha, beta)
            assert abs(n_ab) == p + 1


def test_extraspecial_pairs_positive():
    system = root_system("B", 3)
    roots = system.roots
    for k, j in system.structure.extraspecial.values():
        assert structure_constant(system, roots[k], roots[j]) > 0


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
        vectors[e_minus_b2] = combine([(-1, vectors[e_minus_b2])])
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
        vectors[self.system.root((1, 1))] = {2: {0: 1}}
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    with pytest.raises(AssertionError):
        RootSystem("A", 2).structure


def test_bracket_off_target_entry_is_rejected(monkeypatch):
    # e_{beta_1+beta_2} of A_2 given one more entry, in rows and columns that
    # no other vector touches: the bracket [e_beta_2, e_beta_1] = -E_{0,2}
    # matches the target where it has its first entry, but not as a whole
    realization = _StructureConstants._basis_matrices

    def corrupted(self):
        vectors = realization(self)
        vectors[self.system.root((1, 1))][5] = {6: 1}
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    with pytest.raises(AssertionError, match=re.escape("not a multiple of e_1,1")):
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
        vectors[self.system.simple(3)][10] = {11: 1}
        vectors[self.system.simple(1)][11] = {12: 1}
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
        vectors[beta1] = {
            i + 100: {j + 100: v for j, v in row.items()} for i, row in vectors[beta1].items()
        }
        return vectors

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", corrupted)
    system = root_system(family, rank)
    pair = f"bracket [{system.simple(2)}; {system.simple(1)}] not a multiple"
    with pytest.raises(AssertionError, match=re.escape(pair)):
        RootSystem(family, rank).structure


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3)])
def test_constant_off_its_root_string_is_rejected(family, rank, monkeypatch):
    # every root string read one step longer: no constant is p+1 any more,
    # and the first pair by index, (beta_n, beta_{n-1}) with |N| = 1, is named
    steps = roots_module._steps
    monkeypatch.setattr(roots_module, "_steps", lambda *args: steps(*args) + 1)
    system = RootSystem(family, rank)
    pair = f"|N({system.simple(rank)}; {system.simple(rank - 1)})| = 1 != p+1 = 2"
    with pytest.raises(AssertionError, match=re.escape(pair)):
        system.structure


def test_unnormalized_extraspecial_sign_is_rejected(monkeypatch):
    # the raw constant of A_2's one extraspecial pair (beta_2, beta_1) is -1,
    # so leaving every sign at +1 keeps it negative
    monkeypatch.setattr(
        _StructureConstants, "_normalizing_signs", lambda self, extraspecial: [1] * 6
    )
    with pytest.raises(AssertionError, match=re.escape("pair (0,1; 1,0) got a negative sign")):
        RootSystem("A", 2).structure


def _b2_string_pair(system):
    """alpha = -beta_1 short and beta = -beta_2 long in ``system`` = B_2, whose
    alpha-string through beta is beta, alpha + beta, 2 alpha + beta; and the
    table ``sums`` with the roots alpha + beta and 2 alpha + beta."""
    alpha, beta = -system.simple(1), -system.simple(2)
    sums = system.structure.sums
    ab = sums[alpha.index][beta.index][0]
    aab = sums[alpha.index][ab.index][0]
    return alpha, beta, sums, ab, aab


def test_longer_alpha_string_is_rejected():
    # the table of a fresh B_2 made to claim 3 alpha + beta = 2 alpha + beta
    # + alpha a root: an alpha-string of four roots, which types A and B lack
    system = RootSystem("B", 2)
    alpha, beta, sums, _, aab = _b2_string_pair(system)
    sums[aab.index][alpha.index] = (aab, 1)
    with pytest.raises(AssertionError, match="unexpected commutator support"):
        system.commutator_terms(alpha, beta)


def test_odd_doubled_commutator_constant_is_rejected():
    # |N(alpha, alpha + beta)| = 2 read as 1 makes the constant of the (1, 2)
    # term N(alpha, beta) N(alpha, alpha + beta) / 2 a half
    system = RootSystem("B", 2)
    alpha, beta, sums, ab, aab = _b2_string_pair(system)
    assert abs(sums[alpha.index][ab.index][1]) == 2
    sums[alpha.index][ab.index] = (aab, 1)
    message = re.escape("non-integral commutator constant for (1, 2)")
    with pytest.raises(AssertionError, match=message):
        system.commutator_terms(alpha, beta)


def test_non_integral_coroot_coordinates_are_rejected(monkeypatch):
    # squared lengths of the non-simple roots read twice too large: the first
    # root of height two, beta_2 + beta_3, would get the coroot coordinates
    # (0, 1/2, 1/2); the simple roots, read first, keep theirs
    system = RootSystem("A", 3)
    norm_sq = RootSystem.norm_sq
    monkeypatch.setattr(
        RootSystem,
        "norm_sq",
        lambda self, root: norm_sq(self, root) * (2 if sum(root.coeffs) > 1 else 1),
    )
    with pytest.raises(AssertionError, match="non-integral coroot coordinates for 0,1,1"):
        system.structure


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
    n_ab = structure_constant(system, alpha, beta)
    out = [CommutatorTerm(1, 1, ab, -n_ab)]
    aab, abb = ab.try_add(alpha), ab.try_add(beta)
    if aab is not None:
        out.append(CommutatorTerm(1, 2, aab, -n_ab * structure_constant(system, alpha, ab) // 2))
    if abb is not None:
        out.append(CommutatorTerm(2, 1, abb, n_ab * structure_constant(system, beta, ab) // 2))
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
        assert system.structure.coroot_coords[alpha.index] == closed_form
        for beta in system.roots:
            total = alpha.try_add(beta)
            if total is None:
                assert beta.index not in table.sums[alpha.index]
            else:
                assert table.sums[alpha.index][beta.index][0] is total
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


@pytest.mark.parametrize(
    "family,rank", [("A", n) for n in range(1, 17)] + [("B", n) for n in range(2, 17)]
)
def test_cartan_pairings_match_ambient_inner_products(family, rank):
    # the table read by cartan_pairing against 2 (alpha, beta_i) / (beta_i,
    # beta_i), computed from the ambient vectors
    system = root_system(family, rank)
    for i in range(1, rank + 1):
        beta = system.simple(i).ambient
        norm = sum(v * v for v in beta)
        for r in system.roots:
            dot = sum(x * y for x, y in zip(r.ambient, beta))
            assert system.cartan_pairing(r, i) == Fraction(2 * dot, norm), (r, i)
    for i in (0, rank + 1):
        with pytest.raises(ValueError, match=f"simple root index {i} out of range"):
            system.cartan_pairing(system.roots[0], i)


def test_cartan_pairing_rejects_a_foreign_root():
    # the table is read by root index: a root of another system, even one of
    # the same family and rank built outside root_system(), must not read it
    system = root_system("B", 3)
    for foreign in (root_system("B", 4).roots[5], RootSystem("B", 3).roots[5]):
        with pytest.raises(ValueError, match="root does not belong to this system"):
            system.cartan_pairing(foreign, 1)


def test_serialization():
    system = root_system("B", 3)
    r = system.root((2, 1, 0))
    assert r.serialize() == "2,1,0"
