import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import random_unipotent_word, reduce_mod
from deodhar import chevalley, linalg
from deodhar.cells import CLOSURE_OBSTRUCTION, catalog, cell
from deodhar.chevalley import (
    COLLECT_BOUND,
    AdjointRep,
    Factor,
    LimitError,
    UnipotentWord,
    VerificationError,
    adjoint_rep,
    build_closure_witness_words,
    collect,
    evaluate_adjoint,
    is_canonical,
    limit_at_infinity,
    verify_closure_witness,
    witness_psi,
)
from deodhar.laurent import LaurentPoly, Monomial
from deodhar.linalg import combine, identity, mat_mul
from deodhar.roots import root_system
from deodhar.weyl import context

B3 = context("B", 3)
SYS3 = root_system("B", 3)
X = LaurentPoly.variable("x")
Y = LaurentPoly.variable("y")


def neg(coeffs):
    return SYS3.root(tuple(-c for c in coeffs))


def test_word_validation():
    with pytest.raises(ValueError):
        UnipotentWord((Factor(SYS3.simple(1), X),))
    word = UnipotentWord((Factor(neg((1, 0, 0)), LaurentPoly()),))
    assert len(word) == 0


def test_word_rejects_factors_of_two_systems():
    a2 = root_system("A", 2)
    with pytest.raises(ValueError, match="factors from different root systems"):
        UnipotentWord((Factor(-SYS3.simple(1), X), Factor(-a2.simple(1), Y)))


def test_collect_merges_adjacent():
    # two factors on one root merge by _append, the one merge rule
    r = neg((1, 0, 0))
    assert collect(UnipotentWord((Factor(r, X), Factor(r, -X)))) == UnipotentWord()
    a = UnipotentWord((Factor(r, X),))
    assert collect(a) == a
    assert collect(UnipotentWord((Factor(r, X), Factor(r, Y)))).factors == (Factor(r, X + Y),)


def test_collect_empty_and_idempotent(rng):
    assert collect(UnipotentWord()) == UnipotentWord()
    for _ in range(20):
        w = random_unipotent_word(B3, rng)
        cw = collect(w)
        assert is_canonical(cw)
        assert collect(cw) == cw


def test_collect_commuting_pair():
    # alpha + beta not a root: the factors simply reorder
    a, b = neg((1, 0, 0)), neg((0, 0, 1))
    sorted_word = UnipotentWord((Factor(b, Y), Factor(a, X)))
    assert collect(sorted_word) == sorted_word  # already canonical
    swapped = UnipotentWord((Factor(a, X), Factor(b, Y)))
    assert collect(swapped) == sorted_word


def test_non_addable_roots_commute_numerically():
    # sum not a root: the two one-parameter factors commute as matrices
    a, b = neg((1, 0, 0)), neg((0, 0, 1))
    ab = UnipotentWord((Factor(a, LaurentPoly.constant(2)), Factor(b, LaurentPoly.constant(3))))
    ba = UnipotentWord((Factor(b, LaurentPoly.constant(3)), Factor(a, LaurentPoly.constant(2))))
    assert evaluate_adjoint(B3, ab) == evaluate_adjoint(B3, ba)


def test_collect_cancels_to_empty():
    a, b = neg((0, 1, 0)), neg((0, 0, 1))
    w = UnipotentWord(
        (Factor(a, X), Factor(b, Y), Factor(b, -Y), Factor(a, -X))
    )
    assert collect(w) == UnipotentWord()


def test_collect_conjugation_case():
    # u_{-b2}(x) u_{-b3}(y) u_{-b2}(-x) supported on the sum root and -b3
    w = UnipotentWord(
        (
            Factor(-SYS3.simple(2), X),
            Factor(-SYS3.simple(3), Y),
            Factor(-SYS3.simple(2), -X),
        )
    )
    cw = collect(w)
    assert cw.support() == {neg((0, 1, 1)), neg((0, 0, 1))}
    assert cw.coefficient(neg((0, 0, 1))) == Y
    prod = cw.coefficient(neg((0, 1, 1)))
    value, mono = prod.single_term()
    assert abs(value) == 1 and mono == Monomial.of(x=1, y=1)


def test_collect_doubled_commutator_case():
    # [u_alpha(x); u_beta(y)] with alpha short: support {alpha+beta, 2alpha+beta}
    alpha, beta = neg((1, 1, 0)), neg((0, 0, 1))
    w = UnipotentWord(
        (Factor(alpha, X), Factor(beta, Y), Factor(alpha, -X), Factor(beta, -Y))
    )
    cw = collect(w)
    assert cw.support() == {neg((1, 1, 1)), neg((2, 2, 1))}
    xy = cw.coefficient(neg((1, 1, 1))).single_term()
    x2y = cw.coefficient(neg((2, 2, 1))).single_term()
    assert abs(xy[0]) == 1 and xy[1] == Monomial.of(x=1, y=1)
    assert abs(x2y[0]) == 1 and x2y[1] == Monomial.of(x=2, y=1)


@pytest.mark.parametrize(
    "family,rank,trials", [("B", 3, 60), ("A", 2, 20), ("A", 3, 10), ("B", 4, 10)]
)
def test_collect_preserves_group_element(rng, family, rank, trials):
    ctx = context(family, rank)
    for _ in range(trials):
        w = random_unipotent_word(ctx, rng)
        cw = collect(w)
        assert evaluate_adjoint(ctx, w) == evaluate_adjoint(ctx, cw)


def test_integer_words_stay_in_int(rng):
    # Chevalley's structure constants are integers, so collecting and
    # evaluating a word with integer coefficients never leaves ``int``
    for _ in range(20):
        w = random_unipotent_word(B3, rng)
        cw = collect(w)
        assert {type(c) for f in cw.factors for _, c in f.coeff.terms()} <= {int}
        for word in (w, cw):
            assert {type(v) for row in evaluate_adjoint(B3, word) for v in row} == {int}
    symbolic = UnipotentWord((Factor(neg((1, 0, 0)), X), Factor(neg((0, 1, 0)), Y)))
    matrix = evaluate_adjoint(B3, symbolic, {"x": Fraction(2), "y": Fraction(-3)})
    assert {type(v) for row in matrix for v in row} == {int}


def test_collect_symbolic_then_specialize(rng):
    # collecting with symbolic coefficients commutes with numeric substitution
    negatives = [r for r in SYS3.all_roots() if not r.is_positive]
    names = ["x", "y", "z", "u", "v", "w"]
    for _ in range(10):
        factors = tuple(
            Factor(rng.choice(negatives), LaurentPoly.variable(rng.choice(names)))
            for _ in range(rng.randint(1, 5))
        )
        word = UnipotentWord(factors)
        assignment = {name: Fraction(rng.randint(-3, 3)) for name in names}
        lhs = evaluate_adjoint(B3, collect(word), assignment)
        rhs = evaluate_adjoint(B3, word, assignment)
        assert lhs == rhs


def test_collect_long_symbolic_word_matches_adjoint(rng):
    # 20-30 symbolic factors in B_5, with equal-root neighbours: collection
    # re-inserts the passed factors many levels deep
    ctx = context("B", 5)
    negatives = [r for r in root_system("B", 5).roots if not r.is_positive]
    names = ["x", "y", "z", "u", "v", "w"]
    for _ in range(3):
        factors, length = [], rng.randint(20, 30)
        while len(factors) < length:
            root = rng.choice(negatives)
            factors.append(Factor(root, LaurentPoly.variable(rng.choice(names))))
            if rng.random() < 0.2:
                factors.append(Factor(root, -LaurentPoly.variable(rng.choice(names))))
        word = UnipotentWord(tuple(factors))
        collected = collect(word)
        assert is_canonical(collected)
        assignment = {name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in names}
        assert evaluate_adjoint(ctx, collected, assignment) == evaluate_adjoint(ctx, word, assignment)


def test_collection_order_is_root_index_order():
    # collect and is_canonical order factors by root.index; that is depth,
    # then the coefficients of the opposite positive root, lex ascending
    systems = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 10)]
    for family, rank in systems:
        negatives = [r for r in root_system(family, rank).roots if not r.is_positive]
        by_depth_lex = sorted(negatives, key=lambda r: (-sum(r.coeffs), (-r).coeffs))
        assert by_depth_lex == negatives


def test_limit_examples():
    t = LaurentPoly.variable("t")
    word = UnipotentWord((Factor(neg((1, 0, 0)), X),))
    assert limit_at_infinity(word, "t") == word
    grows = UnipotentWord((Factor(neg((1, 0, 0)), t),))
    with pytest.raises(LimitError):
        limit_at_infinity(grows, "t")
    mixed = UnipotentWord(
        (Factor(neg((1, 0, 0)), X + LaurentPoly.variable("t", -2)),)
    )
    assert limit_at_infinity(mixed, "t").coefficient(neg((1, 0, 0))) == X


def test_limit_requires_canonical_form():
    a = Factor(neg((0, 0, 1)), X)
    b = Factor(neg((1, 0, 0)), Y)
    assert limit_at_infinity(UnipotentWord((a, b)), "t") == UnipotentWord((a, b))
    with pytest.raises(ValueError):
        limit_at_infinity(UnipotentWord((b, a)), "t")  # out of canonical order


def test_limit_matches_large_t_trend():
    _, u_z, _ = build_closure_witness_words(3)
    cz = collect(u_z)
    lim = limit_at_infinity(cz, "t")
    base = {"z1": Fraction(2), "z2": Fraction(3), "z3": Fraction(5)}
    at_infinity = evaluate_adjoint(B3, lim, base)
    previous = None
    for t_value in (10 ** 3, 10 ** 6, 10 ** 9):
        matrix = evaluate_adjoint(B3, cz, dict(base, t=Fraction(t_value)))
        gap = max(
            abs(a - b)
            for row_a, row_b in zip(matrix, at_infinity)
            for a, b in zip(row_a, row_b)
        )
        if previous is not None:
            assert gap < previous / 100
        previous = gap
    assert previous < Fraction(1, 10 ** 6)


def test_collect_bound_counts_swaps():
    # a seeded integer word of B_16: 85,499 swaps but only 1,550 monomial
    # products, so a bound on products alone lets it through
    system = root_system("B", 16)
    negatives = [r for r in system.roots if not r.is_positive]
    rng = random.Random(1)
    word = UnipotentWord(
        tuple(
            Factor(rng.choice(negatives), LaurentPoly.constant(rng.choice([-3, -2, -1, 1, 2, 3])))
            for _ in range(120)
        )
    )
    with pytest.raises(ValueError, match=f"more than {COLLECT_BOUND} swaps"):
        collect(word)


def test_adjoint_dimension_and_identity():
    rep = adjoint_rep(B3)
    assert rep.dim == 2 * 9 + 3
    assert evaluate_adjoint(B3, UnipotentWord()) == tuple(
        tuple(int(i == j) for j in range(rep.dim)) for i in range(rep.dim)
    )


def test_adjoint_is_lie_homomorphism():
    # [ad a, ad b] = ad([a, b]) across the full table; this is the Jacobi
    # identity check for the structure constants
    def ad_cartan(rep, j):
        # ad h_j scales e_r by <r, beta_j-check> and kills the Cartan subalgebra
        n = rep.ctx.rank
        out = {}
        for r in rep.system.roots:
            if c := rep.system.cartan_pairing(r, j):
                out[n + r.index] = {n + r.index: c}
        return out

    for family, rank in (("A", 2), ("B", 2), ("B", 3)):
        ctx = context(family, rank)
        rep = adjoint_rep(ctx)
        system = root_system(family, rank)
        coroots = system.structure.coroot_coords
        ad = {r: rep.divided_powers(r)[1] for r in system.all_roots()}
        for a in system.all_roots():
            for b in system.all_roots():
                if a.coeffs == b.coeffs:
                    continue
                lhs = combine([(1, mat_mul(ad[a], ad[b])), (-1, mat_mul(ad[b], ad[a]))])
                total = a.try_add(b)
                if total is not None:
                    rhs = combine([(system.structure.sums[a.index][b.index][1], ad[total])])
                elif all(x + y == 0 for x, y in zip(a.coeffs, b.coeffs)):
                    rhs = combine(
                        (coord, ad_cartan(rep, j))
                        for j, coord in enumerate(coroots[a.index], start=1)
                    )
                else:
                    rhs = {}
                assert lhs == rhs, (a, b)


def test_adjoint_nilpotency_bound():
    rep = adjoint_rep(B3)
    for r in SYS3.all_roots():
        assert len(rep.divided_powers(r)) <= AdjointRep.MAX_NILPOTENCY + 1
    foreign = root_system("B", 2).simple(1)
    with pytest.raises(ValueError, match="is not in"):
        rep.divided_powers(foreign)
    with pytest.raises(ValueError, match="is not in"):
        evaluate_adjoint(B3, UnipotentWord((Factor(-foreign, LaurentPoly.constant(1)),)))


@pytest.mark.parametrize(
    "ad,message",
    [
        # 60^k / k! is an integer for k <= 5, and no power of 60 vanishes
        ({0: {0: 60}}, "not nilpotent of index <= 5"),
        ({0: {0: 1}}, "divided power is not integral"),
    ],
    ids=["not-nilpotent", "not-integral"],
)
def test_bad_divided_powers_are_rejected(ad, message, monkeypatch):
    monkeypatch.setattr(AdjointRep, "_build_ad", lambda self, alpha: ad)
    with pytest.raises(AssertionError, match=message):
        AdjointRep(context("A", 2))


def test_divided_powers_are_stored_once(rng):
    # each call makes a new list of the stored D_k: clearing one changes
    # neither a later call nor the evaluation
    rep = adjoint_rep(B3)
    words = [random_unipotent_word(B3, rng) for _ in range(5)]
    before = [(evaluate_adjoint(B3, w), evaluate_adjoint(B3, w, prime=7)) for w in words]
    stored = lambda powers: [id(d) for d in powers[1:]]
    for r in SYS3.all_roots():
        first, second = rep.divided_powers(r), rep.divided_powers(r)
        assert first is not second
        assert len(first) >= 2 and stored(first) == stored(second)
        first.clear()
        assert stored(rep.divided_powers(r)) == stored(second)
    after = [(evaluate_adjoint(B3, w), evaluate_adjoint(B3, w, prime=7)) for w in words]
    assert after == before


def reference_adjoint(ctx, word, assignment=None, prime=None):
    """The definition: the product over the factors of sum_k c^k D_k, with
    D_k = ad^k/k! from divided_powers, by linalg.combine and linalg.mat_mul,
    reduced modulo ``prime`` after every product."""
    rep = adjoint_rep(ctx)
    result = identity(rep.dim)
    for f in word.factors:
        c = Fraction(f.coeff.evaluate(assignment or {}))
        if prime is not None:
            c = c.numerator * pow(c.denominator, -1, prime) % prime
        terms = ((c ** k, d) for k, d in enumerate(rep.divided_powers(f.root)))
        result = reduce_mod(mat_mul(result, reduce_mod(combine(terms), prime)), prime)
    return tuple(
        tuple(result.get(i, {}).get(j, 0) for j in range(rep.dim)) for i in range(rep.dim)
    )


def random_symbolic_word(ctx, rng):
    negatives = [r for r in root_system(ctx.family, ctx.rank).all_roots() if not r.is_positive]
    coeffs = [X, -Y, X * Y, LaurentPoly.variable("y", -1), X + LaurentPoly.constant(2)]
    return UnipotentWord(
        tuple(Factor(rng.choice(negatives), rng.choice(coeffs)) for _ in range(rng.randint(1, 8)))
    )


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("B", 4)])
def test_evaluate_matches_definition(rng, family, rank):
    ctx = context(family, rank)
    assignment = {"x": Fraction(2, 3), "y": Fraction(-5, 4)}
    for _ in range(6):
        word = random_unipotent_word(ctx, rng)
        matrix = evaluate_adjoint(ctx, word)
        assert matrix == reference_adjoint(ctx, word)
        assert {type(v) for row in matrix for v in row} == {int}
        symbolic = random_symbolic_word(ctx, rng)
        assert evaluate_adjoint(ctx, symbolic, assignment) == reference_adjoint(
            ctx, symbolic, assignment
        )
        for prime in (7, 11):
            for w, values in ((word, None), (symbolic, assignment)):
                assert evaluate_adjoint(ctx, w, values, prime) == reference_adjoint(
                    ctx, w, values, prime
                )
    for prime in (None, 7, 11):
        assert evaluate_adjoint(ctx, UnipotentWord(), prime=prime) == reference_adjoint(
            ctx, UnipotentWord()
        )
    inverse_y = UnipotentWord((Factor(neg((1, 0, 0)), Y),))
    for prime in (7, 11):
        with pytest.raises(ValueError, match=f"denominator divisible by {prime}"):
            evaluate_adjoint(B3, inverse_y, {"y": Fraction(1, prime)}, prime)


def test_evaluate_takes_no_matrix_product(rng, monkeypatch):
    """evaluate_adjoint applies its factors by rows alone: once the
    representation is built, a call of mat_mul or combine fails."""
    adjoint_rep(B3)
    words = [random_unipotent_word(B3, rng) for _ in range(5)]
    expected = [
        (reference_adjoint(B3, w), reference_adjoint(B3, w, prime=7)) for w in words
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a sparse matrix product was formed")

    monkeypatch.setattr(chevalley, "mat_mul", forbidden)
    monkeypatch.setattr(linalg, "combine", forbidden)
    for w, (exact, modular) in zip(words, expected):
        assert evaluate_adjoint(B3, w) == exact
        assert evaluate_adjoint(B3, w, prime=7) == modular


def test_finite_field_evaluation(rng):
    for prime in (7, 11):
        for _ in range(10):
            w = random_unipotent_word(B3, rng)
            rational = evaluate_adjoint(B3, w)
            modular = evaluate_adjoint(B3, w, prime=prime)
            reduced = tuple(
                tuple(Fraction(v).numerator % prime for v in row) for row in rational
            )
            assert reduced == modular


@pytest.mark.parametrize(
    "deeper,message",
    [(True, "free pattern of the deeper cell"), (False, "expected 2n coordinates")],
    ids=["deeper", "shallower"],
)
def test_witness_coordinate_mismatch_is_reported(deeper, message, monkeypatch):
    # the coordinate roots of one cell of the catalog pair lose their last
    # entry: a deeper cell with a shorter free pattern, or a shallower one
    # with 2n - 1 coordinates
    entry = catalog(CLOSURE_OBSTRUCTION, 3)
    target = entry.second if deeper else entry.first

    def cut(sub):
        phi = cell(sub).phi
        return SimpleNamespace(phi=phi[:-1] if sub == target else phi)

    monkeypatch.setattr(chevalley, "cell", cut)
    with pytest.raises(VerificationError, match=f"coordinate pairing mismatch: .*{message}"):
        build_closure_witness_words(3)


def test_witness_psi_shape():
    psi3 = witness_psi(3)
    assert {r.coeffs for r in psi3} == {(-2, -2, -1), (0, -1, -1), (0, 0, -1)}
    for n in (3, 4, 5, 6):
        assert len(witness_psi(n)) == n


def test_witness_words_shape():
    for n in (3, 4):
        u_y, u_z, psi = build_closure_witness_words(n)
        assert len(u_y) == 2 * n - 2  # the n-1 fixed coordinates get no factor
        assert len(u_z) == 2 * n
        assert len(psi) == n
    with pytest.raises(ValueError):
        build_closure_witness_words(2)


def test_verify_closure_witness_passes():
    # n = 13 is a rank above 12; most of its second builds the structure table
    for n in (3, 4, 5, 13):
        report = verify_closure_witness(n)
        assert report.passed
        assert len(report.psi) == n
        assert report.signs  # realized signs are reported
        assert any("support" in c.name for c in report.checks)


def test_psi_pairwise_sums_never_roots():
    for n in (3, 4, 5, 6):
        psi = witness_psi(n)
        for i, a in enumerate(psi):
            for b in psi[i + 1 :]:
                assert a.try_add(b) is None


def test_json_roundtrip():
    w = UnipotentWord(
        (
            Factor(neg((1, 0, 0)), LaurentPoly.variable("z1", 2)),
            Factor(neg((0, 1, 1)), LaurentPoly.variable("t", -1)),
        )
    )
    assert UnipotentWord.from_obj(B3, w.to_obj()) == w
