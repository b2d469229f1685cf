import hashlib
import json
import re
from collections import Counter

import pytest

from conftest import all_subexpressions
from deodhar import cells
from deodhar.cells import (
    CELLS_BOUND,
    cell,
    cell_to_obj,
    cells_with_endpoint,
    closure_upper_bound,
    enumerate_below,
    enumerate_subexpressions,
    hasse_dot,
    is_distinguished,
    point_count,
    point_count_polynomial,
    preceq,
    subexpression,
)
from deodhar.laurent import LaurentPoly
from deodhar.search import CLOSURE_OBSTRUCTION, DISJOINTNESS, catalog
from deodhar.weyl import ReducedWord, all_reduced_words, bruhat_leq, context, parse_word

A2 = context("A", 2)
B3 = context("B", 3)
STS = parse_word(A2, "1,2,1")


def test_enumeration_counts_and_order():
    word1 = parse_word(B3, "1")
    assert [s.mask for s in all_subexpressions(word1)] == [(0,), (1,)]
    assert [s.mask for s in enumerate_subexpressions(word1, CELLS_BOUND)] == [(0,), (1,)]
    subs = all_subexpressions(STS)
    assert len(subs) == 8
    assert [s.mask for s in subs] == sorted(s.mask for s in subs)
    walked = list(enumerate_subexpressions(STS, CELLS_BOUND))
    assert [s.mask for s in walked] == sorted(s.mask for s in walked)
    for s in walked:
        fresh = subexpression(STS, s.mask)  # recomputes the partial products
        assert fresh.partials == s.partials
        assert s.partials[0].is_identity()
    ctx4 = context("B", 4)
    block = (4, 3, 2, 1, 2, 3)
    word12 = parse_word(ctx4, ",".join(map(str, block + block)))
    everything = all_subexpressions(word12)
    assert len(everything) == 4096
    walked = [s.mask for s in enumerate_subexpressions(word12, CELLS_BOUND)]
    assert walked == [s.mask for s in everything if is_distinguished(s)]


def test_enumeration_bound():
    ctx = context("B", 7)
    w0 = ctx.longest_element()
    letters = []
    w = w0
    while not w.is_identity():
        i = w.right_descents()[0]
        letters.append(i)
        w = w.right_mult_generator(i)
    word = ReducedWord(ctx, tuple(reversed(letters)))
    assert len(word) == 49
    walked = 0
    with pytest.raises(ValueError, match="more than 15000 distinguished masks"):
        for _ in enumerate_subexpressions(word, CELLS_BOUND):
            walked += 1
    assert walked == CELLS_BOUND  # mask number bound + 1 raises instead of being yielded


def test_subexpression_checks_mask():
    with pytest.raises(ValueError):
        subexpression(STS, "10")
    with pytest.raises(ValueError):
        subexpression(STS, (1, 2, 0))


def test_distinguished_examples():
    assert not is_distinguished(subexpression(STS, "100"))
    assert is_distinguished(subexpression(STS, "111"))
    assert is_distinguished(subexpression(STS, "000"))
    distinguished = [
        s.mask_string for s in all_subexpressions(STS) if is_distinguished(s)
    ]
    assert len(distinguished) == 7
    assert "100" not in distinguished


def test_distinguished_enumeration_prunes_exactly():
    for word in (STS, parse_word(B3, "3,2,1,2,3,2,1,2,1")):
        via_filter = [
            s.mask for s in all_subexpressions(word) if is_distinguished(s)
        ]
        via_prune = [
            s.mask for s in enumerate_subexpressions(word, CELLS_BOUND)
        ]
        assert via_filter == via_prune


def test_cell_descriptor_examples():
    full_torus = cell(subexpression(STS, "000"))
    assert full_torus.torus_rank == 3 and full_torus.dimension == 3
    assert full_torus.sub.endpoint == A2.identity

    mixed = cell(subexpression(STS, "101"))
    assert mixed.chosen == (1, 3) and mixed.descents == (1,)
    assert (mixed.affine_rank, mixed.torus_rank) == (1, 1)

    point = cell(subexpression(STS, "111"))
    assert point.dimension == 0 and point.sub.endpoint == A2.from_word([1, 2, 1])


def test_empty_word_degenerate_case():
    empty = parse_word(B3, "")
    subs = list(enumerate_subexpressions(empty, CELLS_BOUND))
    assert len(subs) == 1
    desc = cell(subs[0])
    assert desc.dimension == 0 and desc.phi == ()


def test_cells_with_endpoint_partition():
    by_endpoint = {}
    for v in A2.elements():
        for desc in cells_with_endpoint(STS, v):
            by_endpoint.setdefault(v.window, []).append(desc.mask_string)
    assert by_endpoint[A2.identity.window] == ["000", "101"]
    assert by_endpoint[A2.from_word([1, 2, 1]).window] == ["111"]
    assert sum(len(v) for v in by_endpoint.values()) == 7


def test_preceq_reflexive_and_catalog_pairs():
    g = subexpression(STS, "101")
    assert preceq(g, g)
    for n in (3, 4):
        entry = catalog(CLOSURE_OBSTRUCTION, n)
        assert preceq(entry.second, entry.first)
    entry = catalog(DISJOINTNESS, 3)
    assert preceq(entry.second, entry.first)


def test_preceq_word_mismatch():
    other = parse_word(A2, "2,1,2")
    with pytest.raises(ValueError):
        preceq(subexpression(STS, "000"), subexpression(other, "000"))


def test_preceq_direction_on_single_letter():
    word = parse_word(B3, "1")
    taken = subexpression(word, "1")
    skipped = subexpression(word, "0")
    # the full subexpression has the larger partial, so it is preceq-smaller
    assert preceq(taken, skipped)
    assert not preceq(skipped, taken)


def test_cell_requires_distinguished():
    with pytest.raises(ValueError, match="mask 100 is not distinguished"):
        cell(subexpression(STS, "100"))


def test_root_sequence_all_negative_and_sized():
    for sub in enumerate_subexpressions(STS, CELLS_BOUND):
        entries = cell(sub).phi
        assert all(e.root.is_negative for e in entries)
        assert len(entries) == len(sub) - len(sub.descent_positions())
        assert [e.index for e in entries] == sorted(e.index for e in entries)


def test_closure_upper_bound_against_brute_force():
    for mask in ("000", "101", "111"):
        gamma = subexpression(STS, mask)
        bound = closure_upper_bound(gamma)
        brute = [
            s.mask_string
            for s in all_subexpressions(STS)
            if is_distinguished(s) and preceq(s, gamma)
        ]
        assert [d.mask_string for d in bound] == brute
        assert mask in [d.mask_string for d in bound]


def _filtered_walk(walk, gammas, ceilings):
    """The reference for enumerate_below: each distinguished delta with the
    bitset of the a with delta preceq gammas[a] and, given ceilings, at most
    ceilings[a] elements in J(delta); deltas below no gamma are left out."""
    out = []
    for delta in walk:
        size = len(delta.descent_positions())
        alive = sum(
            1 << a
            for a, gamma in enumerate(gammas)
            if preceq(delta, gamma) and (ceilings is None or size <= ceilings[a])
        )
        if alive:
            out.append((delta.mask, delta.partials, alive))
    return out


@pytest.mark.parametrize(
    "word",
    [
        catalog(CLOSURE_OBSTRUCTION, 3).word,
        parse_word(B3, "3,2,1,2,3,2,1,2,1"),
        parse_word(context("A", 3), "1,2,3,1,2,1"),
        parse_word(context("A", 4), "2,1,3,2,4,3,1,2"),
    ],
    ids=["catalog-3", "b3-w0", "a3-w0", "a4"],
)
def test_enumerate_below_matches_filtered_walk(word):
    walk = list(enumerate_subexpressions(word, CELLS_BOUND))
    # every fifth mask of the word: a non-distinguished gamma skips a
    # descent, where it steps up in Bruhat order
    mixed = all_subexpressions(word)[::5]
    assert any(is_distinguished(g) for g in mixed)
    assert not all(is_distinguished(g) for g in mixed)
    cases = [
        (walk, None),
        (walk, [len(g.descent_positions()) for g in walk]),
        (mixed, None),
        (mixed, [a % (len(word) + 1) for a in range(len(mixed))]),
    ]
    for gammas, ceilings in cases:
        shared = enumerate_below(gammas, CELLS_BOUND, ceilings)
        assert [(s.mask, s.partials, alive) for s, alive in shared] == _filtered_walk(
            walk, gammas, ceilings
        )


def test_enumerate_below_bound():
    gamma = subexpression(STS, "101")  # 101, 110 and 111 lie below it
    assert len(list(enumerate_below([gamma], 3))) == 3
    walked = 0
    with pytest.raises(ValueError, match="more than 2 distinguished masks"):
        for _ in enumerate_below([gamma], 2):
            walked += 1
    assert walked == 2


def test_closure_upper_bound_prunes(monkeypatch):
    # the walk compares Bruhat keys inline, in _above_mask, one comparison
    # per group it is handed
    calls = 0
    original = cells._above_mask

    def counting(groups, x):
        nonlocal calls
        calls += len(groups)
        return original(groups, x)

    monkeypatch.setattr(cells, "_above_mask", counting)
    bound = closure_upper_bound(catalog(CLOSURE_OBSTRUCTION, 5).first)
    assert len(bound) == 907
    # the cut and the lifting property keep the Bruhat checks near the cells
    # found (144, against 1,660 bruhat_leq calls of a walk that tests every
    # step); filtering all 13,066 masks of the word by preceq makes 46,481
    assert 0 < calls <= 3 * len(bound)


def test_closure_upper_bound_rank_6():
    # 5,167 of the rank-6 catalog word's 136,563 masks lie below gamma
    entry = catalog(CLOSURE_OBSTRUCTION, 6)
    masks = [d.mask_string for d in closure_upper_bound(entry.first)]
    assert len(masks) == 5167
    assert entry.second.mask_string in masks


def test_closure_upper_bound_bound():
    # 30,699 distinguished masks lie below the rank-7 catalog gamma
    with pytest.raises(ValueError, match="more than 15000"):
        closure_upper_bound(catalog(CLOSURE_OBSTRUCTION, 7).first)


def test_closure_upper_bound_contains_catalog_pair():
    entry = catalog(CLOSURE_OBSTRUCTION, 3)
    masks = [d.mask_string for d in closure_upper_bound(entry.first)]
    assert entry.second.mask_string in masks


def test_point_count_polynomial_examples():
    q = LaurentPoly.variable("q")
    one = LaurentPoly.one()
    expected = (q - one) ** 3 + q * (q - one)
    poly = point_count_polynomial(STS, A2.identity)
    assert poly == expected
    assert poly == q ** 3 - 2 * q ** 2 + 2 * q - one
    assert point_count_polynomial(STS, A2.from_word([1, 2, 1])) == one


def _walked_point_count(word, v):
    """The reference route: point counts summed from the cells of the walk."""
    return point_count(
        Counter((d.affine_rank, d.torus_rank) for d in cells_with_endpoint(word, v))
    )


def _point_count_words():
    """Every reduced word of W(A_3), one word per element of W(B_3), the n=3
    catalog word and a reduced word of w0 in B_3."""
    words = [word for w in context("A", 3).elements() for word in all_reduced_words(w)]
    words += [all_reduced_words(w)[0] for w in B3.elements()]
    words += [catalog(CLOSURE_OBSTRUCTION, 3).word, parse_word(B3, "3,2,1,2,3,2,1,2,1")]
    return words


def test_point_count_polynomial_matches_cell_walk():
    q = LaurentPoly.variable("q")
    for word in _point_count_words():
        total = LaurentPoly.zero()
        for v in word.ctx.elements():
            poly = point_count_polynomial(word, v)
            assert poly == _walked_point_count(word, v), (word.serialize(), v.window)
            assert poly.is_zero() != bruhat_leq(v, word.product)
            total = total + poly
        assert total == q ** len(word), word.serialize()


B16_W0 = parse_word(context("B", 16), ",".join(map(str, list(range(1, 17)) * 16)))


@pytest.mark.parametrize(
    "word",
    [catalog(CLOSURE_OBSTRUCTION, 6).word, B16_W0],
    ids=["catalog-6", "b16-w0"],  # 136,563 masks; 256 letters
)
def test_point_count_polynomial_bound(word):
    with pytest.raises(ValueError, match="more than 15000"):
        point_count_polynomial(word, word.ctx.identity)


def test_point_count_polynomial_bound_is_exact(monkeypatch):
    # both words have 7 distinguished masks; the table holds one word
    monkeypatch.setattr(cells, "CELLS_BOUND", 7)
    assert point_count_polynomial(STS, A2.identity) == point_count({(0, 3): 1, (1, 1): 1})
    monkeypatch.setattr(cells, "CELLS_BOUND", 6)
    with pytest.raises(ValueError, match="^word has more than 6 distinguished masks$"):
        point_count_polynomial(parse_word(A2, "2,1,2"), A2.identity)


def test_point_count_polynomial_keys_on_context():
    # equal letters and equal hash, different words
    a3, b3 = context("A", 3), context("B", 3)
    word_a, word_b = ReducedWord(a3, (1, 2)), ReducedWord(b3, (1, 2))
    assert hash(word_a) == hash(word_b) and word_a != word_b
    zero = LaurentPoly.zero()
    for _ in range(2):
        for word, other in ((word_a, b3), (word_b, a3)):
            expected = {v: _walked_point_count(word, v) for v in word.ctx.elements()}
            assert {v: point_count_polynomial(word, v) for v in expected} == expected
            assert all(point_count_polynomial(word, v) == zero for v in other.elements())


def test_point_count_invariance_across_words():
    sts, tst = STS, parse_word(A2, "2,1,2")
    for v in A2.elements():
        assert point_count_polynomial(sts, v) == point_count_polynomial(tst, v)


def test_hasse_dot_bound():
    from deodhar.search import catalog

    with pytest.raises(ValueError):
        hasse_dot(catalog(CLOSURE_OBSTRUCTION, 6).word)  # 136,563 masks


def test_hasse_dot_matches_triple_loop():
    word = catalog(CLOSURE_OBSTRUCTION, 3).word
    subs = list(enumerate_subexpressions(word, CELLS_BOUND))
    size = len(subs)
    below = [[a != b and preceq(subs[a], subs[b]) for b in range(size)] for a in range(size)]
    lines = ["digraph closure_order {", "  node [shape=box];"]
    for s in subs:
        lines.append(f'  "{s.mask_string}" [label="{s.mask_string} dim={cell(s).dimension}"];')
    for a in range(size):
        for b in range(size):
            if below[a][b] and not any(below[a][c] and below[c][b] for c in range(size)):
                lines.append(f'  "{subs[a].mask_string}" -> "{subs[b].mask_string}";')
    lines.append("}")
    assert hasse_dot(word) == "\n".join(lines) + "\n"


# regression anchors, not derivations: SHA-256 of hasse_dot on the catalog
# words, as the per-mask walk wrote them before the shared walk replaced it
HASSE_DIGESTS = {
    3: "14cd6c9c94da58a93894f3441ad41040d5e7bcadbc29c7098762bc6f05193660",
    4: "2a6127b2e5d086ff7ffd5a862d2bc916e6d8adfc2292675b1c21fa0c2dd932cb",
}


@pytest.mark.parametrize("n", sorted(HASSE_DIGESTS))
def test_hasse_dot_digest(n):
    dot = hasse_dot(catalog(CLOSURE_OBSTRUCTION, n).word)
    assert hashlib.sha256(dot.encode()).hexdigest() == HASSE_DIGESTS[n]


def test_hasse_dot_shapes():
    word1 = parse_word(B3, "1")
    dot = hasse_dot(word1)
    assert dot.count("->") == 1
    assert dot.count("[label=") == 2

    dot_sts = hasse_dot(STS)
    assert dot_sts.count("[label=") == 7
    # light syntactic check: one digraph block of node/edge statements
    assert re.match(
        r'digraph \w+ \{\n(  [^\n]*;\n)+\}\n$', dot_sts
    ), dot_sts


def test_cell_json_schema():
    desc = cell(subexpression(STS, "101"))
    obj = cell_to_obj(desc)
    assert json.loads(json.dumps(obj)) == obj
    assert obj["mask"] == "101"
    assert obj["end"] == "1,2,3"
    assert obj["I"] == [1, 3] and obj["J"] == [1]
    assert (obj["dim"], obj["affine"], obj["torus"]) == (2, 1, 1)
    assert all(set(entry) == {"i", "root", "free"} for entry in obj["phi"])
