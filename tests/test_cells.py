import hashlib
import json
import random
import re
from collections import Counter
from functools import cache
from inspect import signature
from math import comb

import pytest

from conftest import all_subexpressions, preceq_by_depth
from deodhar import cells
from deodhar.cells import (
    CELLS_BOUND,
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    CatalogEntry,
    CellDescriptor,
    PhiEntry,
    Subexpression,
    catalog,
    cell,
    cell_to_obj,
    closure_pairs,
    closure_relation,
    closure_upper_bound,
    endpoint_counts,
    enumerate_below,
    enumerate_subexpressions,
    hasse_dot,
    is_distinguished,
    point_count_polynomial,
    preceq,
    subexpression,
)
from deodhar.laurent import LaurentPoly, Monomial
from deodhar.weyl import ReducedWord, all_reduced_words, bruhat_leq, context, parse_word

A2 = context("A", 2)
B3 = context("B", 3)
STS = parse_word(A2, "1,2,1")


def test_enumeration_counts_and_order():
    word1 = parse_word(B3, "1")
    assert [s.mask for s in all_subexpressions(word1)] == [(0,), (1,)]
    assert [d.mask for d in enumerate_subexpressions(word1, CELLS_BOUND)] == [(0,), (1,)]
    subs = all_subexpressions(STS)
    assert len(subs) == 8
    assert [s.mask for s in subs] == sorted(s.mask for s in subs)
    walked = list(enumerate_subexpressions(STS, CELLS_BOUND))
    assert [s.mask for s in walked] == sorted(s.mask for s in walked)
    for s in walked:
        fresh = subexpression(STS, s.mask)  # recomputes the partial products
        assert fresh.partials == s.partials
        assert s.partials[0] is s.partials[0].ctx.identity
    ctx4 = context("B", 4)
    block = (4, 3, 2, 1, 2, 3)
    word12 = parse_word(ctx4, ",".join(map(str, block + block)))
    everything = all_subexpressions(word12)
    assert len(everything) == 4096
    walked = [d.mask for d in enumerate_subexpressions(word12, CELLS_BOUND)]
    assert walked == [s.mask for s in everything if is_distinguished(s)]


def _reduced_word(w):
    """One reduced word of ``w``, read by peeling right descents."""
    letters = []
    while w is not w.ctx.identity:
        i = w.right_descents()[0]
        letters.append(i)
        w = w.right_mult_generator(i)
    return ReducedWord(w.ctx, tuple(reversed(letters)))


def test_enumeration_bound():
    word = _reduced_word(context("B", 7).longest_element())
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


def test_subexpression_names_bad_mask_character():
    message = r"^mask character 'x' at position 2 \(expected 0 or 1\)$"
    with pytest.raises(ValueError, match=message):
        subexpression(STS, "1x0")


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
            d.mask for d in enumerate_subexpressions(word, CELLS_BOUND)
        ]
        assert via_filter == via_prune


def test_cell_descriptor_examples():
    full_torus = cell(subexpression(STS, "000"))
    assert full_torus.torus_rank == 3 and full_torus.dimension == 3
    assert full_torus.endpoint == A2.identity

    mixed = cell(subexpression(STS, "101"))
    assert mixed.chosen_positions() == (1, 3) and mixed.descent_positions() == (1,)
    assert (mixed.affine_rank, mixed.torus_rank) == (1, 1)

    point = cell(subexpression(STS, "111"))
    assert point.dimension == 0 and point.endpoint == A2.from_word([1, 2, 1])


def test_empty_word_degenerate_case():
    empty = parse_word(B3, "")
    descs = list(enumerate_subexpressions(empty, CELLS_BOUND))
    assert len(descs) == 1
    desc = descs[0]
    assert desc == cell(desc)
    assert desc.dimension == 0 and desc.phi == ()


def test_cells_with_endpoint_partition():
    by_endpoint = {}
    for desc in enumerate_subexpressions(STS, CELLS_BOUND):
        by_endpoint.setdefault(desc.endpoint.window, []).append(desc.mask_string)
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


def test_catalog_entry_reads_its_word_from_the_pair():
    assert CatalogEntry._fields == ("name", "n", "first", "second")
    entry = catalog(CLOSURE_OBSTRUCTION, 3)
    assert entry.first.word == entry.second.word


def test_preceq_word_mismatch():
    other = parse_word(A2, "2,1,2")
    with pytest.raises(ValueError):
        preceq(subexpression(STS, "000"), subexpression(other, "000"))


def test_closure_upper_bound_requires_distinguished():
    with pytest.raises(ValueError, match="computed for distinguished masks"):
        closure_upper_bound(subexpression(STS, "100"))


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
    for desc in enumerate_subexpressions(STS, CELLS_BOUND):
        entries = desc.phi
        assert not any(e.root.is_positive for e in entries)
        assert len(entries) == len(desc) - len(desc.descent_positions())
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


def _filtered_walk(walk, gammas):
    """The reference for enumerate_below and closure_pairs: each
    distinguished delta with the bitset of the a with delta preceq
    gammas[a]; deltas below no gamma are left out."""
    out = []
    for delta in walk:
        alive = sum(1 << a for a, gamma in enumerate(gammas) if preceq(delta, gamma))
        if alive:
            out.append((delta.mask, delta.partials, alive))
    return out


@pytest.mark.parametrize(
    "word",
    [
        catalog(CLOSURE_OBSTRUCTION, 3).first.word,
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
    for gamma in mixed + walk[::7]:
        below = [(d.mask, d.partials, 1) for d in enumerate_below(gamma, CELLS_BOUND)]
        assert below == _filtered_walk(walk, [gamma]), gamma.mask_string
    # closure_pairs reads the same relation among the masks of one walk
    descs, stream = closure_pairs(word)
    reference = _filtered_walk(walk, walk)
    without_self = [(m, p, alive & ~(1 << a)) for a, (m, p, alive) in enumerate(reference)]
    assert [(d.mask, d.partials, bits) for d, bits in zip(descs, stream)] == without_self


WALK_WORDS = [
    catalog(CLOSURE_OBSTRUCTION, 3).first.word,
    catalog(CLOSURE_OBSTRUCTION, 4).first.word,
    parse_word(B3, "3,2,1,2,3,2,1,2,1"),
    parse_word(context("A", 3), "1,2,3,1,2,1"),
    parse_word(context("A", 4), "2,1,3,2,4,3,1,2"),
]
WALK_IDS = ["catalog-3", "catalog-4", "b3-w0", "a3-w0", "a4"]


def _assert_matches_cell(desc):
    """``desc`` is one record, a subexpression with its phi, and equals
    ``cell(desc)`` field for field, partial products and derived values
    included; the positions phi skips are J by the window descent rule."""
    fresh = cell(desc)
    # the fields, as slots and as the constructor's parameters, in order
    fields = ["word", "mask", "partials", "phi"]
    assert [*Subexpression.__slots__, *CellDescriptor.__slots__] == fields
    assert list(signature(CellDescriptor).parameters) == fields
    assert isinstance(desc, Subexpression) and not hasattr(desc, "sub")
    assert all(type(entry) is PhiEntry for entry in desc.phi)
    derived = ["dimension", "affine_rank", "torus_rank"]
    for name in ["word", "mask", "partials", "phi"] + derived:
        assert getattr(desc, name) == getattr(fresh, name), (desc.mask_string, name)
    assert desc.chosen_positions() == fresh.chosen_positions()
    present = {entry.index for entry in desc.phi}
    skipped = tuple(i for i in range(1, len(desc) + 1) if i not in present)
    assert skipped == desc.descent_positions() == fresh.descent_positions()


@pytest.mark.parametrize("word", WALK_WORDS, ids=WALK_IDS)
def test_walk_descriptors_match_cell(word):
    descs = list(enumerate_subexpressions(word, CELLS_BOUND))
    for desc in descs:
        _assert_matches_cell(desc)
    # every 40th distinguished gamma and every 40th of the others, which
    # skip a descent where they step up in Bruhat order
    empty = [s for s in all_subexpressions(word) if not is_distinguished(s)]
    for gamma in descs[::40] + empty[::40]:
        for desc in enumerate_below(gamma, CELLS_BOUND):
            _assert_matches_cell(desc)


@pytest.mark.parametrize("word", WALK_WORDS[:3], ids=WALK_IDS[:3])
def test_descriptors_walk_as_their_subexpressions(word):
    # a descriptor passed as a gamma is read as the subexpression it is
    descs = list(enumerate_subexpressions(word, CELLS_BOUND))
    bare = [subexpression(word, d.mask) for d in descs]
    assert all(type(s) is Subexpression for s in bare)
    # every 40th mask as a gamma, and the last, the deepest cell
    for desc, sub in list(zip(descs, bare))[::40] + [(descs[-1], bare[-1])]:
        below = [d.mask for d in closure_upper_bound(desc)]
        assert below == [d.mask for d in closure_upper_bound(sub)]
        assert desc.mask in below


@pytest.mark.parametrize("word", WALK_WORDS[:3], ids=WALK_IDS[:3])
def test_closure_pairs_hold_earlier_masks_only(word):
    # the whole relation, later masks included, by the per-depth reference:
    # no mask lies below a later one, and each mask's earlier part is its
    # closure_pairs bitset
    descs, stream = closure_pairs(word)
    _, above = preceq_by_depth(descs)
    pairs = list(stream)
    assert len(pairs) == len(descs) and any(pairs)
    for a, (bits, reference) in enumerate(zip(pairs, above)):
        assert reference >> a == 1, descs[a].mask_string
        assert bits == reference & ~(1 << a), descs[a].mask_string


@cache
def _relation_lists():
    """Mask-ordered lists of one word's descriptors that are neither a
    whole walk nor the masks of one endpoint, and two whole walks of
    special shape."""
    descs = list(enumerate_subexpressions(catalog(CLOSURE_OBSTRUCTION, 4).first.word, CELLS_BOUND))
    half = sorted(random.Random(33).sample(range(len(descs)), len(descs) // 2))
    return {
        "every-3rd": descs[::3],
        "seeded-half": [descs[i] for i in half],
        "one-mask": [descs[len(descs) // 2]],
        "empty-word": list(enumerate_subexpressions(ReducedWord(B3, ()), CELLS_BOUND)),
        # partial products all distinct: every memo lookup misses
        "b8-1..8": list(enumerate_subexpressions(
            parse_word(context("B", 8), "1,2,3,4,5,6,7,8"), CELLS_BOUND)),
    }


@pytest.mark.parametrize("name", list(_relation_lists()))
def test_closure_relation_matches_reference_on_sublists(name):
    # a sublist of a mask-ordered list is mask-ordered, and the masks
    # through one trie node stay consecutive in it
    descs = _relation_lists()[name]
    _, above = preceq_by_depth(descs)
    assert list(closure_relation(descs)) == [bits & ~(1 << a) for a, bits in enumerate(above)]


@pytest.mark.parametrize(
    "word",
    [catalog(CLOSURE_OBSTRUCTION, 3).first.word, catalog(DISJOINTNESS, 3).first.word],
    ids=["catalog-3", "b3-w0"],
)
def test_hasse_dot_edges_are_transitive_reduction(word):
    # b covers a iff a strictly precedes b and nothing strictly above a is
    # strictly below b, both halves read from the per-depth reference
    descs = list(enumerate_subexpressions(word, CELLS_BOUND))
    below, above = preceq_by_depth(descs)
    strict_below = [bits & ~(1 << k) for k, bits in enumerate(below)]
    strict_above = [bits & ~(1 << k) for k, bits in enumerate(above)]
    covers = [
        (descs[a].mask_string, descs[b].mask_string)
        for a in range(len(descs))
        for b in range(len(descs))
        if strict_above[a] >> b & 1 and not strict_above[a] & strict_below[b]
    ]
    edges = re.findall(r'^  "([01]*)" -> "([01]*)";$', hasse_dot(word), re.MULTILINE)
    assert edges == covers and len(covers) > len(descs)


def test_closure_pairs_walk_once(monkeypatch):
    walks = []
    original = cells.enumerate_below

    def counting(*args, **kwargs):
        walks.append(0)
        for item in original(*args, **kwargs):
            walks[-1] += 1
            yield item

    monkeypatch.setattr(cells, "enumerate_below", counting)
    descs, stream = closure_pairs(catalog(CLOSURE_OBSTRUCTION, 4).first.word)
    assert sum(1 for _ in stream) == len(descs) == 1253
    # one walk over the masks: the bitsets are read from their partial
    # products
    assert walks == [1253]


@pytest.mark.parametrize("word", WALK_WORDS, ids=WALK_IDS)
def test_walk_shares_phi_entries_of_a_prefix(word):
    # leaves in walk order: two leaves with a common prefix of length k have
    # every leaf between them on it too, so neighbours suffice
    descs = list(enumerate_subexpressions(word, CELLS_BOUND))
    shared = 0
    for before, after in zip(descs, descs[1:]):
        k = 0
        while before.mask[k] == after.mask[k]:
            k += 1
        early = [e for e in before.phi if e.index <= k]
        assert [e for e in after.phi if e.index <= k] == early
        assert all(x is y for x, y in zip(early, after.phi))
        shared += len(early)
    assert shared > 0


@pytest.mark.parametrize("word", WALK_WORDS, ids=WALK_IDS)
def test_cells_with_endpoint_groups_partition_the_walk(word):
    # the walk filtered to each endpoint holds as many masks, in mask order,
    # as Deodhar's recursion counts there, and the groups cover the walk
    walk = list(enumerate_subexpressions(word, CELLS_BOUND))
    counts = endpoint_counts(word)
    grouped = []
    for v in word.ctx.elements():
        group = [d.mask for d in walk if d.endpoint is v]
        assert len(group) == counts.get(v, (0, []))[0]
        assert group == sorted(group)
        grouped += group
    assert sorted(grouped) == [d.mask for d in walk]


@pytest.mark.parametrize("word", WALK_WORDS, ids=WALK_IDS)
def test_endpoint_counts_match_the_walk(word):
    # each endpoint's mask count and row against the cells of the walk that
    # end there; a row holds the coefficients of q^0, ..., q^l
    shapes = {}
    for d in enumerate_subexpressions(word, CELLS_BOUND):
        shapes.setdefault(d.endpoint, Counter())[d.affine_rank, d.torus_rank] += 1
    counts = endpoint_counts(word)
    assert {v: masks for v, (masks, _) in counts.items()} == {
        v: sum(group.values()) for v, group in shapes.items()
    }
    for v, (_, row) in counts.items():
        assert len(row) == len(word) + 1
        assert all(type(c) is int for c in row)
        expanded = {mono.exponent("q"): c for mono, c in point_count(shapes[v]).terms()}
        assert row == [expanded.get(e, 0) for e in range(len(row))]


FOREIGN_ENDPOINTS = [context("B", 4).identity, context("A", 3).identity]


@pytest.mark.parametrize("v", FOREIGN_ENDPOINTS, ids=["b4", "a3"])
def test_point_count_polynomial_rejects_other_group(v):
    with pytest.raises(ValueError, match="different contexts"):
        point_count_polynomial(parse_word(B3, "3,2,1,2,3,2,1,2,1"), v)


def test_enumerate_below_bound():
    gamma = subexpression(STS, "101")  # 101, 110 and 111 lie below it
    assert len(list(enumerate_below(gamma, 3))) == 3
    walked = 0
    with pytest.raises(ValueError, match="more than 2 distinguished masks"):
        for _ in enumerate_below(gamma, 2):
            walked += 1
    assert walked == 2


def test_closure_upper_bound_prunes(monkeypatch):
    calls = 0
    original = cells.bruhat_leq

    def counting(u, v):
        nonlocal calls
        calls += 1
        return original(u, v)

    monkeypatch.setattr(cells, "bruhat_leq", counting)
    bound = closure_upper_bound(catalog(CLOSURE_OBSTRUCTION, 5).first)
    assert len(bound) == 907
    # the cut and the lifting property keep the Bruhat checks near the cells
    # found (203, against 1,660 of a walk that tests every step); filtering
    # all 13,066 masks of the word by preceq makes 46,481
    assert 0 < calls <= 3 * len(bound)


def test_closure_upper_bound_rank_6():
    # 5,167 of the rank-6 catalog word's 136,563 masks lie below gamma
    entry = catalog(CLOSURE_OBSTRUCTION, 6)
    masks = [d.mask_string for d in closure_upper_bound(entry.first)]
    assert len(masks) == 5167
    assert entry.second.mask_string in masks


def test_closure_upper_bound_digest_n5():
    # regression anchor, not a derivation: SHA-256 of the (mask, dimension,
    # phi) list below the rank-5 catalog gamma, as closure_upper_bound
    # returned it when cell() built each descriptor
    bound = closure_upper_bound(catalog(CLOSURE_OBSTRUCTION, 5).first)
    text = repr([
        (d.mask_string, d.dimension, [(e.index, e.root.coeffs, e.free) for e in d.phi])
        for d in bound
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36e65e8cafa8810a92a62679c5f6b53697b352307393e60e68d1ac23e073e107"
    )


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
    one = LaurentPoly.constant(1)
    expected = (q - one) ** 3 + q * (q - one)
    poly = point_count_polynomial(STS, A2.identity)
    assert poly == expected
    assert poly == q ** 3 - 2 * q ** 2 + 2 * q - one
    assert point_count_polynomial(STS, A2.from_word([1, 2, 1])) == one


def point_count(shapes):
    """Sum of q^affine (q-1)^torus over cells, given as the number of cells
    of each (affine, torus) shape; (q-1)^torus is expanded by binomials into
    integer coefficients of the powers of q."""
    coeffs = Counter()
    for (affine, torus), count in shapes.items():
        for k in range(torus + 1):
            coeffs[affine + k] += count * comb(torus, k) * (-1) ** (torus - k)
    return LaurentPoly({Monomial.of(q=e): c for e, c in coeffs.items()})


def _walked_point_counts(word):
    """The reference route: the point count of each endpoint of the group,
    summed from the cells of the walk that end there."""
    shapes = {v: Counter() for v in word.ctx.elements()}
    for d in enumerate_subexpressions(word, CELLS_BOUND):
        shapes[d.endpoint][d.affine_rank, d.torus_rank] += 1
    return {v: point_count(counts) for v, counts in shapes.items()}


def _point_count_words():
    """Every reduced word of W(A_3), one word per element of W(B_3), the n=3
    catalog word and a reduced word of w0 in B_3."""
    words = [word for w in context("A", 3).elements() for word in all_reduced_words(w)]
    words += [all_reduced_words(w)[0] for w in B3.elements()]
    words += [catalog(CLOSURE_OBSTRUCTION, 3).first.word, parse_word(B3, "3,2,1,2,3,2,1,2,1")]
    return words


def test_point_count_polynomial_matches_cell_walk():
    q = LaurentPoly.variable("q")
    for word in _point_count_words():
        total = LaurentPoly()
        for v, walked in _walked_point_counts(word).items():
            poly = point_count_polynomial(word, v)
            assert poly == walked, (word.serialize(), v.window)
            assert poly.is_zero() != bruhat_leq(v, word.ctx.from_word(word.letters))
            total = total + poly
        assert total == q ** len(word), word.serialize()


def _r_polynomials(ctx):
    """R_{x,w} for every pair of the group, as coefficient rows of q^0,
    q^1, ..., by the Kazhdan-Lusztig recursion (Invent. Math. 53, 1979):
    R_{x,x} = 1, R_{x,w} = 0 unless x <= w, and for a right descent s of w,
    R_{x,w} = R_{xs,ws} if xs < x and (q-1) R_{x,ws} + q R_{xs,ws} if not."""
    memo = {}

    def r(x, w):
        if (x, w) not in memo:
            if not bruhat_leq(x, w):
                row = [0]
            elif x is w:
                row = [1]
            else:
                s = w.right_descents()[0]
                ws, xs = w.right_mult_generator(s), x.right_mult_generator(s)
                if xs.length < x.length:
                    row = r(xs, ws)
                else:
                    lower, upper = r(x, ws), r(xs, ws)
                    # (q-1) lower + q upper, each row padded to one length
                    size = max(len(lower), len(upper)) + 1
                    row = [0] * size
                    for e, c in enumerate(lower):
                        row[e + 1] += c
                        row[e] -= c
                    for e, c in enumerate(upper):
                        row[e + 1] += c
            memo[x, w] = row
        return memo[x, w]

    elements = list(ctx.elements())
    return {(x, w): r(x, w) for w in elements for x in elements}


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("A", 4)], ids=["a3", "b3", "a4"])
def test_point_count_is_the_r_polynomial(family, rank):
    # the F_q-points of B w B meet B^- x B: R_{x,w}(q), by a recursion that
    # uses Bruhat order and lengths only, not Deodhar's cells
    ctx = context(family, rank)
    rows = _r_polynomials(ctx)
    elements = list(ctx.elements())
    assert len(rows) == len(elements) ** 2
    for w in elements:
        word = _reduced_word(w)
        for x in elements:
            expected = LaurentPoly({Monomial.of(q=e): c for e, c in enumerate(rows[x, w])})
            assert point_count_polynomial(word, x) == expected, (w.window, x.window)


def test_point_count_coefficients_are_int():
    for word in (STS, catalog(CLOSURE_OBSTRUCTION, 3).first.word):
        for v in word.ctx.elements():
            poly = point_count_polynomial(word, v)
            assert {type(c) for _, c in poly.terms()} <= {int}, v.window


B16_W0 = parse_word(context("B", 16), ",".join(map(str, list(range(1, 17)) * 16)))


@pytest.mark.parametrize(
    "word",
    [catalog(CLOSURE_OBSTRUCTION, 6).first.word, B16_W0],
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
    for _ in range(2):
        for word, other in ((word_a, b3), (word_b, a3)):
            expected = _walked_point_counts(word)
            assert {v: point_count_polynomial(word, v) for v in expected} == expected
            for v in other.elements():
                with pytest.raises(ValueError, match="different contexts"):
                    point_count_polynomial(word, v)


def test_point_count_invariance_across_words():
    sts, tst = STS, parse_word(A2, "2,1,2")
    for v in A2.elements():
        assert point_count_polynomial(sts, v) == point_count_polynomial(tst, v)


def test_hasse_dot_bound():
    with pytest.raises(ValueError):
        hasse_dot(catalog(CLOSURE_OBSTRUCTION, 6).first.word)  # 136,563 masks


def test_hasse_dot_matches_triple_loop():
    word = catalog(CLOSURE_OBSTRUCTION, 3).first.word
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


# regression anchors, not derivations: SHA-256 and line count of hasse_dot
# on the catalog words, as the per-mask walk wrote them before the shared
# walk replaced it, and on w0 of B_3, as the walk below a list of gammas
# wrote it before closure_pairs read the relation from the masks
HASSE_DIGESTS = {
    "3": (
        catalog(CLOSURE_OBSTRUCTION, 3).first.word,
        "14cd6c9c94da58a93894f3441ad41040d5e7bcadbc29c7098762bc6f05193660",
        567,
    ),
    "4": (
        catalog(CLOSURE_OBSTRUCTION, 4).first.word,
        "2a6127b2e5d086ff7ffd5a862d2bc916e6d8adfc2292675b1c21fa0c2dd932cb",
        8282,
    ),
    "b3-w0": (
        catalog(DISJOINTNESS, 3).first.word,
        "16d7887e6af591c3a692b975786dc893aafcbab018a978c656b5f389808dac38",
        1000,
    ),
}


@pytest.mark.parametrize("name", HASSE_DIGESTS)
def test_hasse_dot_digest(name):
    word, digest, lines = HASSE_DIGESTS[name]
    dot = hasse_dot(word)
    assert hashlib.sha256(dot.encode()).hexdigest() == digest
    assert dot.count("\n") == lines


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
