import itertools
import random

import pytest

from conftest import lifting_bruhat_leq, reduced_letters, subword_lower_set
from deodhar import weyl
from deodhar.roots import RootSystem, root_system
from deodhar.weyl import (
    ReducedWord,
    all_reduced_words,
    bruhat_leq,
    context,
    parse_word,
)

B3 = context("B", 3)
A2 = context("A", 2)


def _product(u, v):
    """The element u v, composed from the two windows: (u v)(a) = u(v(a)),
    with u(-a) = -u(a)."""
    window = tuple(u.window[b - 1] if b > 0 else -u.window[-b - 1] for b in v.window)
    return u.ctx.from_window(window)


def test_identity_and_generators():
    assert B3.from_word([]).window == (1, 2, 3)
    assert B3.from_word([1]).window == (-1, 2, 3)
    assert B3.from_word([2]).window == (2, 1, 3)
    with pytest.raises(ValueError):
        B3.from_word([4])
    with pytest.raises(ValueError):
        B3.from_word([0])


def test_longest_element_brute_force():
    # w_0 is the unique element of maximal length
    elements = list(B3.elements())
    assert len(elements) == 48
    top = max(elements, key=lambda w: w.length)
    assert top.length == 9
    assert sum(1 for w in elements if w.length == 9) == 1
    assert B3.from_word([3, 2, 1, 2, 3, 2, 1, 2, 1]) == top
    assert B3.longest_element() == top


def test_length_examples():
    assert B3.identity.length == 0
    assert B3.longest_element().length == 9
    ctx4 = context("B", 4)
    block = [4, 3, 2, 1, 2, 3]
    assert ctx4.from_word(block + block).length == 12


def test_word_then_its_reverse_is_identity():
    for word in ([1, 2], [3, 1, 2], [2, 3, 2, 1]):
        # the inverse of a product of generators reads its word backwards
        assert B3.from_word(word + word[::-1]) is B3.identity


def test_elements_of_two_contexts_do_not_mix():
    u, v = B3.from_word([1]), A2.from_word([1])
    with pytest.raises(ValueError, match="elements from different contexts"):
        bruhat_leq(u, v)


def test_descent_index_out_of_range():
    # right_mult_generator is the checked form; descents are read unchecked
    for i in (0, B3.rank + 1):
        with pytest.raises(ValueError, match=f"generator index {i} out of range"):
            B3.identity.right_mult_generator(i)


def test_window_validation():
    with pytest.raises(ValueError):
        B3.from_window((1, 1, 2))
    with pytest.raises(ValueError):
        A2.from_window((1, -2, 3))


@pytest.mark.parametrize(
    "window,pos",
    [((1.9, 2, 3), 1), ((1.0, 2, 3), 1), (("1", "-2", 3), 1), ((1, 2, "3"), 3),
     ((True, 2, 3), 1), ((-1, False, 3), 2)],
)
def test_window_entries_must_be_int(window, pos):
    with pytest.raises(ValueError, match=f"at position {pos} is not an integer"):
        B3.from_window(window)


def test_elements_are_interned():
    ctx = context("B", 4)
    elements = list(ctx.elements())
    assert len(elements) == 384
    for w in elements:
        assert ctx.from_window(w.window) is w
        for i in range(1, ctx.rank + 1):
            assert w.right_mult_generator(i).right_mult_generator(i) is w
        inverse = [0] * len(w.window)
        for i, v in enumerate(w.window, start=1):
            inverse[abs(v) - 1] = i if v > 0 else -i
        assert _product(w, ctx.from_window(inverse)) is ctx.identity
    assert ctx.from_word([]) is ctx.identity


def test_bruhat_trivial_cases():
    w = B3.from_word([1, 2, 1])
    assert bruhat_leq(B3.identity, w)
    assert bruhat_leq(B3.from_word([1]), w)
    assert not bruhat_leq(w, B3.from_word([1]))


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4)],
)
def test_bruhat_agrees_with_subword_oracle(family, rank):
    ctx = context(family, rank)
    elements = list(ctx.elements())
    for v in elements:
        lower = subword_lower_set(v)
        for u in elements:
            assert bruhat_leq(u, v) == (u in lower), (u, v)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("A", 4)])
def test_bruhat_leq_orders_keys(family, rank):
    # u <= v bounds every field of u's key by the same field of v's, so the
    # keys compare as integers too: closure_relation stops its sorted key
    # scan at the first key above v's
    elements = list(context(family, rank).elements())
    related = 0
    for u in elements:
        for v in elements:
            if bruhat_leq(u, v):
                assert u.bruhat_key <= v.bruhat_key, (u, v)
                related += 1
    assert len(elements) < related < len(elements) ** 2


@pytest.mark.parametrize("family", ["A", "B"])
def test_bruhat_agrees_with_lifting_walk_at_rank_bound(family):
    # at rank 16 a count of the tableau criterion reaches 2 * 16 = 32 in
    # type B, the widest value a field of the Bruhat key must hold
    ctx = context(family, 16)
    rng = random.Random(16)
    w0 = ctx.longest_element()

    def near_top():
        w = w0
        for i in rng.choices(range(1, 17), k=rng.randint(0, 12)):
            w = w.right_mult_generator(i)
        return w

    pairs = [(near_top(), near_top()) for _ in range(100)]
    for _ in range(100):
        v = near_top()
        letters = [i for i in reduced_letters(v) if rng.random() < 0.9]
        u = ctx.from_word(letters)
        assert bruhat_leq(u, v)
        pairs.append((u, v))
        pairs.append((u.right_mult_generator(rng.randint(1, 16)), v))
    verdicts = [bruhat_leq(u, v) for u, v in pairs]
    assert verdicts == [lifting_bruhat_leq(u, v) for u, v in pairs]
    assert 0 < sum(verdicts) < len(pairs)


def test_act_on_root_rejects_a_foreign_root():
    # a root system built outside context() has the same family and rank but
    # is another system: its roots are none of the context's
    foreign = RootSystem("B", 3).simple(1)
    with pytest.raises(ValueError):
        B3.identity.act_on_root(foreign)


def test_act_on_root_examples():
    system = root_system("B", 3)
    b1, b2 = system.simple(1), system.simple(2)
    assert B3.from_word([1]).act_on_root(b1) == -b1
    assert B3.from_word([2, 1, 2]).act_on_root(-b1) == -b1
    assert B3.from_word([1]).act_on_root(b2) == system.root((2, 1, 0))


def test_act_matches_composition_along_reduced_word():
    system = root_system("B", 3)
    for w in B3.elements():
        word = all_reduced_words(w)[0]
        for alpha in system.all_roots():
            image = alpha
            for letter in reversed(word.letters):
                # left-to-right product acts with the rightmost letter first
                image = B3.from_word([letter]).act_on_root(image)
            assert image == w.act_on_root(alpha)


def test_longest_element_flips_all_positive_roots():
    system = root_system("B", 3)
    w0 = B3.longest_element()
    images = {w0.act_on_root(r) for r in system.positive_roots}
    assert images == {-r for r in system.positive_roots}


def test_descents_window_rule_vs_length():
    for w in B3.elements():
        for i in (1, 2, 3):
            assert (w.descents >> i & 1) == (
                w.right_mult_generator(i).length < w.length
            )


def _window_successor(family, window, i):
    """The window of w t_i, computed from the window alone."""
    w = list(window)
    if family == "B" and i == 1:
        w[0] = -w[0]
    else:
        a = i - 2 if family == "B" else i - 1
        w[a], w[a + 1] = w[a + 1], w[a]
    return tuple(w)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4)])
def test_element_tables_are_consistent(family, rank):
    ctx = context(family, rank)
    system = root_system(family, rank)
    for w in ctx.elements():
        assert not w.descents & 1 and w.descents >> (rank + 1) == 0
        for i in range(1, rank + 1):
            u = w.right_mult_generator(i)
            assert w.succ[i] is u is ctx.from_window(_window_successor(family, w.window, i))
            u.right_mult_generator(i)
            assert w.succ[i].succ[i] is w
            assert bool(w.descents >> i & 1) == (u.length < w.length)
            image = w._simple_image(i)
            assert w.images[i] is image is w.act_on_root(system.simple(i))


def test_length_change_by_one():
    for w in B3.elements():
        for i in (1, 2, 3):
            assert abs(w.right_mult_generator(i).length - w.length) == 1


def test_length_additivity_iff_concatenation_reduced():
    ctx = context("B", 2)
    elements = list(ctx.elements())
    for u in elements:
        for v in elements:
            uv = _product(u, v)
            additive = uv.length == u.length + v.length
            assert uv.length <= u.length + v.length
            word = all_reduced_words(u)[0].letters + all_reduced_words(v)[0].letters
            concatenation_reduced = ctx.from_word(word).length == len(word)
            assert additive == concatenation_reduced


def test_reduced_word_validation():
    with pytest.raises(ValueError):
        ReducedWord(B3, (1, 1))
    word = parse_word(B3, "3,2,1,2,3,2,1,2,1")
    assert B3.from_word(word.letters) is B3.longest_element()
    assert parse_word(B3, "").letters == ()


def test_all_reduced_words():
    assert [w.letters for w in all_reduced_words(B3.identity)] == [()]
    a2_top = A2.longest_element()
    assert [w.letters for w in all_reduced_words(a2_top)] == [(1, 2, 1), (2, 1, 2)]
    b2 = context("B", 2)
    words = all_reduced_words(b2.longest_element())
    assert len(words) == 2
    # independent oracle: scan all letter sequences of the right length
    expected = {
        seq
        for seq in itertools.product((1, 2), repeat=4)
        if b2.from_word(seq) == b2.longest_element()
    }
    assert {w.letters for w in words} == expected


def test_all_reduced_words_bound():
    with pytest.raises(ValueError):
        all_reduced_words(context("B", 4).longest_element())  # length 16


def test_all_reduced_words_count_bound(monkeypatch):
    # eight commuting letters and one more: length 9, 9!/3 = 120,960 words
    b16 = context("B", 16)
    with pytest.raises(ValueError, match="reduced words to list"):
        all_reduced_words(b16.from_word([1, 3, 5, 7, 9, 11, 13, 15, 2]))
    # the bound is exact: w0 of B_3 has 42 words
    w0 = B3.longest_element()
    monkeypatch.setattr(weyl, "REDUCED_WORDS_COUNT_BOUND", 42)
    assert len(all_reduced_words(w0)) == 42
    monkeypatch.setattr(weyl, "REDUCED_WORDS_COUNT_BOUND", 41)
    with pytest.raises(ValueError, match="reduced words to list"):
        all_reduced_words(w0)


def test_serialization():
    w = B3.from_window((-1, 3, 2))
    assert w.serialize() == "-1,3,2"
    assert B3.parse_element("-1,3,2") == w
    assert B3.parse_element("e") == B3.identity
