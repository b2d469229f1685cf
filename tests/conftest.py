import random
from functools import cache
from itertools import product

import pytest

from deodhar.cells import Subexpression, subexpression
from deodhar.chevalley import Factor, UnipotentWord
from deodhar.laurent import LaurentPoly
from deodhar.roots import root_system
from deodhar.weyl import WeylElement, bruhat_leq

# pass/fail lines registered by the acceptance module, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def reduced_letters(v: WeylElement) -> list[int]:
    """A reduced word of v, found by peeling its lowest right descent."""
    letters = []
    while v is not v.ctx.identity:
        i = v.right_descents()[0]
        letters.append(i)
        v = v.right_mult_generator(i)
    return letters[::-1]


@cache
def by_ambient(system) -> dict:
    """The roots of ``system`` by their ambient vectors."""
    return {r.ambient: r for r in system.roots}


def act_on_root(w: WeylElement, root):
    """The image of ``root`` under ``w``, by the linear action on ambient
    coordinates: e_k goes to sign(w(k)) e_|w(k)|.  The oracle of the
    simple-image table of ``roots``, which reads only two window entries."""
    system = root.system
    assert (w.ctx.family, w.ctx.rank) == (system.family, system.rank)
    moved = [0] * len(root.ambient)
    for k, v in enumerate(root.ambient):
        if v:
            image = w.window[k]
            moved[abs(image) - 1] += v if image > 0 else -v
    return by_ambient(system)[tuple(moved)]


def subword_lower_set(v: WeylElement) -> set[WeylElement]:
    """The u <= v, as the products of the subwords of one reduced word of v.

    Independent of the tableau criterion: dynamic programming over the set
    of subword products.
    """
    reachable = {v.ctx.identity}
    for letter in reduced_letters(v):
        reachable |= {x.right_mult_generator(letter) for x in reachable}
    return reachable


def lifting_bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """u <= v by the lifting property, one chain of length(v) steps.

    For the lowest right descent i of v: if i is also a descent of u then
    u <= v iff u t_i <= v t_i, otherwise iff u <= v t_i; and u <= e iff
    u = e.  No length is compared, so no step computes one.
    """
    while not (u is v or u is u.ctx.identity):
        if v is v.ctx.identity:
            return False
        i = v.right_descents()[0]
        v = v.right_mult_generator(i)
        if u.descents >> i & 1:
            u = u.right_mult_generator(i)
    return True


def preceq_by_depth(descriptors) -> tuple[list[int], list[int]]:
    """The whole closure order among ``descriptors``, from its definition:
    delta preceq gamma iff gamma^i <= delta^i at every depth i.  Each depth
    compares each pair of its distinct partial products once; a bit survives
    the AND over all depths only for a related pair.  Returns, per
    descriptor k, the bitset of the d with d preceq k and the bitset of the
    d with k preceq d, k itself included in both."""
    size = len(descriptors)
    below, above = [(1 << size) - 1] * size, [(1 << size) - 1] * size
    for i in range(1, len(descriptors[0]) + 1):
        holders = {}  # partial product at depth i -> bitset of its descriptors
        for k, d in enumerate(descriptors):
            holders[d.partials[i]] = holders.get(d.partials[i], 0) | 1 << k
        geq = dict.fromkeys(holders, 0)  # x -> the holders of some y >= x
        leq = dict.fromkeys(holders, 0)  # y -> the holders of some x <= y
        for x, held_x in holders.items():
            for y, held_y in holders.items():
                if x is y or bruhat_leq(x, y):
                    geq[x] |= held_y
                    leq[y] |= held_x
        for k, d in enumerate(descriptors):
            below[k] &= geq[d.partials[i]]
            above[k] &= leq[d.partials[i]]
    return below, above


def all_subexpressions(word) -> list[Subexpression]:
    """All 2^l masks of a word in increasing mask order, distinguished or
    not, each built by the checked constructor."""
    return [subexpression(word, bits) for bits in product((0, 1), repeat=len(word))]


def random_unipotent_word(ctx, rng: random.Random, max_factors: int = 8) -> UnipotentWord:
    """A random word with integer coefficients in {-3..3} \\ {0}."""
    negatives = [r for r in root_system(ctx.family, ctx.rank).all_roots() if not r.is_positive]
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        coeff = rng.choice([c for c in range(-3, 4) if c])
        factors.append(Factor(rng.choice(negatives), LaurentPoly.constant(coeff)))
    return UnipotentWord(tuple(factors))


def reduce_mod(m, prime):
    """The sparse matrix ``m`` of deodhar.linalg with its entries reduced
    modulo ``prime``, zero entries and empty rows dropped; ``m`` itself when
    there is no prime."""
    if prime is None:
        return m
    reduced = {i: {j: v % prime for j, v in row.items() if v % prime} for i, row in m.items()}
    return {i: row for i, row in reduced.items() if row}


# -- frozen expected coordinate-root lists for the type B catalog words ------


def expected_neg_phi_first(n):
    """Shallower cell of the closure-obstruction pair: the block
    (b_n; b_1+..+b_{n-1}; b_2+..+b_{n-1}; ...; b_{n-1}) printed twice."""
    system = root_system("B", n)
    block = [system.root(tuple(1 if j == n - 1 else 0 for j in range(n)))]
    for start in range(1, n):
        block.append(
            system.root(tuple(1 if start - 1 <= j <= n - 2 else 0 for j in range(n)))
        )
    return block + block


def expected_neg_phi_second(n):
    """Deeper cell of the closure-obstruction pair, verbatim:
    (b_n; 2b_1+b_2+..+b_{n-1}; b_2; ..; b_{n-2}; b_{n-1}+b_n; b_{n-2}; ..; b_2;
    2b_1+b_2+..+b_{n-1}; b_1+..+b_{n-1}; b_2+..+b_{n-1}; ..; b_{n-1})."""
    system = root_system("B", n)

    def chain(i, j):
        return system.root(tuple(1 if i - 1 <= k <= j - 1 else 0 for k in range(n)))

    doubled_head = system.root(
        tuple(2 if k == 0 else (1 if k <= n - 2 else 0) for k in range(n))
    )
    out = [chain(n, n), doubled_head]
    out += [chain(k, k) for k in range(2, n - 1)]
    out.append(chain(n - 1, n))
    out += [chain(k, k) for k in range(n - 2, 1, -1)]
    out.append(doubled_head)
    out += [chain(k, n - 1) for k in range(1, n)]
    return out


def expected_neg_phi_sigma():
    """(b_3; b_1+b_2; b_2; b_3; 2b_1+b_2; b_1+b_2)"""
    r = root_system("B", 3).root
    return [r((0, 0, 1)), r((1, 1, 0)), r((0, 1, 0)),
            r((0, 0, 1)), r((2, 1, 0)), r((1, 1, 0))]


def expected_neg_phi_tau():
    """(b_3; 2b_1+b_2; b_2+b_3; b_1; 2b_1+b_2; b_1+b_2)"""
    r = root_system("B", 3).root
    return [r((0, 0, 1)), r((2, 1, 0)), r((0, 1, 1)),
            r((1, 0, 0)), r((2, 1, 0)), r((1, 1, 0))]


@pytest.fixture
def rng():
    return random.Random(20250808)
