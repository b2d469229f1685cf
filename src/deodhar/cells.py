"""Subexpressions of a reduced word and the cells they index.

Fix a reduced word ``w = s_1 ... s_l``.  A subexpression is a choice
``gamma_i in {1, s_i}`` per letter, stored as a 0/1 mask (leftmost character
is position 1), with the partial products ``gamma^0 = e, gamma^1, ...``
cached.  Deodhar's decomposition theorem attaches to each mask the sets

    I(gamma) = { i : gamma_i = s_i }
    J(gamma) = { i : gamma^i s_i < gamma^i }

and a locally closed piece of the double Schubert cell indexed by the
endpoint ``gamma^l``; the piece is nonempty iff J is contained in I,
equivalently iff the mask is distinguished (a forced descent
``gamma^{i-1} s_i < gamma^{i-1}`` always takes the letter), and is then a
product of ``|I| - |J|`` affine lines and ``l - |I|`` punctured lines.

Only a nonempty cell has a descriptor: :func:`cell` raises on a mask that
is not distinguished.  The coordinates of a nonempty cell are indexed by its
root sequence ``cell(sub).phi``, the roots ``gamma^i(-alpha_i)`` over the
positions where ``gamma^i(alpha_i) > 0``; those with ``gamma_i = 1`` carry
punctured-line coordinates (``free`` below).

Every consumer of the cells reads the distinguished masks through one walk
bounded by a count of masks rather than of letters: :func:`enumerate_below`
walks the masks below one gamma in the closure order defined next, cutting a
subtree of the prefix trie at the first position where the order fails, and
:func:`enumerate_subexpressions` is that walk below the all-zeros mask, which
reaches every distinguished mask.  The linear consumers stream a walk under
``CELLS_BOUND``.  The pairwise ones hold at most ``PAIRS_BOUND``
descriptors, one per mask: ``hasse_dot`` and ``find_obstructions`` walk the
masks below each of them, ``scan_disjointness`` compares every pair of one
endpoint.

Point counts walk no mask: :func:`point_count_polynomial` reads one table
per word, the number of cells of each endpoint and shape, which Deodhar's
recursion builds letter by letter over the partial products.  It keeps the
bound of the walks: a word with more than ``CELLS_BOUND`` masks is rejected.

A second partial order drives all closure bookkeeping: ``delta preceq gamma``
iff ``gamma^i <= delta^i`` in Bruhat order for every ``i``.  Note the
reversal: the *smaller* cell in this order has the *larger* partial products.
Closures satisfy ``closure(D_gamma) subset union of D_delta`` over
``delta preceq gamma``, which is only an upper bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator, Mapping

from .laurent import LaurentPoly, Monomial
from .roots import Root
from .weyl import ReducedWord, WeylElement, bruhat_leq

# Most distinguished masks a linear consumer walks: cells_with_endpoint,
# the cells command and closure_upper_bound (there the masks below gamma).
# Their cost is about linear in the number of masks: the cells command takes
# about 0.9 s with --json on the 13,066 masks of the rank-5 catalog word,
# closure_upper_bound 0.25 s on the 5,167 masks below the rank-6 catalog
# gamma.  point_count_polynomial
# walks no mask, since its recursion merges prefixes by partial product, but
# rejects a word with more masks too.
CELLS_BOUND = 15000
# Most distinguished masks a pairwise consumer holds: hasse_dot,
# find_obstructions and scan_disjointness (there per endpoint).  The first two
# walk the masks below each mask, so their cost grows with the number of
# related pairs: hasse_dot takes about 1.0 s on the rank-4 catalog word
# (1,253 masks), 1.7 s on 2,048 masks and 5.3 s on 4,096 masks (the words
# 1, ..., n of B_11 and B_12); find_obstructions 6.0 s on the 13,066 masks of
# the rank-5 catalog word (2-vCPU Xeon, medians of three runs).
# scan_disjointness compares every pair of one endpoint.
PAIRS_BOUND = 1300


@dataclass(frozen=True)
class Subexpression:
    """A mask over a fixed reduced word, with cached partial products; build
    it with :func:`subexpression`."""

    word: ReducedWord
    mask: tuple[int, ...]
    partials: tuple[WeylElement, ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.mask)

    @property
    def endpoint(self) -> WeylElement:
        return self.partials[-1]

    @property
    def mask_string(self) -> str:
        return "".join(str(bit) for bit in self.mask)

    def chosen_positions(self) -> tuple[int, ...]:
        """I(gamma), 1-based."""
        return tuple(i for i, bit in enumerate(self.mask, start=1) if bit)

    def descent_positions(self) -> tuple[int, ...]:
        """J(gamma), 1-based, via the window descent rule."""
        partials = self.partials
        return tuple(
            i
            for i, letter in enumerate(self.word.letters, start=1)
            if partials[i].descents >> letter & 1
        )

    def concat(self, other: "Subexpression") -> "Subexpression":
        """Concatenate words and masks (the combined word must be reduced)."""
        combined = ReducedWord(self.word.ctx, self.word.letters + other.word.letters)
        return subexpression(combined, self.mask + other.mask)


def subexpression(word: ReducedWord, mask) -> Subexpression:
    """The checked constructor: a mask given as a 0/1 string or bit sequence
    of the word's length, with its partial products."""
    bits = tuple(int(bit) for bit in mask)
    if len(bits) != len(word):
        raise ValueError("mask length does not match the word")
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("mask entries must be 0 or 1")
    partials = [word.ctx.identity]
    for bit, letter in zip(bits, word.letters):
        prev = partials[-1]
        partials.append(prev.right_mult_generator(letter) if bit else prev)
    return Subexpression(word, bits, tuple(partials))


def enumerate_subexpressions(word: ReducedWord, bound: int) -> Iterator[Subexpression]:
    """The distinguished masks in increasing mask order: the walk of
    :func:`enumerate_below` under the all-zeros mask, which lies above every
    distinguished mask (its partial products are all e).  Raises
    ``ValueError`` on reaching mask number bound + 1, so at most ``bound``
    masks are ever yielded.

    >>> from deodhar.weyl import context, parse_word
    >>> w = parse_word(context("A", 2), "1,2,1")
    >>> [s.mask_string for s in enumerate_subexpressions(w, CELLS_BOUND)]
    ['000', '001', '010', '011', '101', '110', '111']
    """
    return enumerate_below(subexpression(word, [0] * len(word)), bound)


def enumerate_below(
    gamma: Subexpression, bound: int, max_descents: int | None = None
) -> Iterator[Subexpression]:
    """The distinguished masks delta preceq gamma in increasing mask order,
    optionally only those with at most ``max_descents`` elements in J(delta).
    Raises ``ValueError`` on reaching yielded mask number bound + 1.

    A depth-first walk over the prefix trie of distinguished masks that cuts
    a whole subtree at the first i with gamma^i <= delta^i false.  J only
    grows along a prefix, by one exactly where a letter is taken without a
    forced descent, so the ceiling on |J| cuts subtrees too.  A floor e
    cuts nothing, and its test is skipped.
    """
    word, floors = gamma.word, gamma.partials
    letters = word.letters
    length = len(letters)
    ceiling = length if max_descents is None else max_descents
    identity = word.ctx.identity
    mask = [0] * length
    partials = [identity] * (length + 1)
    count = 0
    # pending trie nodes (depth, last bit, delta^depth, |J| of the prefix);
    # a node pushes its 1-child first so that its 0-child pops first
    stack = [(0, 0, identity, 0)]
    while stack:
        depth, bit, here, descents = stack.pop()
        if depth:
            mask[depth - 1] = bit
            partials[depth] = here
        if depth == length:
            count += 1
            if count > bound:
                raise ValueError(f"more than {bound} distinguished masks to walk")
            yield Subexpression(word, tuple(mask), tuple(partials))
            continue
        letter, floor = letters[depth], floors[depth + 1]
        if here.descents >> letter & 1:
            taken = here.succ[letter] or here._successor(letter)
            if floor is identity or bruhat_leq(floor, taken):
                stack.append((depth + 1, 1, taken, descents))
            continue
        if descents < ceiling:
            taken = here.succ[letter] or here._successor(letter)
            if floor is identity or bruhat_leq(floor, taken):
                stack.append((depth + 1, 1, taken, descents + 1))
        if floor is identity or bruhat_leq(floor, here):
            stack.append((depth + 1, 0, here, descents))


def is_distinguished(sub: Subexpression) -> bool:
    """A forced descent must take the letter: gamma^{i-1} s_i < gamma^{i-1}
    implies gamma_i = s_i."""
    for prev, letter, bit in zip(sub.partials, sub.word.letters, sub.mask):
        if prev.descents >> letter & 1 and not bit:
            return False
    return True


@dataclass(frozen=True)
class PhiEntry:
    """One coordinate of the canonical expression: position, root, and
    whether the coordinate ranges over the punctured line."""

    index: int
    root: Root
    free: bool


@dataclass(frozen=True)
class CellDescriptor:
    """All combinatorial data of one nonempty Deodhar cell; build it with
    :func:`cell`."""

    sub: Subexpression
    chosen: tuple[int, ...]
    descents: tuple[int, ...]
    affine_rank: int
    torus_rank: int
    dimension: int
    phi: tuple[PhiEntry, ...]

    @property
    def mask_string(self) -> str:
        return self.sub.mask_string


def cell(sub: Subexpression) -> CellDescriptor:
    """Compute the full descriptor of the cell indexed by ``sub``; raises
    ``ValueError`` if the mask is not distinguished, as its cell is empty.

    The mask is distinguished iff J is contained in I.  The root sequence is
    computed by acting on simple roots, independently of the window descent
    rule used for J; the test suite checks that the two routes agree.
    """
    chosen = sub.chosen_positions()
    descents = sub.descent_positions()
    if not all(sub.mask[i - 1] for i in descents):
        raise ValueError(f"mask {sub.mask_string} is not distinguished: its cell is empty")
    length = len(sub)
    phi = []
    for i, (partial, letter) in enumerate(zip(sub.partials[1:], sub.word.letters), start=1):
        image = partial.images[letter] or partial._simple_image(letter)
        if image.is_positive:
            phi.append(PhiEntry(index=i, root=-image, free=not sub.mask[i - 1]))
    return CellDescriptor(
        sub=sub,
        chosen=chosen,
        descents=descents,
        affine_rank=len(chosen) - len(descents),
        torus_rank=length - len(chosen),
        dimension=length - len(descents),
        phi=tuple(phi),
    )


def cells_with_endpoint(word: ReducedWord, v: WeylElement) -> list[CellDescriptor]:
    """Descriptors of the distinguished subexpressions with endpoint ``v``,
    in mask order; these are exactly the cells of one double Schubert cell."""
    return [
        cell(sub)
        for sub in enumerate_subexpressions(word, CELLS_BOUND)
        if sub.endpoint is v
    ]


def preceq(delta: Subexpression, gamma: Subexpression) -> bool:
    """The closure order: delta preceq gamma iff gamma^i <= delta^i for all i."""
    if delta.word != gamma.word:
        raise ValueError("subexpressions of different words are incomparable")
    return all(
        bruhat_leq(gamma.partials[i], delta.partials[i])
        for i in range(1, len(delta) + 1)
    )


def closure_upper_bound(gamma: Subexpression) -> list[CellDescriptor]:
    """Every distinguished delta with delta preceq gamma; the closure of the
    cell of ``gamma`` is contained in the union of their cells."""
    if not is_distinguished(gamma):
        raise ValueError("closure bounds are computed for distinguished masks")
    below = list(enumerate_below(gamma, CELLS_BOUND))  # raises before any cell
    return [cell(sub) for sub in below]


def point_count(shapes: Mapping[tuple[int, int], int]) -> LaurentPoly:
    """Sum of q^affine (q-1)^torus over cells, given as the number of cells
    of each (affine, torus) shape; (q-1)^torus is expanded by binomials into
    integer coefficients of the powers of q."""
    coeffs: dict[int, int] = {}
    for (affine, torus), count in shapes.items():
        for k in range(torus + 1):
            term = count * comb(torus, k) * (-1) ** (torus - k)
            coeffs[affine + k] = coeffs.get(affine + k, 0) + term
    return LaurentPoly({Monomial.of(q=e): c for e, c in coeffs.items()})


def point_count_polynomial(word: ReducedWord, v: WeylElement) -> LaurentPoly:
    """Sum of q^affine (q-1)^torus over the cells with endpoint ``v``;
    counts the F_q-points of the double Schubert cell.  Reads the table of
    :func:`endpoint_shapes`, which walks no mask.

    The open cell of ``1,2,1`` in A_2 has (q-1)^3 + q(q-1) points:

    >>> from deodhar.weyl import context; A2 = context("A", 2); print(
    ...     point_count_polynomial(ReducedWord(A2, (1, 2, 1)), A2.identity))
    -1 + 2*q - 2*q^2 + q^3
    """
    return point_count(endpoint_shapes(word).get(v, {}))


# Every caller asks for all endpoints of one word in a row (the census over
# reduced words, criteria 6 and 7, the cells command), so one table is kept.
@lru_cache(maxsize=1)
def endpoint_shapes(word: ReducedWord) -> dict[WeylElement, Counter]:
    """For each endpoint, the number of distinguished masks of each
    (affine, torus) shape, by Deodhar's recursion over the partial products:
    a forced descent takes the letter and adds an affine line; otherwise
    taking the letter keeps the shape (J grows) and skipping it adds a
    punctured line.  Raises ``ValueError`` once a layer would hold more than
    ``CELLS_BOUND`` distinguished prefixes; every distinguished prefix has an
    extension, so exactly when the word has more than ``CELLS_BOUND`` masks.
    """
    layer = {word.ctx.identity: Counter({(0, 0): 1})}
    for letter in word.letters:
        forced = {x: x.descents >> letter & 1 for x in layer}
        # counted before the next layer interns its partial products
        prefixes = sum(
            sum(shapes.values()) * (1 if forced[x] else 2) for x, shapes in layer.items()
        )
        if prefixes > CELLS_BOUND:
            raise ValueError(f"word has more than {CELLS_BOUND} distinguished masks")
        nxt: dict[WeylElement, Counter] = {}
        for x, shapes in layer.items():
            taken = nxt.setdefault(x.succ[letter] or x._successor(letter), Counter())
            if forced[x]:
                taken.update({(a + 1, t): n for (a, t), n in shapes.items()})
            else:
                taken.update(shapes)
                skipped = nxt.setdefault(x, Counter())
                skipped.update({(a, t + 1): n for (a, t), n in shapes.items()})
        layer = nxt
    return layer


def hasse_dot(word: ReducedWord) -> str:
    """DOT digraph of the covering relation of preceq on distinguished masks.

    Edges point from the preceq-smaller mask to the larger one; node labels
    carry the mask and the cell dimension.  The masks are held and each one
    walks the masks below it, so ``ValueError`` is raised for more than
    ``PAIRS_BOUND`` masks.
    """
    descs = [cell(sub) for sub in enumerate_subexpressions(word, PAIRS_BOUND)]
    index = {d.sub.mask: a for a, d in enumerate(descs)}
    # above[a]: bitset of the b != a with a preceq b
    above = [0] * len(descs)
    for b, db in enumerate(descs):
        for sub in enumerate_below(db.sub, PAIRS_BOUND):
            a = index[sub.mask]
            if a != b:
                above[a] |= 1 << b
    lines = ["digraph closure_order {", "  node [shape=box];"]
    for d in descs:
        lines.append(f'  "{d.mask_string}" [label="{d.mask_string} dim={d.dimension}"];')
    for a, da in enumerate(descs):
        # covering: b is above a with no c strictly between them
        between = 0
        for c in _bits(above[a]):
            between |= above[c]
        for b in _bits(above[a] & ~between):
            lines.append(f'  "{da.mask_string}" -> "{descs[b].mask_string}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _bits(bitset: int) -> Iterator[int]:
    """The set bits of ``bitset``, in increasing order."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def cell_to_obj(desc: CellDescriptor) -> dict:
    """JSON-ready form of a cell descriptor."""
    return {
        "mask": desc.mask_string,
        "end": desc.sub.endpoint.serialize(),
        "I": list(desc.chosen),
        "J": list(desc.descents),
        "dim": desc.dimension,
        "affine": desc.affine_rank,
        "torus": desc.torus_rank,
        "phi": [phi_entry_to_obj(entry) for entry in desc.phi],
    }


def phi_entry_to_obj(entry: PhiEntry) -> dict:
    """JSON-ready form of one coordinate of the root sequence."""
    return {"i": entry.index, "root": list(entry.root.coeffs), "free": entry.free}
