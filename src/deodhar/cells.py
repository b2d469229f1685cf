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

Every consumer reads the distinguished masks through a walk bounded by a
count of masks rather than of letters.  :func:`enumerate_subexpressions`
walks all of them; :func:`enumerate_below` walks only those below one gamma
in the closure order defined next, cutting a subtree of the prefix trie at
the first position where the order fails.  The linear consumers stream a walk
under ``CELLS_BOUND``.  The pairwise ones hold at most ``PAIRS_BOUND``
descriptors, one per mask: ``hasse_dot`` and ``find_obstructions`` walk the
masks below each of them, ``scan_disjointness`` compares every pair of one
endpoint.

A second partial order drives all closure bookkeeping: ``delta preceq gamma``
iff ``gamma^i <= delta^i`` in Bruhat order for every ``i``.  Note the
reversal: the *smaller* cell in this order has the *larger* partial products.
Closures satisfy ``closure(D_gamma) subset union of D_delta`` over
``delta preceq gamma``, which is only an upper bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .laurent import LaurentPoly
from .roots import Root
from .weyl import ReducedWord, WeylElement, bruhat_leq

# Most distinguished masks a linear consumer walks: cells_with_endpoint,
# point_count_polynomial, the cells command and closure_upper_bound (there
# the masks below gamma).  Their cost is about linear in the number of masks:
# the cells command takes about 3 s with --json on the 13,066 masks of the
# rank-5 catalog word and 9 s on 15,000 masks of a 24-letter word in B_16;
# closure_upper_bound 1.3 s on the 5,167 masks below the rank-6 catalog gamma.
CELLS_BOUND = 15000
# Most distinguished masks a pairwise consumer holds: hasse_dot,
# find_obstructions and scan_disjointness (there per endpoint).  The first two
# walk the masks below each mask, so their cost grows with the number of
# related pairs: hasse_dot takes about 2.2 s on the rank-4 catalog word (1,253
# masks), 4.1 s on 2,048 masks and 12.5 s on 4,096 masks (the words 1, ..., n
# of B_11 and B_12); find_obstructions 12 s on the 13,066 masks of the rank-5
# catalog word.  scan_disjointness compares every pair of one endpoint.
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
        return tuple(
            i
            for i, letter in enumerate(self.word.letters, start=1)
            if self.partials[i].has_right_descent(letter)
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
    """The distinguished masks in increasing mask order, depth first: a
    forced descent only takes the letter.  Raises ``ValueError`` on reaching
    mask number bound + 1, so at most ``bound`` masks are ever yielded.

    >>> from deodhar.weyl import context, parse_word
    >>> w = parse_word(context("A", 2), "1,2,1")
    >>> [s.mask_string for s in enumerate_subexpressions(w, CELLS_BOUND)]
    ['000', '001', '010', '011', '101', '110', '111']
    """
    letters = word.letters
    mask: list[int] = []
    partials: list[WeylElement] = [word.ctx.identity]
    count = 0
    while True:
        # descend along the smallest allowed bits
        while len(mask) < len(letters):
            prev, letter = partials[-1], letters[len(mask)]
            if prev.has_right_descent(letter):
                mask.append(1)
                partials.append(prev.right_mult_generator(letter))
            else:
                mask.append(0)
                partials.append(prev)
        count += 1
        if count > bound:
            raise ValueError(f"word has more than {bound} distinguished masks")
        yield Subexpression(word, tuple(mask), tuple(partials))
        # backtrack past the trailing 1s, then take the letter of the last 0
        while mask and mask[-1]:
            mask.pop()
            partials.pop()
        if not mask:
            return
        mask[-1] = 1
        partials[-1] = partials[-2].right_mult_generator(letters[len(mask) - 1])


def enumerate_below(
    gamma: Subexpression, bound: int, max_descents: int | None = None
) -> Iterator[Subexpression]:
    """The distinguished masks delta preceq gamma in increasing mask order,
    optionally only those with at most ``max_descents`` elements in J(delta).
    Raises ``ValueError`` on reaching yielded mask number bound + 1.

    A depth-first walk over the prefix trie of distinguished masks that cuts
    a whole subtree at the first i with gamma^i <= delta^i false.  J only
    grows along a prefix, by one exactly where a letter is taken without a
    forced descent, so the ceiling on |J| cuts subtrees too.  It is a
    generator of its own so that the unpruned walk keeps its per-node cost.
    """
    word, floors = gamma.word, gamma.partials
    letters = word.letters
    length = len(letters)
    ceiling = length if max_descents is None else max_descents
    mask = [0] * length
    partials = [word.ctx.identity] * (length + 1)
    count = 0
    # pending trie nodes (depth, last bit, delta^depth, |J| of the prefix);
    # a node pushes its 1-child first so that its 0-child pops first
    stack = [(0, 0, word.ctx.identity, 0)]
    while stack:
        depth, bit, here, descents = stack.pop()
        if depth:
            mask[depth - 1] = bit
            partials[depth] = here
        if depth == length:
            count += 1
            if count > bound:
                raise ValueError(f"more than {bound} distinguished masks lie below gamma")
            yield Subexpression(word, tuple(mask), tuple(partials))
            continue
        letter, floor = letters[depth], floors[depth + 1]
        if here.has_right_descent(letter):
            taken = here.right_mult_generator(letter)
            if bruhat_leq(floor, taken):
                stack.append((depth + 1, 1, taken, descents))
            continue
        if descents < ceiling:
            taken = here.right_mult_generator(letter)
            if bruhat_leq(floor, taken):
                stack.append((depth + 1, 1, taken, descents + 1))
        if bruhat_leq(floor, here):
            stack.append((depth + 1, 0, here, descents))


def is_distinguished(sub: Subexpression) -> bool:
    """A forced descent must take the letter: gamma^{i-1} s_i < gamma^{i-1}
    implies gamma_i = s_i."""
    for i, letter in enumerate(sub.word.letters, start=1):
        if sub.partials[i - 1].has_right_descent(letter) and not sub.mask[i - 1]:
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
    for i in range(1, length + 1):
        image = sub.partials[i].act_on_root(sub.word.simple_root(i))
        if image.is_positive:
            phi.append(PhiEntry(index=i, root=-image, free=i not in chosen))
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
    of each (affine, torus) shape."""
    q = LaurentPoly.variable("q")
    q_minus_1 = q - LaurentPoly.one()
    total = LaurentPoly.zero()
    for (affine, torus), count in shapes.items():
        total = total + count * q ** affine * q_minus_1 ** torus
    return total


def point_count_polynomial(word: ReducedWord, v: WeylElement) -> LaurentPoly:
    """Sum of q^affine (q-1)^torus over the cells with endpoint ``v``;
    counts the F_q-points of the double Schubert cell."""
    return point_count(
        Counter((d.affine_rank, d.torus_rank) for d in cells_with_endpoint(word, v))
    )


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
