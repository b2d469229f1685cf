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

The coordinates of a nonempty cell are indexed by the root sequence
``(gamma^i(-alpha_i))`` over the positions where ``gamma^i(alpha_i) > 0``;
those with ``gamma_i = 1`` carry punctured-line coordinates (``free`` below).

A second partial order drives all closure bookkeeping: ``delta preceq gamma``
iff ``gamma^i <= delta^i`` in Bruhat order for every ``i``.  Note the
reversal: the *smaller* cell in this order has the *larger* partial products.
Closures satisfy ``closure(D_gamma) subset union of D_delta`` over
``delta preceq gamma``, which is only an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .laurent import LaurentPoly
from .roots import Root
from .weyl import ReducedWord, WeylElement, bruhat_leq

ENUMERATION_BOUND = 24
# Most distinguished masks hasse_dot accepts.  It compares every pair of them,
# so the cost grows with the square of their number: 927 masks take about
# 10 s, the rank-4 catalog word (1,253 masks) about 20 s, 1,588 masks 31 s,
# 2,048 masks 46 s and 4,096 masks 164 s.
HASSE_BOUND = 1300
# Most distinguished masks the cells command lists.  Its cost is about linear
# in their number: 13,066 masks of the rank-5 catalog word take 2.5 s, 15,000
# masks of a 24-letter word in B_16 take 9-10 s with --json.
CELLS_BOUND = 15000


@dataclass(frozen=True)
class Subexpression:
    """A mask over a fixed reduced word, with cached partial products."""

    word: ReducedWord
    mask: tuple[int, ...]
    partials: tuple[WeylElement, ...] = field(compare=False, repr=False, default=())

    def __post_init__(self):
        if len(self.mask) != len(self.word):
            raise ValueError("mask length does not match the word")
        if any(bit not in (0, 1) for bit in self.mask):
            raise ValueError("mask entries must be 0 or 1")
        if not self.partials:
            partials = [self.word.ctx.identity]
            for bit, letter in zip(self.mask, self.word.letters):
                prev = partials[-1]
                partials.append(prev.right_mult_generator(letter) if bit else prev)
            object.__setattr__(self, "partials", tuple(partials))

    def __len__(self) -> int:
        return len(self.mask)

    @property
    def endpoint(self) -> WeylElement:
        return self.partials[-1]

    @property
    def mask_string(self) -> str:
        return "".join(str(bit) for bit in self.mask)

    @property
    def mask_int(self) -> int:
        return int(self.mask_string, 2) if self.mask else 0

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
        return Subexpression(combined, self.mask + other.mask)


def subexpression(word: ReducedWord, mask) -> Subexpression:
    """Build a subexpression from a mask given as string or bit sequence."""
    if isinstance(mask, str):
        bits = tuple(int(ch) for ch in mask)
    else:
        bits = tuple(int(b) for b in mask)
    return Subexpression(word, bits)


def enumerate_subexpressions(
    word: ReducedWord, distinguished_only: bool = False
) -> Iterator[Subexpression]:
    """All 2^l masks in increasing mask order (or only the distinguished ones).

    >>> from deodhar.weyl import context, parse_word
    >>> w = parse_word(context("A", 2), "1,2,1")
    >>> len(list(enumerate_subexpressions(w)))
    8
    """
    if len(word) > ENUMERATION_BOUND:
        raise ValueError(f"word length {len(word)} exceeds {ENUMERATION_BOUND}")
    letters = word.letters
    mask: list[int] = []
    partials: list[WeylElement] = [word.ctx.identity]

    def rec(pos: int) -> Iterator[Subexpression]:
        if pos == len(letters):
            yield Subexpression(word, tuple(mask), tuple(partials))
            return
        letter = letters[pos]
        prev = partials[-1]
        if not (distinguished_only and prev.has_right_descent(letter)):
            mask.append(0)
            partials.append(prev)
            yield from rec(pos + 1)
            mask.pop()
            partials.pop()
        mask.append(1)
        partials.append(prev.right_mult_generator(letter))
        yield from rec(pos + 1)
        mask.pop()
        partials.pop()

    yield from rec(0)


def distinguished_masks(word: ReducedWord, bound: int) -> list[Subexpression]:
    """The distinguished masks in increasing mask order; ``ValueError`` if
    there are more than ``bound`` of them (only bound + 1 are enumerated)."""
    masks = enumerate_subexpressions(word, distinguished_only=True)
    subs = list(islice(masks, bound + 1))
    if len(subs) > bound:
        raise ValueError(f"word has more than {bound} distinguished masks")
    return subs


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
    """All combinatorial data of one Deodhar cell."""

    sub: Subexpression
    chosen: tuple[int, ...]
    descents: tuple[int, ...]
    distinguished: bool
    affine_rank: int
    torus_rank: int
    dimension: int
    endpoint: WeylElement
    phi: tuple[PhiEntry, ...]

    @property
    def mask_string(self) -> str:
        return self.sub.mask_string


def cell(sub: Subexpression) -> CellDescriptor:
    """Compute the full descriptor of the cell indexed by ``sub``.

    The root sequence is computed by acting on simple roots, independently of
    the window descent rule used for J; the test suite checks that the two
    routes agree.
    """
    chosen = sub.chosen_positions()
    descents = sub.descent_positions()
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
        distinguished=is_distinguished(sub),
        affine_rank=len(chosen) - len(descents),
        torus_rank=length - len(chosen),
        dimension=length - len(descents),
        endpoint=sub.endpoint,
        phi=tuple(phi),
    )


def root_sequence(sub: Subexpression) -> tuple[PhiEntry, ...]:
    """The ordered coordinate roots of a distinguished subexpression."""
    if not is_distinguished(sub):
        raise ValueError("root sequence is only defined for distinguished masks")
    return cell(sub).phi


def cells_with_endpoint(word: ReducedWord, v: WeylElement) -> list[CellDescriptor]:
    """Descriptors of the distinguished subexpressions with endpoint ``v``,
    in mask order; these are exactly the cells of one double Schubert cell."""
    return [
        cell(sub)
        for sub in enumerate_subexpressions(word, distinguished_only=True)
        if sub.endpoint == v
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
    return [
        cell(sub)
        for sub in enumerate_subexpressions(gamma.word, distinguished_only=True)
        if preceq(sub, gamma)
    ]


def point_count_polynomial(word: ReducedWord, v: WeylElement) -> LaurentPoly:
    """Sum of q^affine (q-1)^torus over the cells with endpoint ``v``;
    counts the F_q-points of the double Schubert cell."""
    q = LaurentPoly.variable("q")
    q_minus_1 = q - LaurentPoly.one()
    total = LaurentPoly.zero()
    for desc in cells_with_endpoint(word, v):
        total = total + q ** desc.affine_rank * q_minus_1 ** desc.torus_rank
    return total


def hasse_dot(word: ReducedWord) -> str:
    """DOT digraph of the covering relation of preceq on distinguished masks.

    Edges point from the preceq-smaller mask to the larger one; node labels
    carry the mask and the cell dimension.
    """
    subs = distinguished_masks(word, HASSE_BOUND)
    above: dict[int, set[int]] = {}
    for a, da in enumerate(subs):
        above[a] = {
            b for b, db in enumerate(subs) if a != b and preceq(da, db)
        }
    lines = ["digraph closure_order {", "  node [shape=box];"]
    for sub in subs:
        dim = len(sub) - len(sub.descent_positions())
        lines.append(f'  "{sub.mask_string}" [label="{sub.mask_string} dim={dim}"];')
    for a, da in enumerate(subs):
        for b in sorted(above[a]):
            # covering: no c strictly between a and b
            if not any(b in above[c] for c in above[a] if c != b):
                lines.append(f'  "{da.mask_string}" -> "{subs[b].mask_string}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cell_to_obj(desc: CellDescriptor) -> dict:
    """JSON-ready form of a cell descriptor."""
    return {
        "mask": desc.mask_string,
        "end": desc.endpoint.serialize(),
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
