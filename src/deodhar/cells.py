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
is not distinguished.  A descriptor is one record, the distinguished
subexpression itself with one more field: the root sequence ``phi``, the
roots ``gamma^i(-alpha_i)`` over the positions where ``gamma^i(alpha_i) > 0``,
which index the coordinates of the cell; those with ``gamma_i = 1`` carry
punctured-line coordinates (``free`` below).

Every consumer of the cells reads the distinguished masks through one walk
bounded by a count of masks rather than of letters: :func:`enumerate_below`
walks the masks below a list of gammas in the closure order defined next,
once for all of them, carrying at each node of the prefix trie the bitset
of the gammas still above it and cutting a subtree where that bitset
empties; :func:`enumerate_subexpressions` is that walk below the all-zeros
mask, which reaches every distinguished mask, and ``closure_upper_bound``
the walk below one gamma.  The walk yields the descriptor of each mask,
one record per leaf, sharing the phi entry of a trie node among all leaves
below it; :func:`cell` is the checked constructor for one mask.  A
descriptor is a subexpression, so it can be passed back as a gamma.
The linear consumers stream a walk under ``CELLS_BOUND``;
``cells_with_endpoint`` reads one table per word, the descriptors of one
walk grouped by endpoint.  The pairwise ones hold at most ``PAIRS_BOUND``
descriptors: ``hasse_dot`` and ``find_obstructions`` read
:func:`closure_pairs`, one walk below all of them, ``scan_disjointness``
compares each mask of one endpoint with the later ones.

Point counts walk no mask: :func:`point_count_polynomial` reads one table
per word, the number of cells of each endpoint and shape, which Deodhar's
recursion builds letter by letter over the partial products.  It keeps the
bound of the walks: a word with more than ``CELLS_BOUND`` masks is rejected.

A second partial order drives all closure bookkeeping: ``delta preceq gamma``
iff ``gamma^i <= delta^i`` in Bruhat order for every ``i``.  Note the
reversal: the *smaller* cell in this order has the *larger* partial products.
Closures satisfy ``closure(D_gamma) subset union of D_delta`` over
``delta preceq gamma``, which is only an upper bound.

The catalog at the end stores, as letters and mask strings, the known
reduced words and masks in type B that defeat the two optimistic
expectations one might have:

* ``closure-obstruction`` (any rank n >= 3): a 4n-4 letter word with two
  distinguished masks, one of cell dimension 2n and one of dimension 3n-3,
  related by the closure order.  For n >= 4 the deeper cell cannot lie in
  the closure of the shallower one, so the partition is not a stratification.
* ``disjointness`` (rank 3): two distinguished masks of the longest word
  with equal endpoint t_2 and dimension 6, comparable in the closure order,
  whose cells nevertheless have disjoint closures.  The certificate is a
  negative simple root missing from one coordinate sequence and forced
  nonzero in the other.
* ``disjointness-extended`` (rank n >= 4): the same pair transported to
  rank n by prefixing a mask of ``t_n ... t_2 t_1 t_2 ... t_n`` that
  multiplies to the identity; the cells then have dimension 2n+2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .laurent import LaurentPoly, Monomial
from .roots import Root
from .weyl import ReducedWord, WeylElement, bruhat_leq, context

# Most distinguished masks a linear consumer walks: cells_with_endpoint,
# the cells command and closure_upper_bound (there the masks below gamma).
# Their cost is about linear in the number of masks, the walk building one
# descriptor per mask: the cells command takes about 0.5-0.6 s with --json
# on the 13,066 masks of the rank-5 catalog word, most of it writing JSON,
# closure_upper_bound 0.03-0.05 s on the 5,167 masks below the rank-6
# catalog gamma, and the table of cells_with_endpoint 0.08-0.09 s and 9.8 MB
# on the rank-5 word.  point_count_polynomial walks no mask, since its
# recursion merges prefixes by partial product, but rejects a word with more
# masks too.
CELLS_BOUND = 15000
# Most distinguished masks a pairwise consumer holds: hasse_dot,
# find_obstructions and scan_disjointness (there per endpoint).  The first two
# read closure_pairs, one walk below all masks that streams one bitset per
# mask, and hasse_dot then takes the covering relation over the related
# pairs.  The walk compares keys once per depth and partial product met,
# against every gamma partial product of that depth, so its cost grows with
# the number of distinct partial products: hasse_dot takes about 0.1-0.2 s
# on the rank-4 catalog word (1,253 masks), 0.7-0.9 s on 2,048 masks and
# 2.4-3.5 s on 4,096 masks (the words 1, ..., n of B_11 and B_12, whose partial
# products are all distinct; the walk 0.4 and 1.8 s); find_obstructions
# 0.5-1.1 s and 49 MB on the 13,066 masks of the rank-5 catalog word, which
# has 8,995,017 related pairs of distinct masks (2-vCPU Xeon, Python 3.11.7).
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


_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def subexpression(word: ReducedWord, mask) -> Subexpression:
    """The checked constructor: a mask given as a 0/1 string or bit sequence
    of the word's length, with its partial products."""
    bits = tuple(map(_BITS.get, mask))
    if None in bits:
        pos = bits.index(None)
        raise ValueError(f"mask character {mask[pos]!r} at position {pos + 1} (expected 0 or 1)")
    if len(bits) != len(word):
        raise ValueError("mask length does not match the word")
    partials = [word.ctx.identity]
    for bit, letter in zip(bits, word.letters):
        prev = partials[-1]
        partials.append(prev.right_mult_generator(letter) if bit else prev)
    return Subexpression(word, bits, tuple(partials))


def enumerate_subexpressions(word: ReducedWord, bound: int) -> Iterator[CellDescriptor]:
    """The descriptors of the distinguished masks in increasing mask order:
    the walk of :func:`enumerate_below` under the all-zeros mask, which lies
    above every distinguished mask (its partial products are all e).  Raises
    ``ValueError`` on reaching mask number bound + 1, so at most ``bound``
    masks are ever yielded.

    >>> from deodhar.weyl import context, parse_word
    >>> w = parse_word(context("A", 2), "1,2,1")
    >>> [d.mask_string for d in enumerate_subexpressions(w, CELLS_BOUND)]
    ['000', '001', '010', '011', '101', '110', '111']
    """
    zeros = subexpression(word, [0] * len(word))
    return map(itemgetter(0), enumerate_below([zeros], bound))


def enumerate_below(
    gammas: Sequence[Subexpression], bound: int
) -> Iterator[tuple[CellDescriptor, int]]:
    """The descriptors of the distinguished masks delta below at least one of
    ``gammas`` in the closure order, in increasing mask order, each with
    ``alive``: the bitset of the indices a into ``gammas`` with
    delta preceq gammas[a].  Raises ``ValueError`` on reaching yielded mask
    number bound + 1.

    One depth-first walk over the prefix trie of distinguished masks,
    shared by all gammas: each node carries the bitset of the gammas still
    above its prefix, and a subtree is cut where that bitset empties.  By the
    lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7), if u <= w then
    min(u, us) <= min(w, ws) and max(u, us) <= max(w, ws), so from
    gamma^i <= delta^i the next relation gamma^{i+1} <= delta^{i+1} can fail
    only where gamma steps up, to max(gamma^i, gamma^i s_i), while delta
    steps down, to min(delta^i, delta^i s_i).  Only there are Bruhat keys
    compared, once per depth and element reached (:func:`_above_mask`).

    The descriptors are built along the walk.  Position i is in J(delta)
    exactly where delta takes an ascent, and then delta^i(alpha_i) < 0;
    elsewhere delta^i(alpha_i) > 0 and entry i of phi is its negative.  So
    each trie node makes its phi entry once, shared by every leaf below it,
    and a leaf only gathers its bits, partial products and entries;
    :func:`cell` computes the same descriptor from a single mask, and the
    test suite checks that the two routes agree.
    """
    if not gammas:
        return
    word = gammas[0].word
    if any(gamma.word != word for gamma in gammas):
        raise ValueError("subexpressions of different words are incomparable")
    letters = word.letters
    length = len(letters)
    size = len(gammas)
    # risers[k]: gamma^{k+1} -> the gammas that step up to it at position
    # k + 1, that is take an ascent or skip a descent
    risers: list[dict[WeylElement, list[int]]] = [{} for _ in range(length)]
    for a, gamma in enumerate(gammas):
        for k, (taken, before, after) in enumerate(
            zip(gamma.mask, gamma.partials, gamma.partials[1:])
        ):
            if taken != before.descents >> letters[k] & 1:
                risers[k].setdefault(after, []).append(a)
    keyed = [
        [(x.bruhat_key, _bitset(indices, size)) for x, indices in group.items()]
        for group in risers
    ]
    up = [reduce(or_, (bits for _, bits in group), 0) for group in keyed]
    # masks[k]: delta^{k+1} -> the gammas still below it after a down step
    masks: list[dict[WeylElement, int]] = [{} for _ in range(length)]
    identity = word.ctx.identity
    # the parts of the current prefix, by depth: its bits, its partial
    # products and its phi entries (None on J)
    mask = [0] * length
    partials = [identity] * (length + 1)
    entries: list[PhiEntry | None] = [None] * length
    count = 0
    new = object.__new__
    # pending trie nodes (depth, last bit, whether it took an ascent,
    # delta^depth, alive); a node pushes its 1-child first so that its
    # 0-child pops first
    stack = [(0, 0, 0, identity, (1 << size) - 1)]
    while stack:
        depth, bit, ascent, here, alive = stack.pop()
        if depth:
            k = depth - 1
            mask[k] = bit
            partials[depth] = here
            if ascent:
                entries[k] = None
            else:
                last = letters[k]
                image = here.images[last] or here._simple_image(last)
                entries[k] = PhiEntry(depth, -image, not bit)
        if depth == length:
            count += 1
            if count > bound:
                raise ValueError(f"more than {bound} distinguished masks to walk")
            # the frozen dataclass __init__ sets each field through
            # object.__setattr__; the walk's fields need no check
            desc = new(CellDescriptor)
            fields = desc.__dict__
            fields["word"], fields["mask"] = word, tuple(mask)
            fields["partials"], fields["phi"] = tuple(partials), tuple(filter(None, entries))
            yield desc, alive
            continue
        letter = letters[depth]
        taken = here.succ[letter] or here._successor(letter)
        # a forced descent takes the letter and steps down; otherwise taking
        # it steps up and skipping it steps down
        if here.descents >> letter & 1:
            down, bit = taken, 1
        else:
            down, bit = here, 0
            stack.append((depth + 1, 1, 1, taken, alive))
        if alive & up[depth]:
            table = masks[depth]
            kept = table.get(down)
            if kept is None:
                kept = table[down] = ~up[depth] | _above_mask(keyed[depth], down)
            alive &= kept
            if not alive:
                continue
        stack.append((depth + 1, bit, 0, down, alive))


def _bitset(indices: Iterable[int], size: int) -> int:
    """The bitset of ``indices``, all below ``size``; built in a buffer, as
    one shift and or per index would copy the growing bitset each time."""
    buffer = bytearray((size + 7) // 8)
    for a in indices:
        buffer[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(buffer, "little")


def _above_mask(groups: list[tuple[int, int]], x: WeylElement) -> int:
    """The union of the bitsets of ``groups``, pairs (Bruhat key of u,
    bitset), whose u lies below ``x`` in Bruhat order; the comparison of
    :func:`weyl.bruhat_leq`, one subtraction per pair."""
    guard = x.ctx._bruhat_guard
    top = x.bruhat_key | guard
    union = 0
    for key, bits in groups:
        if (top - key) & guard == guard:
            union |= bits
    return union


def is_distinguished(sub: Subexpression) -> bool:
    """A forced descent must take the letter: gamma^{i-1} s_i < gamma^{i-1}
    implies gamma_i = s_i."""
    for prev, letter, bit in zip(sub.partials, sub.word.letters, sub.mask):
        if prev.descents >> letter & 1 and not bit:
            return False
    return True


class PhiEntry(NamedTuple):
    """One coordinate of the canonical expression: position, root, and
    whether the coordinate ranges over the punctured line."""

    index: int
    root: Root
    free: bool


@dataclass(frozen=True)
class CellDescriptor(Subexpression):
    """One nonempty Deodhar cell: its distinguished subexpression and its
    root sequence ``phi``; build it with :func:`cell`.  The rest is derived:
    ``chosen_positions()`` is I, ``descents`` is J, the positions where
    gamma^i(alpha_i) < 0, which are exactly those with no phi entry,
    ``dimension`` is l - |J|, ``affine_rank`` |I| - |J| and ``torus_rank``
    l - |I|."""

    phi: tuple[PhiEntry, ...]

    @property
    def descents(self) -> tuple[int, ...]:
        present = {entry.index for entry in self.phi}
        return tuple(i for i in range(1, len(self) + 1) if i not in present)

    @property
    def dimension(self) -> int:
        return len(self.phi)

    @property
    def affine_rank(self) -> int:
        return sum(self.mask) - len(self) + len(self.phi)

    @property
    def torus_rank(self) -> int:
        return len(self) - sum(self.mask)


def cell(sub: Subexpression) -> CellDescriptor:
    """Compute the full descriptor of the cell indexed by ``sub``; raises
    ``ValueError`` if the mask is not distinguished (:func:`is_distinguished`),
    as its cell is empty.

    The root sequence is computed by acting on simple roots, independently of
    the window descent rule of ``descent_positions``; the test suite checks
    that the positions ``phi`` skips are that J.
    """
    if not is_distinguished(sub):
        raise ValueError(f"mask {sub.mask_string} is not distinguished: its cell is empty")
    phi = []
    for i, (partial, letter) in enumerate(zip(sub.partials[1:], sub.word.letters), start=1):
        image = partial.images[letter] or partial._simple_image(letter)
        if image.is_positive:
            phi.append(PhiEntry(i, -image, not sub.mask[i - 1]))
    return CellDescriptor(sub.word, sub.mask, sub.partials, tuple(phi))


def cells_with_endpoint(word: ReducedWord, v: WeylElement) -> list[CellDescriptor]:
    """Descriptors of the distinguished subexpressions with endpoint ``v``,
    in mask order; these are exactly the cells of one double Schubert cell.
    Read from the table of :func:`_cells_by_endpoint`, a new list per call;
    raises ``ValueError`` for an endpoint of another group."""
    if v.ctx is not word.ctx:
        raise ValueError("endpoint and word from different contexts")
    return list(_cells_by_endpoint(word).get(v, ()))


# Every caller asks for all endpoints of one word in a row (scan_disjointness
# over the double cells of a word), so one table is kept, as for
# endpoint_shapes.
@lru_cache(maxsize=1)
def _cells_by_endpoint(word: ReducedWord) -> dict[WeylElement, tuple[CellDescriptor, ...]]:
    """The descriptors of one walk over all distinguished masks, grouped by
    endpoint, each group in mask order."""
    groups: dict[WeylElement, list[CellDescriptor]] = {}
    for desc in enumerate_subexpressions(word, CELLS_BOUND):
        groups.setdefault(desc.endpoint, []).append(desc)
    return {v: tuple(descs) for v, descs in groups.items()}


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
    return [desc for desc, _ in enumerate_below([gamma], CELLS_BOUND)]


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
    :func:`endpoint_shapes`, which walks no mask; raises ``ValueError`` for
    an endpoint of another group.

    The open cell of ``1,2,1`` in A_2 has (q-1)^3 + q(q-1) points:

    >>> from deodhar.weyl import context; A2 = context("A", 2); print(
    ...     point_count_polynomial(ReducedWord(A2, (1, 2, 1)), A2.identity))
    -1 + 2*q - 2*q^2 + q^3
    """
    if v.ctx is not word.ctx:
        raise ValueError("endpoint and word from different contexts")
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
    carry the mask and the cell dimension.  The masks are held and one walk
    below all of them finds every related pair, so ``ValueError`` is raised
    for more than ``PAIRS_BOUND`` masks.
    """
    descs, stream = closure_pairs(word)
    above = list(stream)
    lines = ["digraph closure_order {", "  node [shape=box];"]
    for d in descs:
        lines.append(f'  "{d.mask_string}" [label="{d.mask_string} dim={d.dimension}"];')
    for a, da in enumerate(descs):
        # covering: b is above a with no c strictly between them
        between = 0
        for c in bit_indices(above[a]):
            between |= above[c]
        for b in bit_indices(above[a] & ~between):
            lines.append(f'  "{da.mask_string}" -> "{descs[b].mask_string}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def closure_pairs(word: ReducedWord) -> tuple[list[CellDescriptor], Iterator[int]]:
    """The descriptors of the distinguished masks of ``word`` in mask order,
    and a stream of bitsets, one per descriptor a in the same order: the b
    with b != a and a preceq b.  Each bitset holds only b < a: at the first
    position k where the masks of a and b differ, with common partial
    product x before it, if a skips the letter and b takes it then
    x s_k > x, as a is distinguished, and b^k = x s_k is not below
    a^k = x.  One walk below all the masks makes the stream, read as it is
    consumed; the masks are held, so ``ValueError`` is raised for more than
    ``PAIRS_BOUND`` of them."""
    descs = list(enumerate_subexpressions(word, PAIRS_BOUND))
    # the walk below every mask meets each mask once, in the same order, and
    # each mask a lies below itself
    walk = enumerate_below(descs, PAIRS_BOUND)
    return descs, (alive & ~(1 << a) for a, (_, alive) in enumerate(walk))


def bit_indices(bitset: int) -> Iterator[int]:
    """The set bits of ``bitset``, in increasing order."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def cell_to_obj(desc: CellDescriptor) -> dict:
    """JSON-ready form of a cell descriptor."""
    return {
        "mask": desc.mask_string,
        "end": desc.endpoint.serialize(),
        "I": list(desc.chosen_positions()),
        "J": list(desc.descents),
        "dim": desc.dimension,
        "affine": desc.affine_rank,
        "torus": desc.torus_rank,
        "phi": [phi_entry_to_obj(entry) for entry in desc.phi],
    }


def phi_entry_to_obj(entry: PhiEntry) -> dict:
    """JSON-ready form of one coordinate of the root sequence."""
    return {"i": entry.index, "root": list(entry.root.coeffs), "free": entry.free}


CLOSURE_OBSTRUCTION = "closure-obstruction"
DISJOINTNESS = "disjointness"
DISJOINTNESS_EXTENDED = "disjointness-extended"

# the disjointness pair: a reduced word of w0 in B_3 and its masks sigma, tau
_B3_W0 = (3, 2, 1, 2, 3, 2, 1, 2, 1)
_SIGMA, _TAU = "010101101", "011001011"


@dataclass(frozen=True)
class CatalogEntry:
    """A named word with its distinguished pair; ``second preceq first``."""

    name: str
    n: int
    first: Subexpression
    second: Subexpression

    @property
    def word(self) -> ReducedWord:
        return self.first.word


def catalog(name: str, n: int = 3) -> CatalogEntry:
    """Exact transliterations of the known counterexample words and masks."""
    if name == CLOSURE_OBSTRUCTION:
        if n < 3:
            raise ValueError("closure-obstruction needs n >= 3")
        block = tuple(range(n, 1, -1)) + (1,) + tuple(range(2, n))
        # gamma skips positions 1, n, 2n-1 and 3n-2, delta 1 and n+1..3n-3
        letters = block + block
        first = ("0" + "1" * (n - 2)) * 4
        second = "0" + "1" * (n - 1) + "0" * (2 * n - 3) + "1" * (n - 1)
    elif name == DISJOINTNESS:
        if n != 3:
            raise ValueError("disjointness is a rank 3 catalog entry")
        letters, first, second = _B3_W0, _SIGMA, _TAU
    elif name == DISJOINTNESS_EXTENDED:
        if n < 4:
            raise ValueError(
                "disjointness-extended needs n >= 4 (at n = 3 the prefixed "
                "word is no longer reduced)"
            )
        # eta takes both t_2 of t_n ... t_2 t_1 t_2 ... t_n: its product is e
        letters = tuple(range(n, 0, -1)) + tuple(range(2, n + 1)) + _B3_W0
        eta = "0" * (n - 2) + "101" + "0" * (n - 2)
        first, second = eta + _SIGMA, eta + _TAU
    else:
        raise ValueError(f"unknown catalog entry {name!r}")
    word = ReducedWord(context("B", n), letters)
    return CatalogEntry(name, n, subexpression(word, first), subexpression(word, second))
