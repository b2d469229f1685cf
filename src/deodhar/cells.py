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
walks the masks below one gamma in the closure order defined next, cutting
a subtree where a Bruhat comparison with gamma's partial product fails;
:func:`enumerate_subexpressions` is that walk below the all-zeros mask,
which reaches every distinguished mask, and ``closure_upper_bound`` the
walk below a distinguished gamma.  The walk yields the descriptor of each
mask, one record per leaf, sharing the phi entry of a trie node among all
leaves below it; :func:`cell` is the checked constructor for one mask.  A
descriptor is a subexpression, so it can be passed back as a gamma.
The linear consumers stream a walk under ``CELLS_BOUND``.  The pairwise ones
hold at most ``PAIRS_BOUND`` descriptors and read one relation,
:func:`closure_relation`, among the masks of a mask-ordered list from their
partial products: ``hasse_dot`` and ``find_obstructions`` over a whole word
through :func:`closure_pairs`, ``scan_disjointness`` over the masks of one
endpoint.

Point counts walk no mask: :func:`point_count_polynomial` reads one table
per word, :func:`endpoint_counts`, the number of masks of each endpoint and
the integer coefficients of its point count, which Deodhar's recursion
builds letter by letter over the partial products.  It keeps the bound of
the walks: a word with more than ``CELLS_BOUND`` masks is rejected.

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

from functools import cache, lru_cache, reduce
from itertools import compress, count
from operator import add, ne, or_, sub
from typing import Iterator, NamedTuple

from .laurent import LaurentPoly, Monomial
from .roots import Root, root_system
from .weyl import ReducedWord, WeylElement, bruhat_leq, context

# Most distinguished masks a linear consumer walks: the cells command,
# closure_upper_bound (there the masks below gamma) and the double-cell table
# of scan_disjointness.  Their cost is about linear in the number of masks,
# the walk building one descriptor per mask: the cells command takes about
# 0.5-0.6 s with --json on the 13,066 masks of the rank-5 catalog word, most
# of it writing JSON, closure_upper_bound 0.05-0.12 s on the 5,167 masks
# below the rank-6 catalog gamma, and the double-cell table 0.55-0.62 s and
# 9.2 MB on the rank-5 word, most of it the relations of its endpoints.
# endpoint_counts walks no mask, since its recursion merges prefixes by
# partial product into one integer row each, but rejects a word with more
# masks too: it takes 0.01-0.02 s on the rank-5 catalog word.
CELLS_BOUND = 15000
# Most distinguished masks a pairwise consumer holds: hasse_dot,
# find_obstructions and scan_disjointness (there per endpoint).  All three
# read closure_relation, whose key comparisons stop at the sorted key of
# each memo miss: in a fresh process hasse_dot takes about 0.05 s on the
# rank-4 catalog word (1,253 masks), 0.11 s on 2,048 masks and 0.3 s on
# 4,096 masks (the words 1, ..., n of B_11 and B_12, whose partial products
# are all distinct, and whose scans stop before any comparison);
# find_obstructions 0.32-0.33 s and 38 MB on the 13,066 masks of the rank-5
# catalog word, which has 8,995,017 related pairs of distinct masks and
# makes 0.70M key comparisons (2-vCPU Xeon, Python 3.11.7).
PAIRS_BOUND = 1300


class Subexpression:
    """A mask over a fixed reduced word, with cached partial products; build
    it with :func:`subexpression`.  Immutable; two subexpressions are equal
    when their word and mask are, and a descriptor equals only descriptors."""

    __slots__ = ("word", "mask", "partials")

    def __init__(self, word: ReducedWord, mask: tuple[int, ...],
                 partials: tuple[WeylElement, ...]):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "partials", partials)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.word == other.word and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.word, self.mask))

    def __repr__(self) -> str:
        return f"Subexpression(word={self.word!r}, mask={self.mask!r})"

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
    return enumerate_below(subexpression(word, [0] * len(word)), bound)


def enumerate_below(gamma: Subexpression, bound: int) -> Iterator[CellDescriptor]:
    """The descriptors of the distinguished masks delta with delta preceq
    ``gamma`` in the closure order, in increasing mask order; ``gamma`` need
    not be distinguished.  Raises ``ValueError`` on reaching yielded mask
    number bound + 1.

    One depth-first walk over the prefix trie of distinguished masks that
    cuts a subtree where its prefix leaves the masks below gamma.  By the
    lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7), if u <= w then
    min(u, us) <= min(w, ws) and max(u, us) <= max(w, ws), so from
    gamma^i <= delta^i the next relation gamma^{i+1} <= delta^{i+1} can fail
    only where gamma steps up, to max(gamma^i, gamma^i s_i), while delta
    steps down, to min(delta^i, delta^i s_i).  Only there is
    :func:`weyl.bruhat_leq` called, once per down child met.

    The descriptors are built along the walk.  Position i is in J(delta)
    exactly where delta takes an ascent, and then delta^i(alpha_i) < 0;
    elsewhere delta^i(alpha_i) > 0 and entry i of phi is its negative.  So
    each trie node makes its phi entry once, shared by every leaf below it,
    and a leaf only gathers its bits, partial products and entries;
    :func:`cell` computes the same descriptor from a single mask, and the
    test suite checks that the two routes agree.
    """
    word = gamma.word
    letters = word.letters
    length = len(letters)
    # rises[k]: gamma^{k+1} where gamma steps up at position k + 1, that is
    # takes an ascent or skips a descent; None where it steps down
    rises = [
        after if taken != before.descents >> letter & 1 else None
        for taken, before, after, letter in zip(
            gamma.mask, gamma.partials, gamma.partials[1:], letters
        )
    ]
    identity = word.ctx.identity
    image_table = root_system(word.ctx.family, word.ctx.rank).simple_image_table
    # the parts of the current prefix, by depth: its bits, its partial
    # products and its phi entries (None on J)
    mask = [0] * length
    partials = [identity] * (length + 1)
    entries: list[PhiEntry | None] = [None] * length
    count = 0
    new, fill = object.__new__, object.__setattr__
    # pending trie nodes (depth, last bit, whether it took an ascent, delta^depth);
    # a node pushes its 1-child first so that its 0-child pops first
    stack = [(0, 0, 0, identity)]
    while stack:
        depth, bit, ascent, here = stack.pop()
        if depth:
            k = depth - 1
            mask[k] = bit
            partials[depth] = here
            if ascent:
                entries[k] = None
            else:
                p, q, grid = image_table[letters[k]]
                window = here.window
                entries[k] = PhiEntry(depth, -grid[window[p]][window[q]], not bit)
        if depth == length:
            count += 1
            if count > bound:
                raise ValueError(f"more than {bound} distinguished masks to walk")
            # the slots are filled directly, past the immutable __setattr__,
            # without the frame of CellDescriptor.__init__
            desc = new(CellDescriptor)
            fill(desc, "word", word)
            fill(desc, "mask", tuple(mask))
            fill(desc, "partials", tuple(partials))
            fill(desc, "phi", tuple(filter(None, entries)))
            yield desc
            continue
        letter = letters[depth]
        taken = here.succ[letter] or here._successor(letter)
        # a forced descent takes the letter and steps down; otherwise taking
        # it steps up and skipping it steps down
        if here.descents >> letter & 1:
            down, bit = taken, 1
        else:
            down, bit = here, 0
            stack.append((depth + 1, 1, 1, taken))
        rise = rises[depth]
        if rise is None or bruhat_leq(rise, down):
            stack.append((depth + 1, bit, 0, down))


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


class CellDescriptor(Subexpression):
    """One nonempty Deodhar cell: its distinguished subexpression and its
    root sequence ``phi``; build it with :func:`cell`.  The rest is derived:
    ``chosen_positions()`` is I, ``descent_positions()`` J, ``dimension``
    l - |J|, ``affine_rank`` |I| - |J| and ``torus_rank`` l - |I|.  The
    positions that phi skips, where gamma^i(alpha_i) < 0, are J too; the
    test suite checks that they agree."""

    __slots__ = ("phi",)

    def __init__(self, word: ReducedWord, mask: tuple[int, ...],
                 partials: tuple[WeylElement, ...], phi: tuple[PhiEntry, ...]):
        super().__init__(word, mask, partials)
        object.__setattr__(self, "phi", phi)

    def __repr__(self) -> str:
        return f"CellDescriptor(word={self.word!r}, mask={self.mask!r}, phi={self.phi!r})"

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

    The root sequence is read from ``RootSystem.simple_image_table``,
    independently of ``descent_positions()``, the window descent rule for J;
    the test suite checks that the positions ``phi`` skips are that J.
    """
    if not is_distinguished(sub):
        raise ValueError(f"mask {sub.mask_string} is not distinguished: its cell is empty")
    image_table = root_system(sub.word.ctx.family, sub.word.ctx.rank).simple_image_table
    phi = []
    for i, (partial, letter) in enumerate(zip(sub.partials[1:], sub.word.letters), start=1):
        p, q, grid = image_table[letter]
        image = grid[partial.window[p]][partial.window[q]]
        if image.is_positive:
            phi.append(PhiEntry(i, -image, not sub.mask[i - 1]))
    return CellDescriptor(sub.word, sub.mask, sub.partials, tuple(phi))


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
    return list(enumerate_below(gamma, CELLS_BOUND))


def point_count_polynomial(word: ReducedWord, v: WeylElement) -> LaurentPoly:
    """Sum of q^affine (q-1)^torus over the cells with endpoint ``v``;
    counts the F_q-points of the double Schubert cell.  Reads the row of
    :func:`endpoint_counts`, which walks no mask; raises ``ValueError`` for
    an endpoint of another group.

    The open cell of ``1,2,1`` in A_2 has (q-1)^3 + q(q-1) points:

    >>> from deodhar.weyl import context; A2 = context("A", 2); print(
    ...     point_count_polynomial(ReducedWord(A2, (1, 2, 1)), A2.identity))
    -1 + 2*q - 2*q^2 + q^3
    """
    if v.ctx is not word.ctx:
        raise ValueError("endpoint and word from different contexts")
    _, row = endpoint_counts(word).get(v, (0, ()))
    return LaurentPoly({_q_power(e): c for e, c in enumerate(row) if c})


@cache
def _q_power(e: int) -> Monomial:
    return Monomial.of(q=e)


# Every caller asks for all endpoints of one word in a row (the census over
# reduced words, criteria 6 and 7, the cells command), so one table is kept.
@lru_cache(maxsize=1)
def endpoint_counts(word: ReducedWord) -> dict[WeylElement, tuple[int, list[int]]]:
    """For each endpoint, its number of distinguished masks and the integer
    coefficients of q^0, q^1, ... of its point count, by Deodhar's recursion
    over the partial products: a forced descent takes the letter and adds an
    affine line (the row times q); otherwise taking the letter keeps the row
    (J grows) and skipping it adds a punctured line (the row times q - 1).
    Every row of layer j has length j + 1, so two rows merge by one
    elementwise sum.  Raises ``ValueError`` once a layer would hold more than
    ``CELLS_BOUND`` distinguished prefixes; every distinguished prefix has an
    extension, so exactly when the word has more than ``CELLS_BOUND`` masks.
    """
    layer = {word.ctx.identity: (1, [1])}
    for letter in word.letters:
        nxt: dict[WeylElement, tuple[int, list[int]]] = {}
        prefixes = 0
        for x, (masks, row) in layer.items():
            forced = x.descents >> letter & 1
            # counted before this partial product's successor is interned
            prefixes += masks if forced else 2 * masks
            if prefixes > CELLS_BOUND:
                raise ValueError(f"word has more than {CELLS_BOUND} distinguished masks")
            taken = x.succ[letter] or x._successor(letter)
            if forced:
                moves = ((taken, [0, *row]),)
            else:
                kept = [*row, 0]
                moves = ((taken, kept), (x, list(map(sub, [0, *row], kept))))
            for y, new in moves:
                if y in nxt:
                    more, old = nxt[y]
                    nxt[y] = (more + masks, list(map(add, old, new)))
                else:
                    nxt[y] = (masks, new)
        layer = nxt
    return layer


def hasse_dot(word: ReducedWord) -> str:
    """DOT digraph of the covering relation of preceq on distinguished masks.

    Edges point from the preceq-smaller mask to the larger one; node labels
    carry the mask and the cell dimension.  The masks are held and
    :func:`closure_pairs` finds every related pair among them, so
    ``ValueError`` is raised for more than ``PAIRS_BOUND`` masks.

    The masks above a all have smaller indices, and so do the masks above
    each of them.  So the highest candidate b left is a cover: a mask c
    strictly between would lie above a with an index above b, and is either
    a cover already taken, whose masks above (b among them) were stripped,
    or was itself stripped with everything above it, b included.  Each cover
    strips its own bitset from the rest, one big-int operation per cover.
    """
    descs, stream = closure_pairs(word)
    above = list(stream)
    lines = ["digraph closure_order {", "  node [shape=box];"]
    for d in descs:
        lines.append(f'  "{d.mask_string}" [label="{d.mask_string} dim={d.dimension}"];')
    for a, da in enumerate(descs):
        covers = []
        rest = above[a]
        while rest:
            b = rest.bit_length() - 1
            covers.append(b)
            rest = (rest ^ 1 << b) & ~above[b]
        for b in reversed(covers):
            lines.append(f'  "{da.mask_string}" -> "{descs[b].mask_string}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def closure_pairs(word: ReducedWord) -> tuple[list[CellDescriptor], Iterator[int]]:
    """The descriptors of the distinguished masks of ``word`` in mask order,
    and their :func:`closure_relation`.  One walk yields the masks, which are
    held, so ``ValueError`` is raised for more than ``PAIRS_BOUND`` of them."""
    descs = list(enumerate_subexpressions(word, PAIRS_BOUND))
    return descs, closure_relation(descs)


def closure_relation(descs: list[CellDescriptor]) -> Iterator[int]:
    """A stream of bitsets, one per descriptor a of ``descs``, distinguished
    masks of one word in increasing mask order: the b with b != a and
    a preceq b.  Each bitset holds only b < a: at the first position k where
    the masks of a and b differ, with common partial product x before it, if
    a skips the letter and b takes it then x s_k > x, as a is distinguished,
    and b^k = x s_k is not below a^k = x.  The relation is read from the
    partial products, comparing Bruhat keys, as in :func:`enumerate_below`,
    only where b steps up while a steps down.

    The b that step up at a position are grouped by the partial product they
    step up to.  In mask order the masks through one node of the prefix
    trie are a run of consecutive indices, so each node adds its run to its
    group in one operation when it closes.  Each group's bitset is kept with
    its Bruhat key, sorted by key: u <= x in Bruhat order bounds every field
    of u's key by the same field of x's, so u's key is at most x's, and the
    scan for the groups below x stops at the first key above x's.
    """
    letters = descs[0].word.letters if descs else ()
    length, size = len(letters), len(descs)
    # starts[a]: the first position where mask a differs from mask a - 1,
    # the depth from which its trie nodes are new
    starts = [0] * size
    # risers[k]: b^{k+1} -> the bitset of the b that step up to it at
    # position k + 1, that is take an ascent or skip a descent
    risers: list[dict[WeylElement, int]] = [{} for _ in letters]
    # opened[k]: the first index of the run of the open node at depth k + 1
    opened = [0] * length
    previous = descs[0].mask if descs else ()
    for a in range(1, size + 1):
        start = 0
        if a < size:
            mask = descs[a].mask
            start = starts[a] = next(compress(count(), map(ne, mask, previous)))
            previous = mask
        # the nodes at depths start + 1, ..., l close at a
        for k in range(start, length):
            begin = opened[k]
            opened[k] = a
            partials = descs[begin].partials
            if descs[begin].mask[k] != partials[k].descents >> letters[k] & 1:
                group, after = risers[k], partials[k + 1]
                group[after] = group.get(after, 0) | (1 << a) - (1 << begin)
    keyed = [sorted((x.bruhat_key, bits) for x, bits in group.items()) for group in risers]
    up = [reduce(or_, (bits for _, bits in group), 0) for group in keyed]
    # kept[k]: a^{k+1} -> the b still above it after a down step there
    kept: list[dict[WeylElement, int]] = [{} for _ in letters]
    # prod[k]: the AND of the kept bitsets over the first k positions of the
    # mask, redone from the first position where it differs from the last one
    prod = [(1 << size) - 1] * (length + 1)
    for a, (d, start) in enumerate(zip(descs, starts)):
        mask, partials = d.mask, d.partials
        alive = prod[start]
        for k in range(start, length):
            after = partials[k + 1]
            if mask[k] == partials[k].descents >> letters[k] & 1 and alive & up[k]:
                table = kept[k]
                bits = table.get(after)
                if bits is None:
                    bits = table[after] = ~up[k] | _above_mask(keyed[k], after)
                alive &= bits
            prod[k + 1] = alive
        # a preceq a always holds
        yield alive & ~(1 << a)


def _above_mask(groups: list[tuple[int, int]], x: WeylElement) -> int:
    """The union of the bitsets of ``groups``, pairs (Bruhat key of u,
    bitset) sorted by key, whose u lies below ``x`` in Bruhat order; the
    comparison of :func:`weyl.bruhat_leq`, one subtraction per key up to
    x's, as no u with a larger key lies below x."""
    guard = x.ctx._bruhat_guard
    key = x.bruhat_key
    top = key | guard
    union = 0
    for u, bits in groups:
        if u > key:
            break
        if (top - u) & guard == guard:
            union |= bits
    return union


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
        "J": list(desc.descent_positions()),
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


class CatalogEntry(NamedTuple):
    """A named word with its distinguished pair; ``second preceq first``."""

    name: str
    n: int
    first: Subexpression
    second: Subexpression


def catalog(name: str, n: int = 3) -> CatalogEntry:
    """Exact transliterations of the known counterexample words and masks;
    the rank is checked against ``weyl.RANK_BOUND`` before any letter is built."""
    if name == CLOSURE_OBSTRUCTION:
        if n < 3:
            raise ValueError("closure-obstruction needs n >= 3")
        ctx = context("B", n)
        block = tuple(range(n, 1, -1)) + (1,) + tuple(range(2, n))
        # gamma skips positions 1, n, 2n-1 and 3n-2, delta 1 and n+1..3n-3
        letters = block + block
        first = ("0" + "1" * (n - 2)) * 4
        second = "0" + "1" * (n - 1) + "0" * (2 * n - 3) + "1" * (n - 1)
    elif name == DISJOINTNESS:
        if n != 3:
            raise ValueError("disjointness is a rank 3 catalog entry")
        ctx = context("B", n)
        letters, first, second = _B3_W0, _SIGMA, _TAU
    elif name == DISJOINTNESS_EXTENDED:
        if n < 4:
            raise ValueError(
                "disjointness-extended needs n >= 4 (at n = 3 the prefixed "
                "word is no longer reduced)"
            )
        ctx = context("B", n)
        # eta takes both t_2 of t_n ... t_2 t_1 t_2 ... t_n: its product is e
        letters = tuple(range(n, 0, -1)) + tuple(range(2, n + 1)) + _B3_W0
        eta = "0" * (n - 2) + "101" + "0" * (n - 2)
        first, second = eta + _SIGMA, eta + _TAU
    else:
        raise ValueError(f"unknown catalog entry {name!r}")
    word = ReducedWord(ctx, letters)
    return CatalogEntry(name, n, subexpression(word, first), subexpression(word, second))
