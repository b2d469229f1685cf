"""Weyl groups of types A_n and B_n as permutation windows.

A type B element is a signed permutation, stored as the window
``(w(1), ..., w(n))`` with ``w(i)`` in ``{+-1, ..., +-n}``; a type A element
is a plain permutation of ``{1, ..., n+1}``.  The generators match the root
realization of :mod:`deodhar.roots`:

* type B: ``t_1`` flips the sign of coordinate 1, ``t_i`` (i >= 2) swaps
  coordinates ``i-1`` and ``i``;
* type A: ``t_i`` swaps coordinates ``i`` and ``i+1``.

Each context interns its elements: an element is built the first time its
window is reached and every later operation landing there returns it, so
equality is identity and the hash is the order of first reach (independent
of ``PYTHONHASHSEED``).  ``from_window`` is the one entry point that checks a
window, once per new window; a generator step builds a valid window.

Each element also carries the tables that the walks of :mod:`deodhar.cells`
read inline instead of calling a method: ``descents``, a bitmask whose bit
``i`` is set iff ``t_i`` is a right descent, computed when the element is
interned; and ``succ[i]``, the element ``w t_i``, and ``images[i]``, the
root ``w(alpha_i)``, both filled the first time they are asked for.  An
entry not yet filled is ``None``, so a loop reads ``w.succ[i] or
w._successor(i)``.  Until its first entry a table is one tuple of ``None``
shared by the whole group, so an element that is reached but never
multiplied further holds no list.  ``length`` and
``bruhat_key``, the integer that :func:`bruhat_leq` compares, are slots
filled on first use.  ``right_mult_generator`` is the public form, which
checks its argument and reads the same table.

>>> ctx = context("B", 3)
>>> ctx.from_word([1]).window
(-1, 2, 3)
>>> ctx.from_word([3, 2, 1, 2, 3, 2, 1, 2, 1]) is ctx.longest_element()
True
>>> w = ctx.from_word([2, 1]); bin(w.descents)
'0b10'
>>> w.right_mult_generator(1) is w.succ[1] is ctx.from_word([2])
True
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from operator import lt
from typing import Iterable, Iterator, Sequence

from .roots import FAMILY_A, FAMILY_B, Root, root_system

# Longest element whose reduced words are listed; their number grows
# exponentially with the length.
REDUCED_WORDS_BOUND = 12
# Most reduced words listed for one element.  Commuting letters multiply the
# count at a fixed length: s_1 s_3 ... s_15 s_2 of B_16 has length 9 and
# 120,960 words.  Listing costs about 7.5 us and 0.45 KB per word (40,320
# words in 0.29 s at 32 MB peak RSS, 120,960 in 0.91 s at 68 MB).
REDUCED_WORDS_COUNT_BOUND = 50000


class CoxeterContext:
    """One Weyl group W(A_n) or W(B_n); use :func:`context` to obtain one."""

    def __init__(self, family: str, rank: int):
        # validates family and rank, runs the self-test
        self.system = root_system(family, rank)
        self.family = family
        self.rank = rank
        self.window_size = rank + 1 if family == FAMILY_A else rank
        # the descent bit of each pair of adjacent window entries
        first = 1 if family == FAMILY_A else 2
        self._adjacent_bits = tuple(1 << i for i in range(first, rank + 1))
        # the succ and images tables of every element until its first entry,
        # so that an element never multiplied further holds no list
        self._unfilled = (None,) * (rank + 1)
        # window -> element, for every element reached so far; the group is
        # too large to list eagerly (|W(B_16)| is about 1.4e18)
        self._elements: dict[tuple[int, ...], WeylElement] = {}
        # the permutation that a Bruhat key counts over, of 1..n+1 in type A
        # and of -n..-1, 1..n in type B with w(-a) = -w(a); a key holds one
        # 7-bit field per pair (i, j) of these points, at bit 7 (i m + j),
        # counting the a <= points[i] with w(a) >= points[j] (Bjorner-Brenti,
        # Combinatorics of Coxeter Groups, Thms 2.1.5 and 8.1.8).  A count is
        # at most m <= 2 RANK_BOUND = 32, so bit 6 of each field is free for
        # the guard of bruhat_leq.
        if family == FAMILY_A:
            points = range(1, self.window_size + 1)
        else:
            points = [*range(-rank, 0), *range(1, rank + 1)]
        m = len(points)
        # a point a with w(a) = b adds rows[a] * cols[b], which is 1 in each
        # field (i, j) with points[i] >= a and points[j] <= b
        self._bruhat_rows, self._bruhat_cols = {}, {}
        row = col = 0
        for r in range(m):
            row |= 1 << 7 * m * (m - 1 - r)
            self._bruhat_rows[points[m - 1 - r]] = row
            col |= 1 << 7 * r
            self._bruhat_cols[points[r]] = col
        # row * col is 1 in every field
        self._bruhat_guard = row * col << 6
        self.identity = self._intern(tuple(range(1, self.window_size + 1)))

    def __repr__(self) -> str:
        return f"CoxeterContext({self.family}_{self.rank})"

    def _intern(self, window: tuple[int, ...]) -> "WeylElement":
        """The element with ``window``, built on first reach; the caller
        guarantees that the window is valid."""
        element = self._elements.get(window)
        if element is None:
            element = WeylElement(self, window, len(self._elements))
            self._elements[window] = element
        return element

    def from_word(self, letters: Iterable[int]) -> "WeylElement":
        w = self.identity
        for i in letters:
            w = w.right_mult_generator(i)
        return w

    def from_window(self, window: Sequence[int]) -> "WeylElement":
        """The element with this window; the one entry point that checks it.
        An entry that is not an ``int`` (a bool included) is named, with its
        1-based position, in the error."""
        window = tuple(window)
        for pos, v in enumerate(window, start=1):
            if type(v) is not int:
                raise ValueError(
                    f"window entry {v!r} at position {pos} is not an integer"
                )
        if window not in self._elements:
            if sorted(abs(v) for v in window) != list(range(1, self.window_size + 1)):
                raise ValueError(f"window {window} is not a (signed) permutation")
            if self.family == FAMILY_A and any(v < 0 for v in window):
                raise ValueError("type A windows are unsigned")
        return self._intern(window)

    def longest_element(self) -> "WeylElement":
        if self.family == FAMILY_B:
            return self._intern(tuple(-i for i in range(1, self.rank + 1)))
        return self._intern(tuple(range(self.window_size, 0, -1)))

    def elements(self) -> Iterator["WeylElement"]:
        """All group elements, by length then window (breadth-first)."""
        layer = {self.identity}
        while layer:
            yield from sorted(layer, key=lambda x: x.window)
            # the next layer holds the elements one longer, none seen before:
            # w t_i is longer than w iff t_i is not a right descent of w
            layer = {
                w.right_mult_generator(i)
                for w in layer
                for i in range(1, self.rank + 1)
                if not w.descents >> i & 1
            }

    def parse_element(self, text: str) -> "WeylElement":
        """Parse window notation like ``-1,2,3``; ``e`` is the identity."""
        if text == "e":
            return self.identity
        return self.from_window(parse_integers(text, "window"))


@cache
def context(family: str, rank: int, /) -> CoxeterContext:
    """The one context of W(family_rank).  The arguments are positional only,
    so that every call for a group shares one cache key and one context."""
    return CoxeterContext(family, rank)


class WeylElement:
    """A group element in window notation, interned by its context: build
    one with ``ctx.from_window`` or by generator steps, never directly.
    Its tables (``descents``, ``succ``, ``images``) are described in the
    module docstring.
    """

    __slots__ = (
        "ctx", "window", "index", "descents", "succ", "images", "length", "bruhat_key"
    )

    def __init__(self, ctx: CoxeterContext, window: tuple[int, ...], index: int):
        self.ctx = ctx
        self.window = window
        self.index = index
        # bit i set iff t_i is a right descent: in type A t_i iff
        # w(i+1) < w(i); in type B t_1 iff w(1) < 0 (only type B windows have
        # signs) and t_i (i >= 2) iff w(i) < w(i-1)
        self.descents = sum(compress(ctx._adjacent_bits, map(lt, window[1:], window)))
        if window[0] < 0:
            self.descents |= 2
        self.succ = self.images = ctx._unfilled

    def __getattr__(self, name: str):
        # reached only while the length or bruhat_key slot is unset; once
        # filled on first use it is a plain slot read
        if name == "length":
            self.length = self._inversions()
            return self.length
        if name == "bruhat_key":
            self.bruhat_key = self._bruhat_key()
            return self.bruhat_key
        raise AttributeError(f"'WeylElement' object has no attribute {name!r}")

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"<WeylElement {self.ctx.family}{self.ctx.rank}: {self}>"

    def right_mult_generator(self, i: int) -> "WeylElement":
        """``self * t_i``, read from ``succ``."""
        if not 1 <= i <= self.ctx.rank:
            raise ValueError(f"generator index {i} out of range")
        return self.succ[i] or self._successor(i)

    def _successor(self, i: int) -> "WeylElement":
        """Fill ``succ[i]`` from the window; ``i`` is not checked."""
        w = self.window
        if self.ctx.family == FAMILY_B and i == 1:
            window = (-w[0],) + w[1:]
        else:
            a = i - 2 if self.ctx.family == FAMILY_B else i - 1
            new = list(w)
            new[a], new[a + 1] = new[a + 1], new[a]
            window = tuple(new)
        other = self.ctx._intern(window)
        if self.succ is self.ctx._unfilled:
            self.succ = [None] * (self.ctx.rank + 1)
        self.succ[i] = other
        return other

    def _inversions(self) -> int:
        """Number of positive roots made negative (= minimal word length)."""
        w = self.window
        n = len(w)
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
        )
        if self.ctx.family == FAMILY_A:
            return inversions
        negatives = sum(1 for v in w if v < 0)
        negative_pairs = sum(
            1 for i in range(n) for j in range(i + 1, n) if w[i] + w[j] < 0
        )
        return inversions + negatives + negative_pairs

    def _bruhat_key(self) -> int:
        """The counts of the tableau criterion, one field each (see
        ``CoxeterContext.__init__``)."""
        rows, cols = self.ctx._bruhat_rows, self.ctx._bruhat_cols
        pairs = list(enumerate(self.window, start=1))
        if self.ctx.family == FAMILY_B:
            pairs += [(-a, -b) for a, b in pairs]
        return sum(rows[a] * cols[b] for a, b in pairs)

    def is_identity(self) -> bool:
        return self is self.ctx.identity

    def right_descents(self) -> list[int]:
        d = self.descents
        return [i for i in range(1, self.ctx.rank + 1) if d >> i & 1]

    def _simple_image(self, i: int) -> Root:
        """Fill ``images[i]``, the root ``self(alpha_i)``; ``i`` is not checked."""
        image = self.act_on_root(self.ctx.system.simple(i))
        if self.images is self.ctx._unfilled:
            self.images = [None] * (self.ctx.rank + 1)
        self.images[i] = image
        return image

    def act_on_root(self, root: Root) -> Root:
        """Image of a root under the linear action on ambient coordinates."""
        system = self.ctx.system
        if root.system is not system:
            raise ValueError("root does not belong to this context")
        window = self.window
        moved = [0] * len(root.ambient)
        for k, v in enumerate(root.ambient):
            if v:
                image = window[k]
                moved[abs(image) - 1] += v if image > 0 else -v
        return system.by_ambient[tuple(moved)]

    def serialize(self) -> str:
        return ",".join(str(v) for v in self.window)

    def __str__(self) -> str:
        return self.serialize()


class ReducedWord:
    """A reduced expression; reducedness is checked at construction.
    Immutable; two words are equal when they share a context and letters."""

    __slots__ = ("ctx", "letters")

    def __init__(self, ctx: CoxeterContext, letters: tuple[int, ...] = ()):
        if ctx.from_word(letters).length != len(letters):
            raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, *value):
        raise AttributeError("ReducedWord is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.ctx is other.ctx and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"ReducedWord(letters={self.letters!r})"

    def __len__(self) -> int:
        return len(self.letters)

    def serialize(self) -> str:
        return ",".join(str(i) for i in self.letters)

    def __str__(self) -> str:
        return self.serialize()


def parse_integers(text: str, kind: str) -> tuple[int, ...]:
    """Comma-separated integers (none for the empty string); a token that is
    not an integer is named, with its 1-based position, in the error."""
    if not text:
        return ()
    values = []
    for pos, part in enumerate(text.split(","), start=1):
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(
                f"{kind} token {part!r} at position {pos} is not an integer"
            ) from None
    return tuple(values)


def parse_word(ctx: CoxeterContext, text: str) -> ReducedWord:
    return ReducedWord(ctx, parse_integers(text, "word"))


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat order by the tableau criterion: ``u <= v`` iff each count of
    ``u.bruhat_key`` is at most the same count of ``v.bruhat_key``.

    Setting the guard bit of every field of ``v``'s key and subtracting
    ``u``'s key leaves a field's guard set iff its count in ``v`` is at
    least that in ``u``; no field borrows from the next.

    >>> ctx = context("A", 2)
    >>> bruhat_leq(ctx.from_word([1]), ctx.from_word([2, 1]))
    True
    >>> bruhat_leq(ctx.from_word([1]), ctx.from_word([2]))
    False
    """
    if u.ctx is not v.ctx:
        raise ValueError("elements from different contexts")
    guard = u.ctx._bruhat_guard
    return ((v.bruhat_key | guard) - u.bruhat_key) & guard == guard


def all_reduced_words(w: WeylElement) -> list[ReducedWord]:
    """Every reduced word for ``w``, in lexicographic order.

    Raises ``ValueError`` if ``w`` is longer than ``REDUCED_WORDS_BOUND`` or
    has more than ``REDUCED_WORDS_COUNT_BOUND`` reduced words.
    """
    if w.length > REDUCED_WORDS_BOUND:
        raise ValueError(f"length {w.length} exceeds the bound {REDUCED_WORDS_BOUND}")
    # the words of every element below w, for this call only: a memo kept
    # across calls would grow without bound
    @cache
    def rec(u: WeylElement) -> tuple[tuple[int, ...], ...]:
        if u.is_identity():
            return ((),)
        words = []
        for i in u.right_descents():
            words.extend(prefix + (i,) for prefix in rec(u.right_mult_generator(i)))
            # every word of an element below w in the weak order extends to
            # one of w, so this fires exactly when w has too many words
            if len(words) > REDUCED_WORDS_COUNT_BOUND:
                raise ValueError(
                    f"more than {REDUCED_WORDS_COUNT_BOUND} reduced words to list"
                )
        return tuple(sorted(words))

    return [ReducedWord(w.ctx, letters) for letters in rec(w)]
