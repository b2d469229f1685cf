"""Independent Weyl-group arithmetic for generating inputs and checking verdicts.

Nothing here imports the program under test.  Elements are windows in the
program's encoding (type A: a permutation of 1..n+1; type B: a signed
permutation of 1..n), but every derived fact is obtained another way:

* lengths are breadth-first distances from the identity in the Cayley graph,
  not the inversion-count formula;
* a right descent is read off the length table;
* Bruhat order is the subword property of one reduced word of the larger
  element, not the lifting property.
"""

from __future__ import annotations

Window = tuple[int, ...]


class Group:
    """W(A_n) or W(B_n), listed breadth-first from the identity."""

    def __init__(self, family: str, rank: int):
        if family not in ("A", "B"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.rank = rank
        size = rank + 1 if family == "A" else rank
        self.identity: Window = tuple(range(1, size + 1))
        self.length: dict[Window, int] = {self.identity: 0}
        self.elements: list[Window] = [self.identity]
        for w in self.elements:  # the list grows while it is walked
            for i in range(1, rank + 1):
                u = self.mult(w, i)
                if u not in self.length:
                    self.length[u] = self.length[w] + 1
                    self.elements.append(u)
        self._below: dict[Window, frozenset[Window]] = {}
        self._word_counts: dict[Window, int] = {self.identity: 1}

    def mult(self, w: Window, i: int) -> Window:
        """``w t_i``: type B t_1 negates position 1 and t_i (i >= 2) swaps
        positions i-1, i; type A t_i swaps positions i, i+1."""
        if self.family == "B":
            if i == 1:
                return (-w[0],) + w[1:]
            a, b = i - 2, i - 1
        else:
            a, b = i - 1, i
        out = list(w)
        out[a], out[b] = out[b], out[a]
        return tuple(out)

    def has_descent(self, w: Window, i: int) -> bool:
        return self.length[self.mult(w, i)] < self.length[w]

    def longest(self) -> Window:
        return self.elements[-1]

    def reduced_word(self, w: Window) -> tuple[int, ...]:
        """One reduced word of ``w``, peeling off the smallest right descent."""
        letters = []
        while w != self.identity:
            i = next(j for j in range(1, self.rank + 1) if self.has_descent(w, j))
            letters.append(i)
            w = self.mult(w, i)
        return tuple(reversed(letters))

    def reduced_word_count(self, w: Window) -> int:
        if w not in self._word_counts:
            self._word_counts[w] = sum(
                self.reduced_word_count(self.mult(w, i))
                for i in range(1, self.rank + 1)
                if self.has_descent(w, i)
            )
        return self._word_counts[w]

    def below(self, v: Window) -> frozenset[Window]:
        """Every u <= v: the products of the subwords of one reduced word."""
        if v not in self._below:
            reachable = {self.identity}
            for letter in self.reduced_word(v):
                reachable |= {self.mult(x, letter) for x in reachable}
            self._below[v] = frozenset(reachable)
        return self._below[v]

    def bruhat_leq(self, u: Window, v: Window) -> bool:
        return u in self.below(v)

    def distinguished_masks(self, letters) -> list[tuple[str, list[Window]]]:
        """Every distinguished mask of a word with its partial products, in
        increasing mask order: a letter at a right descent of the partial
        product so far must be taken."""
        out: list[tuple[str, list[Window]]] = []

        def rec(pos: int, mask: str, partials: list[Window]):
            if pos == len(letters):
                out.append((mask, partials))
                return
            prev, letter = partials[-1], letters[pos]
            if not self.has_descent(prev, letter):
                rec(pos + 1, mask + "0", partials + [prev])
            rec(pos + 1, mask + "1", partials + [self.mult(prev, letter)])

        rec(0, "", [self.identity])
        return out

    def dimension(self, letters, partials: list[Window]) -> int:
        """Cell dimension l - |J| with J the positions where gamma^i s_i < gamma^i."""
        descents = sum(
            1 for i, letter in enumerate(letters, start=1)
            if self.has_descent(partials[i], letter)
        )
        return len(letters) - descents

    def preceq(self, delta: list[Window], gamma: list[Window]) -> bool:
        """delta preceq gamma iff gamma^i <= delta^i for every i >= 1."""
        return all(self.bruhat_leq(g, d) for g, d in zip(gamma[1:], delta[1:]))


def obstruction_word(n: int) -> tuple[int, ...]:
    """The 4n-4 letter type B_n word of the closure-obstruction catalog entry:
    the block ``n, n-1, ..., 2, 1, 2, ..., n-1`` written twice."""
    block = list(range(n, 1, -1)) + [1] + list(range(2, n))
    return tuple(block + block)


def obstruction_pair(n: int) -> tuple[str, str]:
    """(gamma, delta) masks of the catalog pair, dimensions 2n and 3n-3:
    gamma omits positions 1, n, 2n-1, 3n-2; delta omits 1 and n+1..3n-3."""
    length = 4 * n - 4
    gamma = "".join(
        "0" if i in (1, n, 2 * n - 1, 3 * n - 2) else "1" for i in range(1, length + 1)
    )
    delta = "".join(
        "0" if i == 1 or n + 1 <= i <= 3 * n - 3 else "1" for i in range(1, length + 1)
    )
    return gamma, delta


def negative_roots_b(n: int) -> list[tuple[int, ...]]:
    """Negative roots of B_n over the simple roots (beta_1 short):
    -(beta_i + ... + beta_j) and -(2 beta_1 + ... + 2 beta_i + beta_{i+1} + ... + beta_j)."""
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(tuple(-1 if i <= k <= j else 0 for k in range(1, n + 1)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(
                tuple(-2 if k <= i else (-1 if k <= j else 0) for k in range(1, n + 1))
            )
    return out
