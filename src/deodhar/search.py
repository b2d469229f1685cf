"""Counterexample machinery on top of the cell combinatorics.

The closure order ``preceq`` only bounds cell closures from above, and the
catalog below stores the known reduced words and masks in type B that defeat
the two optimistic expectations one might have:

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

Scans take the descriptors that the walks build, one per distinguished
mask, compare them by identity and hand them to the certificate, which
reads their ``phi``.  The obstruction scan does not compare every pair: it
reads :func:`cells.closure_pairs`, the descriptors of a word and, for each
delta, the bitset of the gammas above it, keeps the gammas of dimension at
most dim(delta), and the reports hold those descriptors.  The disjointness
scan compares every pair of one endpoint, whose masks are few, read from
the table of :func:`cells.cells_with_endpoint`, which one walk builds for
all endpoints of a word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import (
    PAIRS_BOUND,
    CellDescriptor,
    Subexpression,
    bit_indices,
    cells_with_endpoint,
    closure_pairs,
    preceq,
    subexpression,
)
from .roots import Root
from .weyl import ReducedWord, WeylElement, context

CLOSURE_OBSTRUCTION = "closure-obstruction"
DISJOINTNESS = "disjointness"
DISJOINTNESS_EXTENDED = "disjointness-extended"


@dataclass(frozen=True)
class CatalogEntry:
    """A named word with its distinguished pair; ``second preceq first``."""

    name: str
    n: int
    word: ReducedWord
    first: Subexpression
    second: Subexpression


def catalog(name: str, n: int = 3) -> CatalogEntry:
    """Exact transliterations of the known counterexample words and masks."""
    if name == CLOSURE_OBSTRUCTION:
        if n < 3:
            raise ValueError("closure-obstruction needs n >= 3")
        ctx = context("B", n)
        block = list(range(n, 1, -1)) + [1] + list(range(2, n))
        word = ReducedWord(ctx, tuple(block + block))
        length = 4 * n - 4
        gamma_zeros = {1, n, 2 * n - 1, 3 * n - 2}
        gamma = subexpression(
            word, [0 if i in gamma_zeros else 1 for i in range(1, length + 1)]
        )
        delta = subexpression(
            word,
            [
                0 if i == 1 or (n + 1 <= i <= 3 * n - 3) else 1
                for i in range(1, length + 1)
            ],
        )
        return CatalogEntry(name, n, word, gamma, delta)
    if name == DISJOINTNESS:
        if n != 3:
            raise ValueError("disjointness is a rank 3 catalog entry")
        ctx = context("B", 3)
        word = ReducedWord(ctx, (3, 2, 1, 2, 3, 2, 1, 2, 1))
        sigma = subexpression(word, "010101101")
        tau = subexpression(word, "011001011")
        return CatalogEntry(name, n, word, sigma, tau)
    if name == DISJOINTNESS_EXTENDED:
        if n < 4:
            raise ValueError(
                "disjointness-extended needs n >= 4 (at n = 3 the prefixed "
                "word is no longer reduced)"
            )
        ctx = context("B", n)
        prefix_letters = tuple(range(n, 0, -1)) + tuple(range(2, n + 1))
        prefix_word = ReducedWord(ctx, prefix_letters)
        eta_mask = [0] * (2 * n - 1)
        eta_mask[n - 2] = 1  # position n-1, letter t_2
        eta_mask[n] = 1  # position n+1, letter t_2
        eta = subexpression(prefix_word, eta_mask)
        base_word = ReducedWord(ctx, (3, 2, 1, 2, 3, 2, 1, 2, 1))
        sigma = subexpression(base_word, "010101101")
        tau = subexpression(base_word, "011001011")
        first = eta.concat(sigma)
        second = eta.concat(tau)
        return CatalogEntry(name, n, first.word, first, second)
    raise ValueError(f"unknown catalog entry {name!r}")


@dataclass(frozen=True)
class ObstructionReport:
    """An ordered pair related by the closure order whose dimensions forbid
    containment of the second cell in the first cell's closure."""

    first: CellDescriptor
    second: CellDescriptor


def find_obstructions(word: ReducedWord) -> list[ObstructionReport]:
    """All ordered distinguished pairs (gamma, delta) with delta strictly
    below gamma in the closure order and dim(delta) >= dim(gamma).

    Equal dimensions already qualify: two distinct cells of equal dimension
    cannot be contained in one another's closures either.  Pairs come in
    increasing (gamma, delta) mask order.  Each delta's bitset of the gammas
    above it, from :func:`cells.closure_pairs`, is cut to the gammas of
    dimension at most dim(delta); the reports share the descriptors of the
    walk over all masks.  The masks are held, so ``ValueError`` is raised
    for a word with more than ``PAIRS_BOUND`` distinguished masks.
    """
    descs, above = closure_pairs(word)
    # within[k]: the gammas of dimension at most k
    within = [0] * (len(word) + 1)
    for a, desc in enumerate(descs):
        within[desc.dimension] |= 1 << a
    for k in range(1, len(within)):
        within[k] |= within[k - 1]
    # below[a]: the deltas below gamma a, in order
    below: list[list[int]] = [[] for _ in descs]
    for d, (desc, gammas) in enumerate(zip(descs, above)):
        for a in bit_indices(gammas & within[desc.dimension]):
            below[a].append(d)
    return [
        ObstructionReport(first=descs[a], second=descs[d])
        for a, deltas in enumerate(below)
        for d in deltas
    ]


@dataclass(frozen=True)
class DisjointnessCertificate:
    """A negative simple root absent from the first coordinate sequence and
    forced nonzero (free, unique) in the second.

    Soundness: the first cell then lies in a proper closed subvariety cut out
    by the vanishing of that coordinate direction, while every point of the
    second cell has it nonzero; a simple root is not a sum of other negative
    roots, so no commutator rewriting can reintroduce the coordinate.  Hence
    the closure of the first cell misses the second cell entirely.
    """

    root: Root
    witness_index: int


def disjointness_certificate(
    first: CellDescriptor, second: CellDescriptor
) -> DisjointnessCertificate | None:
    """Search for a certificate that the closure of the cell ``first`` misses
    the cell ``second``, reading their root sequences."""
    if first.sub.word != second.sub.word:
        raise ValueError("certificate needs cells of one word")
    if first.sub.endpoint != second.sub.endpoint:
        raise ValueError("certificate needs equal endpoints")
    ctx = first.sub.word.ctx
    system = ctx.system
    for b in range(1, ctx.rank + 1):
        target = -system.simple(b)
        if any(entry.root == target for entry in first.phi):
            continue
        occurrences = [entry for entry in second.phi if entry.root == target]
        if len(occurrences) == 1 and occurrences[0].free:
            return DisjointnessCertificate(root=target, witness_index=occurrences[0].index)
    return None


@dataclass(frozen=True)
class CertifiedPair:
    first: CellDescriptor
    second: CellDescriptor
    certificate: DisjointnessCertificate


def scan_disjointness(word: ReducedWord, v: WeylElement) -> list[CertifiedPair]:
    """All ordered pairs in one double cell with second preceq first and a
    disjointness certificate; every certified pair is a proven negative
    instance of the closure-intersection question.  Pairs come in increasing
    (first, second) mask order.  Every pair of the descriptors with endpoint
    ``v`` is compared and handed to :func:`disjointness_certificate` as is,
    so ``ValueError`` is raised for more than ``PAIRS_BOUND`` of them, and
    for an endpoint of another group."""
    descriptors = cells_with_endpoint(word, v)
    if len(descriptors) > PAIRS_BOUND:
        raise ValueError(f"more than {PAIRS_BOUND} cells end at {v.serialize()}")
    out = []
    for first in descriptors:
        for second in descriptors:
            if first is second:
                continue
            if not preceq(second.sub, first.sub):
                continue
            certificate = disjointness_certificate(first, second)
            if certificate is not None:
                out.append(CertifiedPair(first, second, certificate))
    return out
