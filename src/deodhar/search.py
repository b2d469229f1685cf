"""Counterexample scans and certificates on top of the cell combinatorics.

Scans take the descriptors that the walks build, one per distinguished
mask, compare them by identity and hand them to the certificate, which
reads their ``phi``.  No scan compares every pair: both read the bitsets of
:func:`cells.closure_relation`, over the whole word (the obstruction scan,
cut to the gammas of dimension at most dim(delta)) or over the cells of one
endpoint (the disjointness scan, from a table that one walk builds for all
endpoints of a word).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import cells
from .roots import Root, root_system
from .weyl import ReducedWord, WeylElement


class ObstructionReport(NamedTuple):
    """An ordered pair related by the closure order whose dimensions forbid
    containment of the second cell in the first cell's closure."""

    first: cells.CellDescriptor
    second: cells.CellDescriptor


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
    descs, above = cells.closure_pairs(word)
    # within[k]: the gammas of dimension at most k
    within = [0] * (len(word) + 1)
    for a, desc in enumerate(descs):
        within[desc.dimension] |= 1 << a
    for k in range(1, len(within)):
        within[k] |= within[k - 1]
    kept = (gammas & within[desc.dimension] for desc, gammas in zip(descs, above))
    return [ObstructionReport(first, second) for first, second in _pairs_below(descs, kept)]


def _pairs_below(descs: list[cells.CellDescriptor], above: Iterable[int]) -> Iterator[tuple]:
    """The pairs (gamma, delta) of ``descs`` whose delta has gamma in its
    bitset in ``above``, in increasing (gamma, delta) order."""
    # below[a]: the deltas below gamma a, in order
    below: list[list[int]] = [[] for _ in descs]
    for d, gammas in enumerate(above):
        for a in cells.bit_indices(gammas):
            below[a].append(d)
    return ((descs[a], descs[d]) for a, deltas in enumerate(below) for d in deltas)


class DisjointnessCertificate(NamedTuple):
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
    first: cells.CellDescriptor, second: cells.CellDescriptor
) -> DisjointnessCertificate | None:
    """Search for a certificate that the closure of the cell ``first`` misses
    the cell ``second``, reading their root sequences."""
    if first.word != second.word:
        raise ValueError("certificate needs cells of one word")
    if first.endpoint != second.endpoint:
        raise ValueError("certificate needs equal endpoints")
    system = root_system(first.word.ctx.family, first.word.ctx.rank)
    for b in range(1, system.rank + 1):
        target = -system.simple(b)
        if any(entry.root == target for entry in first.phi):
            continue
        occurrences = [entry for entry in second.phi if entry.root == target]
        if len(occurrences) == 1 and occurrences[0].free:
            return DisjointnessCertificate(root=target, witness_index=occurrences[0].index)
    return None


class CertifiedPair(NamedTuple):
    first: cells.CellDescriptor
    second: cells.CellDescriptor
    certificate: DisjointnessCertificate


def scan_disjointness(word: ReducedWord, v: WeylElement) -> list[CertifiedPair]:
    """All ordered pairs in one double cell with second preceq first and a
    disjointness certificate; every certified pair is a proven negative
    instance of the closure-intersection question.  Pairs come in increasing
    (first, second) mask order, read from the closure relation among the
    descriptors with endpoint ``v``, which are held, so ``ValueError`` is
    raised for more than ``PAIRS_BOUND`` of them, and for an endpoint of
    another group."""
    if v.ctx is not word.ctx:
        raise ValueError("endpoint and word from different contexts")
    descs, relation = _double_cells(word, cells.PAIRS_BOUND).get(v, ([], []))
    if relation is None:
        raise ValueError(f"more than {cells.PAIRS_BOUND} cells end at {v.serialize()}")
    return [
        CertifiedPair(first, second, certificate)
        for first, second in _pairs_below(descs, relation)
        if (certificate := disjointness_certificate(first, second)) is not None
    ]


# Every caller asks for all endpoints of one word in a row, so one table is kept.
@lru_cache(maxsize=1)
def _double_cells(
    word: ReducedWord, bound: int
) -> dict[WeylElement, tuple[list, list[int] | None]]:
    """For each endpoint, the descriptors of one walk over all distinguished
    masks that end there, in mask order, and their closure relation, or None
    for an endpoint with more than ``bound`` cells."""
    groups: dict[WeylElement, list[cells.CellDescriptor]] = {}
    for desc in cells.enumerate_subexpressions(word, cells.CELLS_BOUND):
        groups.setdefault(desc.endpoint, []).append(desc)
    return {
        v: (descs, list(cells.closure_relation(descs)) if len(descs) <= bound else None)
        for v, descs in groups.items()
    }
