"""Counterexample scans and certificates on top of the cell combinatorics.

Scans take the descriptors that the walks build, one per distinguished
mask, compare them by identity and hand them to the certificate, which
reads their ``phi``.  The obstruction scan does not compare every pair: it
reads :func:`cells.closure_pairs`, the descriptors of a word and, for each
delta, the bitset of the gammas above it, keeps the gammas of dimension at
most dim(delta), and the reports hold those descriptors.  The disjointness
scan compares each descriptor of one endpoint with the later ones, the only
ones below it (see :func:`cells.closure_pairs`), read from the table of
:func:`cells.cells_with_endpoint`, which one walk builds for all endpoints
of a word.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cells
from .roots import Root
from .weyl import ReducedWord, WeylElement


@dataclass(frozen=True)
class ObstructionReport:
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
    # below[a]: the deltas below gamma a, in order
    below: list[list[int]] = [[] for _ in descs]
    for d, (desc, gammas) in enumerate(zip(descs, above)):
        for a in cells.bit_indices(gammas & within[desc.dimension]):
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
    first: cells.CellDescriptor, second: cells.CellDescriptor
) -> DisjointnessCertificate | None:
    """Search for a certificate that the closure of the cell ``first`` misses
    the cell ``second``, reading their root sequences."""
    if first.word != second.word:
        raise ValueError("certificate needs cells of one word")
    if first.endpoint != second.endpoint:
        raise ValueError("certificate needs equal endpoints")
    ctx = first.word.ctx
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
    first: cells.CellDescriptor
    second: cells.CellDescriptor
    certificate: DisjointnessCertificate


def scan_disjointness(word: ReducedWord, v: WeylElement) -> list[CertifiedPair]:
    """All ordered pairs in one double cell with second preceq first and a
    disjointness certificate; every certified pair is a proven negative
    instance of the closure-intersection question.  Pairs come in increasing
    (first, second) mask order.  Each descriptor with endpoint ``v`` is
    compared with the later ones, the only ones that can lie below it, and
    handed to :func:`disjointness_certificate` as is, so ``ValueError`` is
    raised for more than ``PAIRS_BOUND`` of them, and for an endpoint of
    another group."""
    descriptors = cells.cells_with_endpoint(word, v)
    if len(descriptors) > cells.PAIRS_BOUND:
        raise ValueError(f"more than {cells.PAIRS_BOUND} cells end at {v.serialize()}")
    out = []
    for k, first in enumerate(descriptors, start=1):
        for second in descriptors[k:]:
            if not cells.preceq(second, first):
                continue
            certificate = disjointness_certificate(first, second)
            if certificate is not None:
                out.append(CertifiedPair(first, second, certificate))
    return out
