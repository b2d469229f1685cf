"""The letters, masks and partial products of every catalog entry, pinned."""

import hashlib

import pytest

from deodhar.cells import CLOSURE_OBSTRUCTION, DISJOINTNESS, DISJOINTNESS_EXTENDED, catalog

# (name, n): letters, first mask, second mask
PINNED = {
    (CLOSURE_OBSTRUCTION, 3): ("3,2,1,2,3,2,1,2", "01010101", "01100011"),
    (CLOSURE_OBSTRUCTION, 4): (
        "4,3,2,1,2,3,4,3,2,1,2,3",
        "011011011011",
        "011100000111",
    ),
    (DISJOINTNESS, 3): ("3,2,1,2,3,2,1,2,1", "010101101", "011001011"),
    (DISJOINTNESS_EXTENDED, 4): (
        "4,3,2,1,2,3,4,3,2,1,2,3,2,1,2,1",
        "0010100010101101",
        "0010100011001011",
    ),
    (DISJOINTNESS_EXTENDED, 5): (
        "5,4,3,2,1,2,3,4,5,3,2,1,2,3,2,1,2,1",
        "000101000010101101",
        "000101000011001011",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_catalog_entry_pinned(key):
    entry = catalog(*key)
    assert (entry.name, entry.n) == key
    letters, first, second = PINNED[key]
    assert entry.first.word.serialize() == letters
    assert entry.first.word == entry.second.word
    assert (entry.first.mask_string, entry.second.mask_string) == (first, second)


def _entries():
    yield catalog(DISJOINTNESS, 3)
    for n in range(3, 17):
        yield catalog(CLOSURE_OBSTRUCTION, n)
    for n in range(4, 17):
        yield catalog(DISJOINTNESS_EXTENDED, n)


# a regression anchor, not a derivation: SHA-256 over the 28 entries at
# n = 3..16, as the catalog built them before it was written as mask strings
CATALOG_DIGEST = "69f28b0ddc47042a885b2c10f7fcb7901d1e0641e282ba7dd422c7c84ae4e8e2"


def test_catalog_digest():
    lines = []
    for entry in _entries():
        lines.append(f"{entry.name} {entry.n} {entry.first.word.serialize()}")
        for sub in (entry.first, entry.second):
            partials = ";".join(x.serialize() for x in sub.partials)
            lines.append(f"{sub.mask_string} {partials}")
    assert len(lines) == 3 * 28
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST
