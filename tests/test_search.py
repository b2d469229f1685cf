import hashlib

import pytest

from conftest import expected_neg_phi_first, expected_neg_phi_second, preceq_by_depth
from deodhar import cells
from deodhar.cells import (
    CELLS_BOUND,
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    DISJOINTNESS_EXTENDED,
    catalog,
    cell,
    closure_pairs,
    enumerate_subexpressions,
    hasse_dot,
    is_distinguished,
    preceq,
)
from deodhar import search
from deodhar.roots import root_system
from deodhar.search import (
    disjointness_certificate,
    find_obstructions,
    scan_disjointness,
)
from deodhar.weyl import context, parse_word


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closure_obstruction_catalog(n):
    entry = catalog(CLOSURE_OBSTRUCTION, n)
    assert len(entry.first.word) == 4 * n - 4
    assert is_distinguished(entry.first) and is_distinguished(entry.second)
    assert preceq(entry.second, entry.first)
    first, second = cell(entry.first), cell(entry.second)
    assert first.dimension == 2 * n
    assert second.dimension == 3 * n - 3
    assert first.endpoint.is_identity() and second.endpoint.is_identity()
    assert [-e.root for e in first.phi] == expected_neg_phi_first(n)
    assert [-e.root for e in second.phi] == expected_neg_phi_second(n)
    # the deeper cell has its 2n-2 punctured-line coordinates first
    assert [e.free for e in second.phi] == [True] * (2 * n - 2) + [False] * (n - 1)


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        catalog(CLOSURE_OBSTRUCTION, 2)
    with pytest.raises(ValueError):
        catalog(DISJOINTNESS, 4)
    with pytest.raises(ValueError):
        catalog(DISJOINTNESS_EXTENDED, 3)
    with pytest.raises(ValueError):
        catalog("unknown")


def test_disjointness_catalog_masks_and_sequences():
    entry = catalog(DISJOINTNESS, 3)
    assert entry.first.word.letters == (3, 2, 1, 2, 3, 2, 1, 2, 1)
    assert entry.first.mask == (0, 1, 0, 1, 0, 1, 1, 0, 1)
    assert entry.second.mask == (0, 1, 1, 0, 0, 1, 0, 1, 1)
    from conftest import expected_neg_phi_sigma, expected_neg_phi_tau

    both = (cell(entry.first), cell(entry.second))
    assert [-e.root for e in both[0].phi] == expected_neg_phi_sigma()
    assert [-e.root for e in both[1].phi] == expected_neg_phi_tau()
    assert {c.dimension for c in both} == {6}
    t2 = context("B", 3).from_word([2])
    assert {c.endpoint for c in both} == {t2}


def test_disjointness_certificate_base_pair():
    entry = catalog(DISJOINTNESS, 3)
    first, second = cell(entry.first), cell(entry.second)
    certificate = disjointness_certificate(first, second)
    assert certificate is not None
    assert certificate.root == -root_system("B", 3).simple(1)
    assert certificate.witness_index == 7
    # what the certificate asserts, re-derived from the two root sequences
    assert all(e.root != certificate.root for e in first.phi)
    [hit] = [e for e in second.phi if e.root == certificate.root]
    assert hit.index == 7 and hit.free


def test_disjointness_certificate_self_pair_is_none():
    entry = catalog(DISJOINTNESS, 3)
    first = cell(entry.first)
    assert disjointness_certificate(first, first) is None


def test_disjointness_certificate_preconditions():
    entry = catalog(DISJOINTNESS, 3)
    other = catalog(CLOSURE_OBSTRUCTION, 3)
    with pytest.raises(ValueError):
        disjointness_certificate(cell(entry.first), cell(other.first))  # different words
    from deodhar.cells import subexpression

    word = parse_word(context("A", 2), "1,2,1")
    good = cell(subexpression(word, "001"))
    with pytest.raises(ValueError):
        disjointness_certificate(cell(subexpression(word, "000")), good)  # endpoints differ


@pytest.mark.parametrize("n", [4, 5])
def test_extended_pairs_certify(n):
    entry = catalog(DISJOINTNESS_EXTENDED, n)
    assert is_distinguished(entry.first) and is_distinguished(entry.second)
    assert len(entry.first.word) == 2 * n + 8
    first, second = cell(entry.first), cell(entry.second)
    assert first.endpoint == second.endpoint
    assert first.dimension == second.dimension == 2 * n + 4
    assert preceq(entry.second, entry.first)
    certificate = disjointness_certificate(first, second)
    assert certificate is not None
    assert certificate.root == -root_system("B", n).simple(1)


def test_find_obstructions_trivial_word():
    word = parse_word(context("B", 3), "1")
    assert find_obstructions(word) == []


def test_scan_bounds():
    long_word = catalog(CLOSURE_OBSTRUCTION, 7).first.word  # 24 letters
    with pytest.raises(ValueError):
        find_obstructions(long_word)
    with pytest.raises(ValueError):
        scan_disjointness(long_word, context("B", 7).identity)


def test_pairwise_bound(monkeypatch):
    # the rank-5 catalog word has 13,066 distinguished masks, PAIRS_BOUND 1,300
    with pytest.raises(ValueError, match="more than 1300 distinguished masks"):
        find_obstructions(catalog(CLOSURE_OBSTRUCTION, 5).first.word)
    word = catalog(DISJOINTNESS, 3).first.word
    v = context("B", 3).from_word([2])
    pairs = scan_disjointness(word, v)
    size = len(search._double_cells(word, cells.PAIRS_BOUND)[v][0])
    # one binding: every pairwise consumer reads cells.PAIRS_BOUND when called,
    # also after a table was built under a larger bound
    monkeypatch.setattr(cells, "PAIRS_BOUND", size - 1)
    with pytest.raises(ValueError, match=f"^more than {size - 1} cells end at 2,1,3$"):
        scan_disjointness(word, v)
    for scan in (find_obstructions, hasse_dot):
        with pytest.raises(ValueError, match="distinguished masks"):
            scan(word)
    # a table built under a smaller bound holds no relation for v, and a
    # scan under a larger one reads the table of its own bound
    assert search._double_cells(word, size - 1)[v][1] is None
    monkeypatch.setattr(cells, "PAIRS_BOUND", size)
    assert scan_disjointness(word, v) == pairs


def test_find_obstructions_equal_dimension_boundary():
    entry = catalog(CLOSURE_OBSTRUCTION, 3)
    reports = find_obstructions(entry.first.word)
    assert any(
        (rep.first.mask, rep.second.mask) == (entry.first.mask, entry.second.mask)
        and (rep.first.dimension, rep.second.dimension) == (6, 6)
        for rep in reports
    )
    for rep in reports:
        assert rep.second.dimension >= rep.first.dimension
        assert rep.first.mask != rep.second.mask
        assert preceq(rep.second, rep.first)


def _obstruction_pairs_by_preceq(descriptors):
    """Every ordered pair (gamma, delta) with delta preceq gamma and
    dim delta >= dim gamma, by ``preceq`` on each pair."""
    return [
        (gamma.mask_string, delta.mask_string)
        for gamma in descriptors
        for delta in descriptors
        if gamma is not delta
        and delta.dimension >= gamma.dimension
        and preceq(delta, gamma)
    ]


def _obstruction_pairs_by_depth(descriptors):
    """The same pairs from the definition of preceq, read from the
    per-depth relation of ``preceq_by_depth``."""
    below, _ = preceq_by_depth(descriptors)
    pairs = []
    for gamma, bits in zip(descriptors, below):
        while bits:
            low = bits & -bits
            delta = descriptors[low.bit_length() - 1]
            if delta is not gamma and delta.dimension >= gamma.dimension:
                pairs.append((gamma.mask_string, delta.mask_string))
            bits ^= low
    return pairs


@pytest.mark.parametrize("n", [3, 4])
def test_find_obstructions_matches_all_pairs(n):
    word = catalog(CLOSURE_OBSTRUCTION, n).first.word
    descriptors = list(enumerate_subexpressions(word, CELLS_BOUND))
    expected = _obstruction_pairs_by_depth(descriptors)
    if n == 3:
        # the two references agree where the pairwise one is cheap
        assert expected == _obstruction_pairs_by_preceq(descriptors)
    reports = find_obstructions(word)
    assert [(r.first.mask_string, r.second.mask_string) for r in reports] == expected


@pytest.mark.parametrize("n, pairs, deeper", [(3, 13, 0), (4, 452, 19)])
def test_find_obstructions_pair_counts(n, pairs, deeper):
    # regression anchors: the number of reported pairs, and how many of them
    # have dim(delta) > dim(gamma) rather than equal dimensions
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, n).first.word)
    assert len(reports) == pairs
    assert sum(r.second.dimension > r.first.dimension for r in reports) == deeper


def test_find_obstructions_pair_count_b3_w0():
    # regression anchor: the reports on w0 of B_3, all of equal dimensions
    reports = find_obstructions(catalog(DISJOINTNESS, 3).first.word)
    assert len(reports) == 34
    assert all(r.second.dimension == r.first.dimension for r in reports)


def test_find_obstructions_digest_n4():
    # regression anchor, not a derivation: SHA-256 of the (first, second)
    # mask list at n=4, as the per-gamma walks reported it before the
    # shared walk replaced them
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, 4).first.word)
    pairs = repr([(r.first.mask_string, r.second.mask_string) for r in reports])
    assert hashlib.sha256(pairs.encode()).hexdigest() == (
        "3c5cf13e6a0904a7a79a3e3516f411dc0dfb57cb7ab242afbcfea9b1653d3bc9"
    )


def test_find_obstructions_contains_catalog_pair_n4():
    entry = catalog(CLOSURE_OBSTRUCTION, 4)
    reports = find_obstructions(entry.first.word)
    assert any(
        (rep.first.mask, rep.second.mask) == (entry.first.mask, entry.second.mask)
        and (rep.first.dimension, rep.second.dimension) == (8, 9)
        for rep in reports
    )


def test_scan_disjointness():
    ctx = context("B", 3)
    entry = catalog(DISJOINTNESS, 3)
    pairs = scan_disjointness(entry.first.word, ctx.from_word([2]))
    assert any(
        (p.first.mask, p.second.mask) == (entry.first.mask, entry.second.mask) for p in pairs
    )
    for p in pairs:
        # re-validate every emitted certificate from scratch
        fresh = disjointness_certificate(cell(p.first), cell(p.second))
        assert fresh == p.certificate
    assert scan_disjointness(parse_word(ctx, "1"), ctx.identity) == []


def test_scan_disjointness_matches_all_pairs(monkeypatch):
    word = catalog(DISJOINTNESS, 3).first.word  # a reduced word of w0 in B_3
    endpoints = list(context("B", 3).elements())
    assert len(endpoints) == 48
    walk = list(enumerate_subexpressions(word, CELLS_BOUND))
    expected = []
    for v in endpoints:
        # every ordered pair of distinct descriptors with endpoint v
        descriptors = [d for d in walk if d.endpoint is v]
        for first in descriptors:
            for second in descriptors:
                if first is not second and preceq(second, first):
                    certificate = disjointness_certificate(first, second)
                    if certificate is not None:
                        expected.append((first.mask_string, second.mask_string, certificate))

    def forbidden(delta, gamma):
        raise AssertionError("scan_disjointness called preceq")

    # the scan reads the closure relation of each endpoint, never preceq
    monkeypatch.setattr(cells, "preceq", forbidden)
    search._double_cells.cache_clear()
    found = [
        (p.first.mask_string, p.second.mask_string, p.certificate)
        for v in endpoints
        for p in scan_disjointness(word, v)
    ]
    assert found == expected
    assert len(found) == 2


@pytest.mark.parametrize(
    "word",
    [
        catalog(CLOSURE_OBSTRUCTION, 3).first.word,
        catalog(CLOSURE_OBSTRUCTION, 4).first.word,
        catalog(DISJOINTNESS, 3).first.word,
    ],
    ids=["catalog-3", "catalog-4", "b3-w0"],
)
def test_double_cell_relations_restrict_closure_pairs(word):
    # each endpoint's relation in the table is the relation of the whole
    # word restricted to the masks that end there
    descs, above = closure_pairs(word)
    above = list(above)
    index = {d.mask: a for a, d in enumerate(descs)}
    table = search._double_cells(word, cells.PAIRS_BOUND)
    assert sorted(index[d.mask] for group, _ in table.values() for d in group) == list(
        range(len(descs))
    )
    for v, (group, relation) in table.items():
        assert all(d.endpoint is v for d in group)
        positions = [index[d.mask] for d in group]
        assert positions == sorted(positions)
        restricted = [
            sum(1 << b for b, p in enumerate(positions) if above[a] >> p & 1)
            for a in positions
        ]
        assert relation == restricted, v.window


def _forbid_cell(monkeypatch):
    """Make a call of cell() fail: the scans take the walk's descriptors.
    ``search`` reaches ``cell`` only through the ``cells`` module, so patching
    it there covers both, and a renamed ``cell`` fails the patch loudly."""

    def forbidden(sub):
        raise AssertionError(f"cell() called on {sub.mask_string}")

    monkeypatch.setattr(cells, "cell", forbidden)


def test_scan_disjointness_builds_one_descriptor_per_mask(monkeypatch):
    walks = []
    original = cells.enumerate_below

    def counting(*args, **kwargs):
        walks.append(0)
        for item in original(*args, **kwargs):
            walks[-1] += 1
            yield item

    monkeypatch.setattr(cells, "enumerate_below", counting)
    _forbid_cell(monkeypatch)
    search._double_cells.cache_clear()
    word = catalog(DISJOINTNESS, 3).first.word  # a reduced word of w0 in B_3
    endpoints = list(context("B", 3).elements())
    assert len(endpoints) == 48
    scans = [scan_disjointness(word, v) for v in endpoints]
    # all 48 endpoints read one table, built by one walk over the 200 masks
    assert walks == [200]
    by_mask = {}
    table = search._double_cells(word, cells.PAIRS_BOUND)
    for v in endpoints:
        for desc in table.get(v, ([], None))[0]:
            assert by_mask.setdefault(desc.mask, desc) is desc
    assert walks == [200]
    assert len(by_mask) == 200
    # the certified pairs hold the table's descriptors, one per mask
    assert sum(map(len, scans)) > 0
    for pairs in scans:
        for p in pairs:
            assert by_mask[p.first.mask] is p.first
            assert by_mask[p.second.mask] is p.second


def test_scan_disjointness_rejects_other_group():
    word = catalog(DISJOINTNESS, 3).first.word
    for v in (context("B", 4).identity, context("A", 3).identity):
        with pytest.raises(ValueError, match="different contexts"):
            scan_disjointness(word, v)


def test_find_obstructions_builds_one_descriptor_per_reported_mask(monkeypatch):
    first_walk = []
    original = cells.enumerate_subexpressions

    def recording(word, bound):
        first_walk.extend(original(word, bound))
        return iter(first_walk)

    monkeypatch.setattr(cells, "enumerate_subexpressions", recording)
    _forbid_cell(monkeypatch)
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, 4).first.word)
    assert len(first_walk) == 1253
    by_mask = {desc.mask: desc for desc in first_walk}
    shared = {}
    for report in reports:
        for desc in (report.first, report.second):
            # the reports hold the first walk's descriptors by identity
            assert by_mask[desc.mask] is desc
            assert shared.setdefault(desc.mask, desc) is desc
    # masks recur across the 452 reports, and most of the 1,253 masks of the
    # word are in none
    assert len(shared) < 2 * len(reports)
    assert len(shared) < 1253
