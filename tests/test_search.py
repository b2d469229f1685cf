import hashlib

import pytest

from conftest import expected_neg_phi_first, expected_neg_phi_second
from deodhar import cells, search
from deodhar.cells import (
    CELLS_BOUND,
    cell,
    cells_with_endpoint,
    enumerate_subexpressions,
    is_distinguished,
    preceq,
)
from deodhar.roots import root_system
from deodhar.search import (
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    DISJOINTNESS_EXTENDED,
    catalog,
    disjointness_certificate,
    find_obstructions,
    scan_disjointness,
)
from deodhar.weyl import context, parse_word


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closure_obstruction_catalog(n):
    entry = catalog(CLOSURE_OBSTRUCTION, n)
    assert len(entry.word) == 4 * n - 4
    assert is_distinguished(entry.first) and is_distinguished(entry.second)
    assert preceq(entry.second, entry.first)
    first, second = cell(entry.first), cell(entry.second)
    assert first.dimension == 2 * n
    assert second.dimension == 3 * n - 3
    assert first.sub.endpoint.is_identity() and second.sub.endpoint.is_identity()
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
    assert entry.word.letters == (3, 2, 1, 2, 3, 2, 1, 2, 1)
    assert entry.first.mask == (0, 1, 0, 1, 0, 1, 1, 0, 1)
    assert entry.second.mask == (0, 1, 1, 0, 0, 1, 0, 1, 1)
    from conftest import expected_neg_phi_sigma, expected_neg_phi_tau

    both = (cell(entry.first), cell(entry.second))
    assert [-e.root for e in both[0].phi] == expected_neg_phi_sigma()
    assert [-e.root for e in both[1].phi] == expected_neg_phi_tau()
    assert {c.dimension for c in both} == {6}
    t2 = context("B", 3).from_word([2])
    assert {c.sub.endpoint for c in both} == {t2}


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
    assert len(entry.word) == 2 * n + 8
    first, second = cell(entry.first), cell(entry.second)
    assert first.sub.endpoint == second.sub.endpoint
    assert first.dimension == second.dimension == 2 * n + 4
    assert preceq(entry.second, entry.first)
    certificate = disjointness_certificate(first, second)
    assert certificate is not None
    assert certificate.root == -root_system("B", n).simple(1)


def test_find_obstructions_trivial_word():
    word = parse_word(context("B", 3), "1")
    assert find_obstructions(word) == []


def test_scan_bounds():
    long_word = catalog(CLOSURE_OBSTRUCTION, 7).word  # 24 letters
    with pytest.raises(ValueError):
        find_obstructions(long_word)
    with pytest.raises(ValueError):
        scan_disjointness(long_word, context("B", 7).identity)


def test_pairwise_bound(monkeypatch):
    # the rank-5 catalog word has 13,066 distinguished masks, PAIRS_BOUND 1,300
    with pytest.raises(ValueError, match="more than 1300 distinguished masks"):
        find_obstructions(catalog(CLOSURE_OBSTRUCTION, 5).word)
    entry = catalog(DISJOINTNESS, 3)
    v = context("B", 3).from_word([2])
    monkeypatch.setattr(search, "PAIRS_BOUND", len(cells_with_endpoint(entry.word, v)) - 1)
    with pytest.raises(ValueError, match="cells end at"):
        scan_disjointness(entry.word, v)


def test_find_obstructions_equal_dimension_boundary():
    entry = catalog(CLOSURE_OBSTRUCTION, 3)
    reports = find_obstructions(entry.word)
    assert any(
        rep.first.sub == entry.first
        and rep.second.sub == entry.second
        and (rep.first.dimension, rep.second.dimension) == (6, 6)
        for rep in reports
    )
    for rep in reports:
        assert rep.second.dimension >= rep.first.dimension
        assert rep.first.sub != rep.second.sub
        assert preceq(rep.second.sub, rep.first.sub)


@pytest.mark.parametrize("n", [3, 4])
def test_find_obstructions_matches_all_pairs(n):
    word = catalog(CLOSURE_OBSTRUCTION, n).word
    descriptors = [cell(sub) for sub in enumerate_subexpressions(word, CELLS_BOUND)]
    expected = [
        (gamma.mask_string, delta.mask_string)
        for gamma in descriptors
        for delta in descriptors
        if gamma is not delta
        and delta.dimension >= gamma.dimension
        and preceq(delta.sub, gamma.sub)
    ]
    reports = find_obstructions(word)
    assert [(r.first.mask_string, r.second.mask_string) for r in reports] == expected


@pytest.mark.parametrize("n, pairs, deeper", [(3, 13, 0), (4, 452, 19)])
def test_find_obstructions_pair_counts(n, pairs, deeper):
    # regression anchors: the number of reported pairs, and how many of them
    # have dim(delta) > dim(gamma) rather than equal dimensions
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, n).word)
    assert len(reports) == pairs
    assert sum(r.second.dimension > r.first.dimension for r in reports) == deeper


def test_find_obstructions_digest_n4():
    # regression anchor, not a derivation: SHA-256 of the (first, second)
    # mask list at n=4, as the per-gamma walks reported it before the
    # shared walk replaced them
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, 4).word)
    pairs = repr([(r.first.mask_string, r.second.mask_string) for r in reports])
    assert hashlib.sha256(pairs.encode()).hexdigest() == (
        "3c5cf13e6a0904a7a79a3e3516f411dc0dfb57cb7ab242afbcfea9b1653d3bc9"
    )


def test_find_obstructions_contains_catalog_pair_n4():
    entry = catalog(CLOSURE_OBSTRUCTION, 4)
    reports = find_obstructions(entry.word)
    assert any(
        rep.first.sub == entry.first
        and rep.second.sub == entry.second
        and (rep.first.dimension, rep.second.dimension) == (8, 9)
        for rep in reports
    )


def test_scan_disjointness():
    ctx = context("B", 3)
    entry = catalog(DISJOINTNESS, 3)
    pairs = scan_disjointness(entry.word, ctx.from_word([2]))
    assert any(
        p.first.sub == entry.first and p.second.sub == entry.second for p in pairs
    )
    for p in pairs:
        # re-validate every emitted certificate from scratch
        fresh = disjointness_certificate(cell(p.first.sub), cell(p.second.sub))
        assert fresh == p.certificate
    assert scan_disjointness(parse_word(ctx, "1"), ctx.identity) == []


def test_scan_disjointness_builds_one_descriptor_per_mask(monkeypatch):
    built = []
    original = cells.cell

    def counting(sub):
        built.append(sub.mask)
        return original(sub)

    for module in (cells, search):
        monkeypatch.setattr(module, "cell", counting)
    word = catalog(DISJOINTNESS, 3).word  # a reduced word of w0 in B_3
    endpoints = list(context("B", 3).elements())
    assert len(endpoints) == 48
    for v in endpoints:
        scan_disjointness(word, v)
    masks = [s.mask for s in enumerate_subexpressions(word, CELLS_BOUND)]
    assert len(built) == len(masks) == 200
    assert sorted(built) == masks


def test_find_obstructions_builds_one_descriptor_per_reported_mask(monkeypatch):
    built = []
    original = cells.cell

    def counting(sub):
        built.append(sub.mask)
        return original(sub)

    for module in (cells, search):
        monkeypatch.setattr(module, "cell", counting)
    reports = find_obstructions(catalog(CLOSURE_OBSTRUCTION, 4).word)
    shared = {}
    for report in reports:
        for desc in (report.first, report.second):
            assert shared.setdefault(desc.sub.mask, desc) is desc
    assert len(built) == len(set(built)) == len(shared)
    assert set(built) == set(shared)
    # masks recur across the 452 reports, and most of the 1,253 masks of the
    # word are in none
    assert len(shared) < 2 * len(reports)
    assert len(shared) < 1253
