"""Seeded input generators, one per workload.

Each generator draws only from its own ``random.Random`` built from the
workload name and the seed, and uses only :mod:`reference` and the frozen
pools of this directory, so the same seed gives byte-identical inputs and the
program under test never sees the seed.  Samples are stratified so that every
seed asks for the same amount of work: the seed chooses which members of each
equal-cost stratum are run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference

# Regression anchors, not derivations: distinguished-mask counts of the
# closure-obstruction catalog words at n = 3, 4, 5 as enumerated at the
# commit that introduced this benchmark.
DISTINGUISHED_ANCHORS = {3: 121, 4: 1253, 5: 13066}

CENSUS_B3_MAX_LENGTH = 7
WITNESS_TOP_RANK = 9
CLOSURE_POOL_FILE = Path(__file__).resolve().parent / "closure_pool.json"
ORACLE_POOL_FILE = Path(__file__).resolve().parent / "oracle_pool.json"
OBSTRUCTION_RANKS = (3, 4)
CLOSURE_RANK = 5
CLOSURE_GAMMAS = 4
DISJOINTNESS_WORD = (3, 2, 1, 2, 3, 2, 1, 2, 1)
ORACLE_RANKS = (3, 4)
ORACLE_MAX_FACTORS = 8
ORACLE_WORDS_PER_STRATUM = 2
ORACLE_COEFFS = (-3, -2, -1, 1, 2, 3)
COUNT_PRIMES = (2, 3, 5, 7)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def anchored_masks(n: int) -> list[tuple[str, list]]:
    """Distinguished masks of the rank-n obstruction word, checked against
    the frozen anchor count."""
    group = reference.Group("B", n)
    masks = group.distinguished_masks(reference.obstruction_word(n))
    if len(masks) != DISTINGUISHED_ANCHORS[n]:
        raise AssertionError(
            f"regression anchor: {len(masks)} distinguished masks at n={n}, "
            f"expected {DISTINGUISHED_ANCHORS[n]}"
        )
    return masks


def census(seed: int) -> dict:
    """Elements of W(A_3) and W(B_3), one per (length, reduced-word count)
    stratum; a job costs about the same for every element of one stratum.
    Every stratum of A_3 is used, so its longest element always is.  B_3
    uses lengths up to CENSUS_B3_MAX_LENGTH: its 84 words of length 8 and 9
    would take several times as long as the rest of the pass, leaving room
    for too few passes in a run."""
    rng = _rng("census", seed)
    groups = []
    for family, rank, max_length in (("A", 3, None), ("B", 3, CENSUS_B3_MAX_LENGTH)):
        group = reference.Group(family, rank)
        strata: dict[tuple[int, int], list] = {}
        for w in group.elements:
            if max_length is None or group.length[w] <= max_length:
                key = (group.length[w], group.reduced_word_count(w))
                strata.setdefault(key, []).append(w)
        chosen = [list(rng.choice(strata[key])) for key in sorted(strata)]
        groups.append({
            "family": family,
            "rank": rank,
            "endpoints": [list(w) for w in group.elements],
            "elements": chosen,
        })
    return {"groups": groups}


def closure_pool() -> dict[str, int]:
    """Gammas of the rank-5 word whose closure bounds have similar sizes,
    with those sizes (see build_closure_pool.py)."""
    pool = json.loads(CLOSURE_POOL_FILE.read_text(encoding="utf-8"))
    if pool["rank"] != CLOSURE_RANK:
        raise ValueError(f"{CLOSURE_POOL_FILE.name} is for rank {pool['rank']}")
    return pool["sizes"]


def scan(seed: int) -> dict:
    """The obstruction words at n = 3, 4, CLOSURE_GAMMAS gammas of the n = 5
    word drawn from the pool of equal-cost gammas, and the longest word of
    B_3 with all 48 endpoints."""
    rng = _rng("scan", seed)
    for n in (*OBSTRUCTION_RANKS, CLOSURE_RANK):
        anchored_masks(n)
    return {
        "obstruction_ranks": list(OBSTRUCTION_RANKS),
        "closure_rank": CLOSURE_RANK,
        "gammas": rng.sample(sorted(closure_pool()), CLOSURE_GAMMAS),
        "disjointness_word": list(DISJOINTNESS_WORD),
        "endpoints": [list(w) for w in reference.Group("B", 3).elements],
        "check_seed": rng.randrange(2 ** 32),
    }


def witness(seed: int) -> dict:
    """Fixed ranks 3..WITNESS_TOP_RANK; the seed is recorded but unused."""
    return {"ranks": list(range(3, WITNESS_TOP_RANK + 1))}


def oracle_pool() -> dict[str, dict]:
    """Random words per "rank:factor count" stratum, all collecting to the
    same number of factors (see build_oracle_pool.py)."""
    return json.loads(ORACLE_POOL_FILE.read_text(encoding="utf-8"))


def oracle(seed: int) -> dict:
    """ORACLE_WORDS_PER_STRATUM random unipotent words for every (rank,
    factor count) pair of B_3 and B_4, drawn from the pool of words whose
    collected forms have equal length, then exhaustive flag counts.  Fixing
    both lengths fixes the number of dense matrix products per seed."""
    rng = _rng("oracle", seed)
    pool = oracle_pool()
    words = []
    for rank in ORACLE_RANKS:
        for k in range(1, ORACLE_MAX_FACTORS + 1):
            stratum = pool[f"{rank}:{k}"]
            for factors in rng.sample(stratum["words"], ORACLE_WORDS_PER_STRATUM):
                words.append({"rank": rank, "factors": factors, "collected": stratum["collected"]})
    return {"words": words, "primes": [7, 11], "count_primes": list(COUNT_PRIMES)}


GENERATORS = {"census": census, "scan": scan, "witness": witness, "oracle": oracle}
