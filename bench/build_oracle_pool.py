"""Rebuild ``oracle_pool.json``, the words the oracle workload samples from.

    python3 bench/build_oracle_pool.py

An oracle job multiplies out a word and its collected form in the adjoint
representation, one dense matrix product per factor, so its cost follows the
number of factors of both.  The collected form of a random word can be much
shorter or longer than the word.  So that every seed asks for about the same
work, this script draws ``CANDIDATES`` random words for every (rank, factor
count) stratum with a fixed seed, collects each with the program, and keeps
the words whose collected length is the stratum's median.  The lengths are
regression anchors: the oracle check compares them with the program's
output.  A canonical form is unique, so the lengths do not depend on how the
program collects.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
from deodhar import chevalley, laurent, roots  # noqa: E402

CANDIDATES = 40


def random_factors(rng: random.Random, rank: int, k: int) -> list:
    negatives = reference.negative_roots_b(rank)
    return [[list(rng.choice(negatives)), rng.choice(inputs.ORACLE_COEFFS)] for _ in range(k)]


def collected_length(rank: int, factors: list) -> int:
    system = roots.root_system("B", rank)
    word = chevalley.UnipotentWord(tuple(
        chevalley.Factor(system.root(coeffs), laurent.LaurentPoly.constant(c))
        for coeffs, c in factors
    ))
    return len(chevalley.collect(word))


def main() -> int:
    rng = random.Random("oracle-pool")
    strata = {}
    for rank in inputs.ORACLE_RANKS:
        for k in range(1, inputs.ORACLE_MAX_FACTORS + 1):
            words = [random_factors(rng, rank, k) for _ in range(CANDIDATES)]
            lengths = [collected_length(rank, w) for w in words]
            middle = int(statistics.median_low(lengths))
            strata[f"{rank}:{k}"] = {
                "collected": middle,
                "words": [w for w, m in zip(words, lengths) if m == middle],
            }
            print(f"B{rank}, {k} factors: {len(strata[f'{rank}:{k}']['words'])} words "
                  f"collect to {middle} factors")
    (HERE / "oracle_pool.json").write_text(json.dumps(strata) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
