"""Rebuild ``closure_pool.json``, the gammas the scan workload samples from.

    python3 bench/build_closure_pool.py

The cost of ``closure_upper_bound(gamma)`` on the rank-5 obstruction word
grows with the number of cells it returns, which ranges from a handful to
thousands.  So that every seed asks for about the same work, the scan
workload draws its gammas from a pool whose bounds all have sizes in a band
around the median.  This script samples distinguished masks with a fixed
seed, computes each bound with the program, and keeps the band.  The sizes
are stored as regression anchors: the scan check compares them with the
program's output.
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
from deodhar import cells, weyl  # noqa: E402

CANDIDATES = 240
BAND = 0.25  # keep sizes within this share of the median size


def main() -> int:
    n = inputs.CLOSURE_RANK
    letters = reference.obstruction_word(n)
    masks = [mask for mask, _ in inputs.anchored_masks(n)]
    word = weyl.ReducedWord(weyl.context("B", n), letters)
    sizes = {}
    for mask in random.Random(0).sample(masks, CANDIDATES):
        sizes[mask] = len(cells.closure_upper_bound(cells.subexpression(word, mask)))
    middle = statistics.median(sizes.values())
    pool = {m: s for m, s in sorted(sizes.items()) if abs(s - middle) <= BAND * middle}
    out = {"rank": n, "median_size": middle, "band": BAND, "sizes": pool}
    (HERE / "closure_pool.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"{len(pool)} of {CANDIDATES} gammas within {BAND:.0%} of the median size {middle}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
