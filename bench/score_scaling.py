"""Time `evaluate.score` on each cli-chapters file, one file at a time, scored against its gold.

    python3 bench/score_scaling.py --seed 1

Prints, per file, the gold annotations, the median scoring time of three
calls, and that time over the square of the annotations: a flat last column
means scoring grows with the square of the annotations in a document.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import time

import corpus
from run import import_makan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    makan = import_makan()
    docs = sorted(corpus.cli_chapters(args.seed, corpus.load_suite()), key=lambda d: len(d.pieces))
    print(f"{'file':<6}{'sentences':>11}{'tokens':>8}{'annotations':>13}{'score ms':>11}{'ns/ann^2':>10}")
    for doc in docs:
        obj = {"doc_id": doc.doc_id, "text": doc.text, "annotations": doc.gold()}
        gold = makan.read_annotations(io.StringIO(json.dumps(obj)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            makan.score([gold], [gold], makan.MatchMode.TRIGGER_EXACT)
            times.append(time.perf_counter() - start)
        n = len(gold.annotations)
        ms = 1000 * statistics.median(times)
        print(f"{doc.doc_id:<6}{len(doc.pieces):>11}{doc.tokens:>8}{n:>13}{ms:>11.2f}{1e6 * ms / max(n, 1) ** 2:>10.1f}")


if __name__ == "__main__":
    main()
