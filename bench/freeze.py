"""Freeze the answers of the current library for later runs to check.

    python3 bench/freeze.py [--workload NAME ...]

Writes frozen/<workload>.json: for oracle_dimdeg the degree of every
(7, 3) triple, for mult_paths and brsk_roundtrip a digest per block of
BLOCK queries of the stream of each shipped seed.  Every answer must
first pass the workload's independent check.  groebner_verify checks
itself (exit code and "0 mismatches") and freezes nothing.
"""

import argparse
import json
import sys
from itertools import islice

from run import ROOT, Library, run_query
from workloads import BLOCK, FROZEN, WORKLOADS, digest, dimension

QUERIES = {"mult_paths": 30000, "brsk_roundtrip": 100000}  # per seed, ~4x a run
SEEDS = (0, 1)


def freeze_streams(name, lib):
    frozen = {"block": BLOCK, "seeds": {}}
    for seed in SEEDS:
        workload = WORKLOADS[name](seed)
        blocks, pairs = [], []
        for q in islice(workload.queries(seed), QUERIES[name]):
            out = run_query(workload, lib, q)
            if not workload.check(q, out):
                raise SystemExit("%s seed %d: wrong answer %r -> %r" % (name, seed, q, out))
            pairs.append((q, workload.answer(q, out)))
            if len(pairs) == BLOCK:
                blocks.append(digest(pairs))
                pairs = []
        frozen["seeds"][str(seed)] = blocks
    return frozen


def freeze_degrees(lib):
    workload = WORKLOADS["oracle_dimdeg"](0)
    degrees = []
    for q in workload.domain:
        dim, degree = run_query(workload, lib, q)
        if dim != dimension(q):
            raise SystemExit("oracle_dimdeg: wrong dimension %r -> %r" % (q, dim))
        degrees.append(degree)
    return {"n": workload.N, "d": workload.D, "degrees": degrees}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=["oracle_dimdeg", *QUERIES], choices=["oracle_dimdeg", *QUERIES])
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    lib = Library()
    FROZEN.mkdir(exist_ok=True)
    for name in args.workload:
        frozen = freeze_degrees(lib) if name == "oracle_dimdeg" else freeze_streams(name, lib)
        (FROZEN / (name + ".json")).write_text(json.dumps(frozen, separators=(",", ":")) + "\n")
        print("froze", name)


if __name__ == "__main__":
    main()
