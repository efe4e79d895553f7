"""Replay seeded ``cli-mix`` requests on two source trees and compare them.

    python3 tools/replay_cli.py A B --seed S --count N

A and B are source trees, each holding ``src/adelic_kummer``.  The
requests are the first N of the benchmark's ``cli-mix`` stream for seed S,
the stream that ``bench/run.py --workload cli-mix --seed S`` runs, drawn by
``bench/workloads.CliMix`` of the repository this script belongs to.  Each
tree answers them in a subprocess of its own, all in one process as the
benchmark does.  For every request the script compares the sha256 of the
exit code and standard output.  Standard error is left out, because the
gcd warning names the path of the file that raised it.  On any difference
the script prints the first argv that differs and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def answer(tree: str, seed: int, count: int):
    """Print one line per request: the sha256 of rc and stdout, then the argv."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(BENCH)]
    pkg = importlib.import_module("adelic_kummer")
    importlib.import_module("adelic_kummer.cli")
    workloads = importlib.import_module("workloads")
    wl = workloads.CliMix(pkg)
    state = wl.setup()
    for op in itertools.islice(wl.ops(random.Random(f"cli-mix:{seed}")), count):
        try:
            rc, out = wl.run(state, op)
        except Exception as exc:  # an uncaught error is an answer too
            rc, out = "raised", type(exc).__name__
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()
        print(digest, json.dumps(op["argv"], ensure_ascii=False), flush=True)


def replay(tree: str, seed: int, count: int) -> list[tuple[str, str]]:
    cmd = [sys.executable, __file__, tree, "--seed", str(seed), "--count", str(count), "--answer"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return [tuple(line.split(" ", 1)) for line in out.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="TREE", help="the two source trees A and B")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.answer:
        answer(args.trees[0], args.seed, args.count)
        return 0
    if len(args.trees) != 2:
        parser.error("give exactly two source trees")
    a, b = (replay(tree, args.seed, args.count) for tree in args.trees)
    for i, ((hash_a, argv), (hash_b, _)) in enumerate(zip(a, b)):
        if hash_a != hash_b:
            print(f"request {i} of seed {args.seed} differs: {argv}")
            return 1
    print(f"{args.count} requests of seed {args.seed}: rc and stdout identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
