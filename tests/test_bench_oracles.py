"""The benchmark's digests and oracles, run with the tests.

``bench/`` checks every op it times against an oracle that does not go
through the timed code path, and hashes the canonical results of a fixed
op list into ``bench/digests.json``.  Here each workload recomputes its
digest and runs a short fixed stream of ops through the same checks, so a
change that moves a canonical choice or fails an oracle shows up without a
benchmark run.  ``bench/`` is imported as ``tools/replay_cli.py`` imports
it: its directory goes on ``sys.path``.
"""

import importlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = sorted(json.loads((BENCH / "digests.json").read_text()))
OPS = 200
SEED = 5


@pytest.fixture(scope="module")
def bench():
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    worker = importlib.import_module("worker")
    return worker, worker.import_package()


@pytest.mark.parametrize("name", WORKLOADS)
def test_digest_is_the_recorded_one(bench, name):
    worker, pkg = bench
    digest, failed = worker.digest(worker.workloads.WORKLOADS[name](pkg), f"{name}:digest")
    assert failed == 0
    assert digest == json.loads(worker.DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_op_passes_its_oracle(bench, name):
    worker, pkg = bench
    wl = worker.workloads.WORKLOADS[name](pkg)
    state = wl.setup()
    run = worker.Run(wl)
    for op in itertools.islice(wl.ops(random.Random(f"{name}:{SEED}")), OPS):
        _, result = run.attempt(state, op)
        run.verify(state, op, result)
    assert run.failed == 0
