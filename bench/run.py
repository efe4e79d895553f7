"""Benchmark entry point for adelic_kummer.

    python3 bench/run.py --workload <kummer-l0|tower|cli-mix> --seed N \
        --seconds S --trace <0|1>

Run from the repository root.  Set-up time is measured on ``SETUP_SAMPLES``
fresh interpreters (the last one also runs the workload), each sample scaled
by the speed factor its worker measured (see ``speed.py``), and reported as
their median.  With ``--trace 0`` the result holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics; a readable report goes first and
the result is the last line of standard output.  The program is run from
``src/`` of the checkout; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "adelic_kummer"
SETUP_SAMPLES = 9
TIMEOUT_S = 170.0
WORKLOADS = ("kummer-l0", "tower", "cli-mix")


def spawn(args, setup_only, deadline):
    """Start a worker; return (seconds from spawn to READY, the speed factor
    it measured right after, its final JSON or None)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        word, _, factor = proc.stdout.readline().partition(" ")
        if word != "SPEED":
            raise RuntimeError("worker did not report its speed")
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, float(factor), (json.loads(lines[-1]) if lines else None)


def src_line_count():
    return sum(len(path.read_text().splitlines()) for path in PACKAGE.rglob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description="adelic_kummer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no program source under {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    setups = []  # (seconds to READY, speed factor)
    try:
        for k in range(SETUP_SAMPLES):
            ready, factor, res = spawn(args, k < SETUP_SAMPLES - 1, deadline)
            setups.append((ready, factor))
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    lat = res["latency"]
    print(f"workload {args.workload} seed {args.seed}: {lat['n']} ops in "
          f"{res['busy_s']:.2f} s of timed calls, then the digest ops; {res['failed']} of "
          f"{res['attempted']} failed (failed_ratio {res['failed'] / res['attempted']:.4f})")
    print(f"latency as measured: p50 {lat['p50_ms']:.3f} ms, p{lat['tail_pct']:g} "
          f"{lat['tail_ms']:.3f} ms over {lat['n']} samples, {lat['beyond_tail']} beyond "
          f"the tail percentile; {res['ops_per_s']:.2f} ops/s")
    print(f"set-up samples as measured (s): {', '.join(f'{s:.4f}' for s, _ in setups)}; "
          f"speed factors {', '.join(f'{f:.3f}' for _, f in setups)}")
    print(f"digest {res['digest']} ({'matches' if res['digest_ok'] else 'DOES NOT MATCH'} "
          f"bench/digests.json)")
    print(f"info: src line count {src_line_count()}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        print(f"trace: {res['spans']} spans written to {res['trace_file']}")
        declared, values = spec["per_layer"], res["layers"]
    else:
        print(f"speed factor of the run: {res['speed_factor']:.4f}")
        declared = spec["end_to_end"]
        values = {
            "ops_per_s": res["ops_per_s"] / res["speed_factor"],
            "latency_p50_ms": lat["p50_ms"] * res["speed_factor"],
            "latency_tail_ms": lat["tail_ms"] * res["speed_factor"],
            "setup_s": statistics.median(s * f for s, f in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    if {m["name"] for m in declared} != set(values):
        print("benchmark: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    correct = res["failed"] == 0 and res["digest_ok"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
