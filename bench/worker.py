"""One benchmark process: set up a workload, run it, report one JSON line.

Started by ``run.py`` in a fresh interpreter.  It prints ``READY`` once the
package is imported and every warm context is built, so the parent can time
set-up, and then ``SPEED <factor>`` from a short probe of the machine's
speed.  Unless ``--setup-only`` is given, it then runs a single-threaded
closed loop with one client until the timed calls add up to ``--seconds``.
Every op is checked; a fixed digest set of ops is then run on fresh
contexts and hashed.  With ``--trace 1`` each op runs twice, once under the tracer and
once without it on a second set of contexts, alternating which goes first,
and the micro section follows.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_traces"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SPAN_LIMIT = 3_000_000  # about 100 MB of span columns
WALL_FACTOR = 3.0  # stop a run whose checks take much longer than its ops
SETUP_PROBE_CALLS = 200
# A full collection every so many ops, outside the timed calls.  Reference
# cycles an op leaves behind (argparse parsers, in cli-mix) pile up in the
# oldest generation; collected inside a later op they would add a pause of
# several milliseconds to a random op, which a CLI call in its own process
# never pays.
COLLECT_EVERY = 64
# The tail percentile: the highest of p99.9/p99/p95 that keeps at least ten
# samples beyond it in a 20 s run on the seed code, on every workload.  It
# is fixed, so that a faster program, which fits more ops into a run, is
# compared at the same percentile.
TAIL_PCT = 99.0


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("adelic_kummer")
    for layer in tracing.LAYERS:
        importlib.import_module(f"adelic_kummer.{layer}")
    return pkg


class Run:
    def __init__(self, workload):
        self.wl = workload
        self.latencies = []
        self.failed = 0
        self.domain_errors = 0
        self.reported = 0

    def attempt(self, state, op):
        t0 = perf_counter()
        try:
            result = self.wl.run(state, op)
        except Exception as exc:  # the check decides whether it was expected
            result = workloads.Raised(exc)
        return perf_counter() - t0, result

    def verify(self, state, op, result):
        try:
            ok = self.wl.check(state, op, result)
        except Exception:
            ok = False
            self._report(traceback.format_exc())
        if not ok:
            self.failed += 1
            exc = result.exc if isinstance(result, workloads.Raised) else None
            detail = "".join(traceback.format_exception(exc)) if exc else ""
            self._report(f"check failed on {op.get('kind')} {op.get('pair', op.get('argv'))}\n{detail}")
        if self.wl.domain_error(result):
            self.domain_errors += 1
        return ok

    def _report(self, text):
        if self.reported < 5:
            self.reported += 1
            print(text, file=sys.stderr)


def run_plain(wl, state, ops, seconds, probe):
    run = Run(wl)
    busy, wall0 = 0.0, perf_counter()
    while busy < seconds and perf_counter() - wall0 < WALL_FACTOR * seconds:
        if len(run.latencies) % COLLECT_EVERY == 0:
            gc.collect()
        op = next(ops)
        dt, result = run.attempt(state, op)
        probe.after(dt)
        busy += dt
        run.latencies.append(dt)
        run.verify(state, op, result)
    return run, busy


def run_traced(wl, pkg, states, ops, seconds):
    """Each op once traced on ``states[0]`` and once untraced on
    ``states[1]``; the order alternates so neither side always runs warm."""
    tracer = tracing.Tracer()
    tracer.install(pkg)
    run, shadow = Run(wl), Run(wl)
    busy = [0.0, 0.0]  # traced, untraced
    wall0 = perf_counter()
    i = 0
    while (
        sum(busy) < seconds
        and perf_counter() - wall0 < WALL_FACTOR * seconds
        and tracer.span_count < SPAN_LIMIT
    ):
        if i % COLLECT_EVERY == 0:
            gc.collect()
        op = next(ops)
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.op = i
                tracer.enable()
            try:
                dt, result = run.attempt(states[0 if traced else 1], op)
            finally:
                tracer.disable()
            busy[0 if traced else 1] += dt
            if traced:
                run.latencies.append(dt)
                run.verify(states[0], op, result)
            else:
                shadow.verify(states[1], op, result)
        i += 1
    run.failed += shadow.failed
    return run, tracer, busy


def digest(wl, seed_text):
    """Check and hash the canonical results of a fixed op list on fresh contexts."""
    state = wl.setup()
    run = Run(wl)
    ops = wl.ops(random.Random(seed_text))
    h = hashlib.sha256()
    for _ in range(wl.digest_ops):
        op = next(ops)
        _, result = run.attempt(state, op)
        run.verify(state, op, result)
        h.update(wl.canon(op, result).encode())
        h.update(b"\n")
    return h.hexdigest(), run.failed


def latency_summary(latencies, tail_pct):
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(n - 1, max(0, math.ceil(tail_pct * n / 100) - 1))
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_pct": tail_pct,
        "tail_ms": ordered[rank] * 1e3,
        "beyond_tail": n - rank - 1,
    }


# ----------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer, by_name, top_s, run, busy, states, wl):
    ops = len(run.latencies)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0) / ops

    def self_us(name):
        return by_name.get(name, {}).get("self_s", 0.0) * 1e6 / ops

    def layer_self_us(layer):
        return sum(v["self_s"] for k, v in by_name.items() if k.startswith(layer + ".")) * 1e6 / ops

    def share(part, whole):
        return part / whole if whole else 0.0

    ctx_fn = "coeff_field.FieldCtx."
    max_degree = max(
        [tracer.max_abs_degree]
        + [ctx.abs_degree(ctx.levels - 1) for state in states for ctx in wl.contexts(state)]
    )
    out = {
        "coeff_field.self_us": layer_self_us("coeff_field"),
        "coeff_field.mul.calls": calls(ctx_fn + "mul"),
        "coeff_field.mul.self_us": self_us(ctx_fn + "mul"),
        "coeff_field.inv.calls": calls(ctx_fn + "inv"),
        "coeff_field.inv.self_us": self_us(ctx_fn + "inv"),
        "coeff_field.pow.calls": calls(ctx_fn + "pow"),
        "coeff_field.ext_mul_share": share(tracer.field_mul_ext, tracer.field_mul_total),
        "coeff_field.nth_root.calls": calls(ctx_fn + "nth_root"),
        "coeff_field.nth_root.self_us": self_us(ctx_fn + "nth_root"),
        "coeff_field.ensure_root_of_unity.self_us": self_us(ctx_fn + "ensure_root_of_unity"),
        "coeff_field.tower_extensions": tracer.tower_extensions / ops,
        "coeff_field.max_abs_degree": max_degree,
        "laurent.self_us": layer_self_us("laurent"),
    }
    for fn in ("mul", "invert", "add", "hensel_pth_root"):
        out[f"laurent.{fn}.calls"] = calls(f"laurent.{fn}")
        out[f"laurent.{fn}.self_us"] = self_us(f"laurent.{fn}")
    out["laurent.power.calls"] = calls("laurent.power")
    out["laurent.mul.mean_prec"] = share(tracer.ls_mul_prec, tracer.ls_mul_total)
    out["laurent.ext_mul_share"] = share(tracer.ls_mul_ext, tracer.ls_mul_total)
    out["adeles.self_us"] = layer_self_us("adeles")
    out["adeles.idele_mul.calls"] = calls("adeles.idele_mul")
    out["adeles.pth_power_witness.calls"] = calls("adeles.pth_power_witness")
    out["local_algebra.self_us"] = layer_self_us("local_algebra")
    for fn in ("local_isom", "oracle_pair"):
        out[f"local_algebra.{fn}.calls"] = calls(f"local_algebra.{fn}")
        out[f"local_algebra.{fn}.self_us"] = self_us(f"local_algebra.{fn}")
    out["global_galois.self_us"] = layer_self_us("global_galois")
    out["global_galois.primitive_element.calls"] = calls("global_galois.primitive_element")
    for fn in ("construct_conjugation", "verify_conjugation"):
        out[f"global_galois.{fn}.self_us"] = self_us(f"global_galois.{fn}")
    out["harrison.self_us"] = layer_self_us("harrison")
    out["p1_ingest.self_us"] = layer_self_us("p1_ingest")
    out["p1_ingest.classify_superelliptic.calls"] = calls("p1_ingest.classify_superelliptic")
    out["cli.self_us"] = layer_self_us("cli")
    out["cli.domain_error_share"] = run.domain_errors / ops
    out["trace.overhead_ratio"] = busy[0] / busy[1] - 1.0
    out["trace.unattributed_share"] = (busy[0] - top_s) / busy[0]
    return out


def time_per_call(fn, batch_s=0.01, repeats=5):
    """Median over ``repeats`` batches of the mean time of one call."""
    n, t = 1, 0.0
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        t = perf_counter() - t0
        if t >= batch_s:
            break
        n *= 2
    means = [t / n]
    for _ in range(repeats - 1):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        means.append((perf_counter() - t0) / n)
    return statistics.median(means) * 1e6


def micro_metrics(pkg):
    """The per-kernel baseline table, timed untraced on fixed inputs."""
    ls, cf = pkg.laurent, pkg.coeff_field
    rng = random.Random("micro")
    c7 = cf.FieldCtx(7, 3)
    c11 = cf.FieldCtx(11, 5)
    c11.nth_root(c11.elem(2), 5)  # level 1 of the F_11 tower, absolute degree 5
    workloads.check_envelope(c11)
    a0, b0 = c7.elem(3), c7.elem(5)
    a1 = cf.FieldElem(1, [rng.randrange(11) for _ in range(5)])
    b1 = cf.FieldElem(1, [rng.randrange(1, 11) for _ in range(5)])

    def l0(prec):
        return ls.series(c7, 0, workloads.unit_coeffs(rng, 7, prec))

    def l1(prec):
        return ls.series(
            c11, 0, [cf.FieldElem(1, [rng.randrange(1, 11) for _ in range(5)]) for _ in range(prec)]
        )

    s8, t8, s32, t32, s128, t128 = l0(8), l0(8), l0(32), l0(32), l0(128), l0(128)
    cube = ls.series(c7, 0, [1] + workloads.unit_coeffs(rng, 7, 31))  # root stays at level 0
    u16, v16 = l1(16), l1(16)
    return {
        "micro.coeff_field.mul.l0_us": time_per_call(lambda: c7.mul(a0, b0)),
        "micro.coeff_field.mul.l1_us": time_per_call(lambda: c11.mul(a1, b1)),
        "micro.coeff_field.inv.l1_us": time_per_call(lambda: c11.inv(b1)),
        "micro.laurent.mul.l0_p8_us": time_per_call(lambda: ls.mul(s8, t8)),
        "micro.laurent.mul.l0_p32_us": time_per_call(lambda: ls.mul(s32, t32)),
        "micro.laurent.mul.l0_p128_us": time_per_call(lambda: ls.mul(s128, t128), batch_s=0.03),
        "micro.laurent.mul.l1_p16_us": time_per_call(lambda: ls.mul(u16, v16), batch_s=0.03),
        "micro.laurent.invert.l0_p32_us": time_per_call(lambda: ls.invert(s32)),
        "micro.laurent.hensel_pth_root.l0_p32_us": time_per_call(
            lambda: ls.hensel_pth_root(cube), batch_s=0.03
        ),
    }


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = import_package()
    wl = workloads.WORKLOADS[args.workload](pkg)
    states = [wl.setup() for _ in range(2 if args.trace else 1)]
    for state in states:
        for ctx in wl.contexts(state):
            workloads.check_envelope(ctx)
    print("READY", flush=True)
    # the machine's speed just after set-up, to normalise the set-up time
    print("SPEED", speed.SpeedProbe().run(SETUP_PROBE_CALLS), flush=True)
    if args.setup_only:
        return 0

    ops = wl.ops(random.Random(f"{args.workload}:{args.seed}"))
    probe = speed.SpeedProbe()
    result = {}
    if args.trace:
        run, tracer, busy = run_traced(wl, pkg, states, ops, args.seconds)
        by_name, top_s = tracer.aggregate()
        result["layers"] = layer_metrics(tracer, by_name, top_s, run, busy, states, wl)
        result["layers"].update(micro_metrics(pkg))
        result["spans"] = tracer.span_count
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}.spans"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        run, busy = run_plain(wl, states[0], ops, args.seconds, probe)
        busy = [busy]
    for state in states:
        for ctx in wl.contexts(state):
            workloads.check_envelope(ctx)

    digest_hex, digest_failed = digest(wl, f"{args.workload}:digest")
    recorded = json.loads(DIGESTS.read_text()).get(args.workload)
    result.update(
        attempted=len(run.latencies) + wl.digest_ops,
        failed=run.failed + digest_failed,
        busy_s=busy[0],
        ops_per_s=len(run.latencies) / busy[0],
        speed_factor=probe.factor if probe.calls else None,
        latency=latency_summary(run.latencies, TAIL_PCT),
        digest=digest_hex,
        digest_ok=digest_hex == recorded,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
