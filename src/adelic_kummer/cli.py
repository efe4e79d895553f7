"""JSON command-line front end.

Every subcommand reads JSON (or series text sugar) from file paths, stdin
("-"), or inline literals, and prints one deterministic JSON response
envelope: {command, version, inputs, outputs, diagnostics}.  Domain
errors exit with code 2 and a machine-readable error object; so does a
failed cross-check of a paper identity, with code ``CheckFailed``, which
is a fault of the program rather than of its input.  Malformed input
exits with code 1.

The argument parser is built once per process, on the first call of
``main``, and reused; ``ADELIC_PREC`` is read on every call, so a caller
that runs many requests in one process may change it between them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import (
    __version__,
    adeles,
    global_galois as gg,
    harrison as hr,
    laurent as ls,
    local_algebra as la,
    p1_ingest as p1,
)
from .adeles import Idele, Point, ValuationVector
from .coeff_field import FieldCtx
from .errors import AdelicError

def _read_value(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _read_json(value: str):
    return json.loads(_read_value(value))


def _read_series(ctx, value: str, prec: int):
    raw = _read_value(value).strip()
    if raw.startswith("{"):
        return ls.from_json(ctx, json.loads(raw))
    return ls.from_text(ctx, raw, prec)


def _positive(what: str):
    """An argparse type: a positive integer, named ``what`` in its errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value <= 0:
            raise argparse.ArgumentTypeError(f"{what} must be positive, got {value}")
        return value

    return parse


_precision = _positive("precision")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="adelic-kummer",
        description="exact invariants of rank-p adelic algebras and their covers",
    )
    parser.add_argument("--ell", type=int, default=7, help="coefficient characteristic")
    parser.add_argument("--p", type=int, required=True, help="prime rank")
    parser.add_argument(
        "--prec",
        type=_precision,
        # None means "not given": main resolves ADELIC_PREC on every call
        default=None,
        help="series precision, a positive integer (env ADELIC_PREC overrides the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("classify", help="valuation vector of a Galois triple")
    s.add_argument("--t", required=True, help="idele JSON")
    s.add_argument("--g", required=True, help="generator automorphism JSON")
    s.add_argument("--s", type=int, default=1, help="character exponent")

    s = sub.add_parser("isom", help="algebra isomorphism decider")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--n", type=_positive("rank"), default=None, help="rank (defaults to p)")

    s = sub.add_parser("conjugate", help="conjugacy of two valuation vectors")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)

    s = sub.add_parser("product", help="group law on valuation vectors")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)

    s = sub.add_parser("pairing", help="local Kummer pairing, closed form and oracle")
    s.add_argument("--a", type=int, required=True, help="automorphism exponent")
    s.add_argument("--lam", required=True, help="series argument")
    s.add_argument("--t", required=True, help="local parameter series")

    s = sub.add_parser("tuple", help="ramified tuple invariant of a subgroup")
    s.add_argument("--t", required=True)
    s.add_argument("--g", required=True)

    s = sub.add_parser("equivalent", help="Galois equivalence of two subgroups")
    s.add_argument("--t", required=True)
    s.add_argument("--g1", required=True)
    s.add_argument("--g2", required=True)

    s = sub.add_parser("conjugation", help="construct and verify a conjugating pair")
    s.add_argument("--t", required=True)
    s.add_argument("--g1", required=True)
    s.add_argument("--g2", required=True)
    s.add_argument("--s", type=int, default=1)

    s = sub.add_parser("superelliptic", help="classify a degree-p cover of the line")
    s.add_argument("--f", required=True, help="factored rational function JSON")
    s.add_argument("--lenient", action="store_true", help="skip the exponent-sum check")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _subgroup(data: dict, p: int) -> gg.CyclicSubgroup:
    return gg.CyclicSubgroup(gg.GlobalAutomorphism.from_json(data, p), p)


def run(args) -> dict:
    ctx = FieldCtx(args.ell, args.p)
    p, prec = args.p, args.prec

    if args.command == "classify":
        t = adeles.idele_from_json(ctx, _read_json(args.t), prec)
        G = _subgroup(_read_json(args.g), p)
        return {"vector": hr.classify(t, G, gg.Character(args.s, p)).to_json()}

    if args.command == "isom":
        n = args.n or p
        a = adeles.idele_from_json(ctx, _read_json(args.a), prec)
        b = adeles.idele_from_json(ctx, _read_json(args.b), prec)
        prof_a, prof_b = adeles.ram_profile(a, n), adeles.ram_profile(b, n)
        return {
            "verdict": prof_a == prof_b,
            "profile_a": {pt.label: e for pt, e in sorted(prof_a.items())},
            "profile_b": {pt.label: e for pt, e in sorted(prof_b.items())},
        }

    if args.command == "conjugate":
        v1 = ValuationVector.from_json(p, _read_json(args.a))
        v2 = ValuationVector.from_json(p, _read_json(args.b))
        b = v1.ratio(v2)
        return {"verdict": b is not None, "b": b}

    if args.command == "product":
        v1 = ValuationVector.from_json(p, _read_json(args.a))
        v2 = ValuationVector.from_json(p, _read_json(args.b))
        return {"vector": v1.add(v2).to_json()}

    if args.command == "pairing":
        lam = _read_series(ctx, args.lam, prec)
        t = _read_series(ctx, args.t, prec)
        closed = la.kummer_pair(args.a, lam.valuation(), t.valuation(), ctx)
        oracle = la.oracle_pair(args.a, lam, t, ctx)
        return {
            "pair": repr(closed),
            "log": ctx.log_zeta(closed),
            "oracle_agrees": oracle is not None and ctx.eq(closed, oracle),
        }

    if args.command == "tuple":
        t = adeles.idele_from_json(ctx, _read_json(args.t), prec)
        G = _subgroup(_read_json(args.g), p)
        return {"tuple": gg.ram_tuple(G, t).to_json()}

    if args.command == "equivalent":
        t = adeles.idele_from_json(ctx, _read_json(args.t), prec)
        G1 = _subgroup(_read_json(args.g1), p)
        G2 = _subgroup(_read_json(args.g2), p)
        return {"verdict": gg.galois_equivalent(G1, G2, t)}

    if args.command == "conjugation":
        t = adeles.idele_from_json(ctx, _read_json(args.t), prec)
        G1 = _subgroup(_read_json(args.g1), p)
        G2 = _subgroup(_read_json(args.g2), p)
        phi = gg.construct_conjugation(G1, G2, t, gg.Character(args.s, p))
        out = {"verdict": True, "verified": gg.verify_conjugation(phi, G1, G2)}
        out.update(phi.to_json())
        return out

    if args.command == "superelliptic":
        f = p1.RationalFunction.from_json(ctx, _read_json(args.f))
        result = p1.classify_superelliptic(f, p, strict=not args.lenient)
        return {
            "vec": result.vec.to_json(),
            "ram": [pt.label for pt in result.ram],
            "class": result.cls.to_json(),
            "admissible": result.admissible,
        }

    if args.command == "selftest":
        return selftest(ctx)

    raise AssertionError(f"unhandled command {args.command}")


def selftest(ctx: FieldCtx) -> dict:
    """Deterministic cross-checks of the main invariants."""
    p = ctx.p
    rng = random.Random(1)
    checks = []

    def check(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    zeta = ctx.ensure_zeta()
    check("zeta_order", ctx.eq(ctx.pow(zeta, p), ctx.one()) and not ctx.eq(zeta, ctx.one()))

    ok = True
    for _ in range(20):
        a = ctx.elem(rng.randrange(1, ctx.ell))
        ok = ok and ctx.eq(ctx.pow(ctx.nth_root(a, p), p), a)
    check("tower_roots", ok)

    ok = True
    for _ in range(10):
        u = ls.series(
            ctx, 0, [rng.randrange(1, ctx.ell)] + [rng.randrange(ctx.ell) for _ in range(11)]
        )
        ok = ok and ls.matches(ls.power(ls.hensel_pth_root(u, p), p), u)
    check("hensel_roots", ok)

    ok = True
    for _ in range(20):
        tv = rng.randrange(1, 2 * p)
        if tv % p == 0:
            tv += 1
        lv = rng.randrange(-5, 6)
        a = rng.randrange(p)
        t = ls.series(ctx, tv, [rng.randrange(1, ctx.ell)] + [rng.randrange(ctx.ell) for _ in range(7)])
        lam = ls.series(ctx, lv, [rng.randrange(1, ctx.ell)] + [rng.randrange(ctx.ell) for _ in range(7)])
        oracle = la.oracle_pair(a, lam, t, ctx)
        ok = ok and oracle is not None and ctx.eq(oracle, la.kummer_pair(a, lv, tv, ctx))
    check("pairing_oracle", ok)

    ok = True
    for _ in range(10):
        exceptions = {}
        a1, a2 = {}, {}
        for lbl in rng.sample(["a", "b", "c"], rng.randrange(1, 3)):
            v = rng.choice([v for v in range(1, 2 * p) if v % p != 0])
            exceptions[Point(lbl)] = ls.series(
                ctx, v, [rng.randrange(1, ctx.ell)] + [rng.randrange(ctx.ell) for _ in range(5)]
            )
            a1[lbl], a2[lbl] = rng.randrange(1, p), rng.randrange(1, p)
        t = Idele(exceptions, ls.one(ctx, 6))
        ex = {
            pt: la.LocalAutomorphism.ram(a1[pt.label], p) for pt in adeles.ram_locus(t, p)
        }
        G1 = gg.CyclicSubgroup(gg.GlobalAutomorphism(p, ex, gg.standard_p_cycle(p)), p)
        ex2 = {
            pt: la.LocalAutomorphism.ram(a2[pt.label], p) for pt in adeles.ram_locus(t, p)
        }
        G2 = gg.CyclicSubgroup(gg.GlobalAutomorphism(p, ex2, gg.standard_p_cycle(p)), p)
        equiv = gg.galois_equivalent(G1, G2, t)
        try:
            phi = gg.construct_conjugation(G1, G2, t, gg.Character(1, p))
            built = gg.verify_conjugation(phi, G1, G2)
        except AdelicError:
            built = False
        ok = ok and (equiv == built)
    check("conjugacy_agreement", ok)

    classes = hr.conjugacy_classes_over([Point("x0"), Point("x1")], p)
    check("stratification_count", len(classes) == 1 + (p * p - 1) // (p - 1))

    if p == 3:
        f = p1.RationalFunction(ctx, ctx.one(), {ctx.elem(0): 1, ctx.elem(1): 2})
        out = p1.classify_superelliptic(f, 3)
        check("superelliptic_example", out.vec.to_json() == {"0": 1, "1": 2})

    return {"passed": sum(c["ok"] for c in checks), "failed": sum(not c["ok"] for c in checks), "checks": checks}


def _envelope(args, outputs=None, error=None, diagnostics=()):
    body = {
        "command": args.command if args else None,
        "version": __version__,
        "inputs": {"ell": args.ell, "p": args.p, "prec": args.prec} if args else {},
        "diagnostics": list(diagnostics),
    }
    if error is not None:
        body["error"] = error
    else:
        body["outputs"] = outputs
    return body


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.prec is None:
            try:
                args.prec = _precision(os.environ.get("ADELIC_PREC", str(ls.DEFAULT_PREC)))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"argument --prec: {exc}")
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        outputs = run(args)
    except AdelicError as exc:
        body = _envelope(args, error={"code": exc.code, "message": str(exc)})
        print(json.dumps(body, sort_keys=True, ensure_ascii=False))
        return 2
    except (ValueError, KeyError, TypeError, AttributeError, json.JSONDecodeError, OSError) as exc:
        body = _envelope(
            args, error={"code": "MalformedInput", "message": f"{type(exc).__name__}: {exc}"}
        )
        print(json.dumps(body, sort_keys=True, ensure_ascii=False))
        return 1
    body = _envelope(args, outputs=outputs)
    print(json.dumps(body, sort_keys=True, ensure_ascii=False))
    if args.command == "selftest" and outputs.get("failed"):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
