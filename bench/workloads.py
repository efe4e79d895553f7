"""The three benchmark workloads.

Each workload generates plain ints and JSON from a seeded ``random.Random``
(``ops``), turns them into program calls through the public API (``run``,
the only timed part), checks every result against ``oracle`` or a closed
form that does not go through the timed code path (``check``), and
renders the canonical part of each result for the output digest
(``canon``).  ``setup`` builds the warm contexts a run keeps.

Envelope: every context stays at or below ``MAX_LEVEL_SIZE`` elements and
absolute degree ``MAX_ABS_DEGREE`` on every level, and no request uses a
precision below 6, so no input here is one the program may later choose
to reject.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import oracle

MAX_LEVEL_SIZE = 2**18
MAX_ABS_DEGREE = 6


def check_envelope(ctx):
    for level in range(ctx.levels):
        size, degree = ctx.level_size(level), ctx.abs_degree(level)
        if size > MAX_LEVEL_SIZE or degree > MAX_ABS_DEGREE:
            raise RuntimeError(
                f"context ({ctx.ell},{ctx.p}) level {level} has {size} elements at "
                f"absolute degree {degree}, outside the benchmark envelope"
            )


class Raised:
    """An exception raised by the timed call, passed to ``check``."""

    def __init__(self, exc):
        self.exc = exc
        self.code = getattr(exc, "code", type(exc).__name__)


def literal(elem) -> str:
    return "L%d:[%s]" % (elem.level, ",".join(map(str, elem.coeffs)))


def series_text(s) -> str:
    if s.is_zero:
        return "0"
    return "%d|%d|%s" % (s.val, s.prec, " ".join(literal(c) for c in s.coeffs))


def unit_coeffs(rng, ell, prec):
    return [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(prec - 1)]


def p_cycle(rng, p):
    """A random p-cycle in 1-based one-line form."""
    rest = list(range(2, p + 1))
    rng.shuffle(rest)
    cycle = [1] + rest
    sigma = [0] * p
    for i in range(p):
        sigma[cycle[i] - 1] = cycle[(i + 1) % p]
    return sigma


class Workload:
    name = ""
    digest_ops = 0

    def __init__(self, pkg):
        self.pkg = pkg

    def contexts(self, state):
        return list(state.values())

    def domain_error(self, result):
        """Whether the op ended in an expected domain error (exit code 2)."""
        return False


# ----------------------------------------------------------------------
# kummer-l0


class KummerL0(Workload):
    """Kummer map on random ideles with level-0 coefficients: the
    homomorphism identity and p-th power witnesses of kernel elements."""

    name = "kummer-l0"
    digest_ops = 40
    PAIRS = ((7, 2), (7, 3), (11, 5))
    LABELS = "abcdefgh"

    def setup(self):
        FieldCtx = self.pkg.coeff_field.FieldCtx
        state = {}
        for ell, p in self.PAIRS:
            ctx = FieldCtx(ell, p)
            ctx.ensure_zeta()
            state[(ell, p)] = ctx
        return state

    # Op kinds repeat in this order (40% homomorphism checks); each run of
    # five ops takes the next pair, and every tenth run uses precision 128.
    # The number of points (0 to 6) cycles too.  This fixed schedule keeps
    # the mix of costs the same from seed to seed; the seed draws labels,
    # valuations and coefficients.
    KINDS = ("hom", "witness", "hom", "witness", "witness")

    def ops(self, rng):
        for i in itertools.count():
            block = i // len(self.KINDS)
            kind = self.KINDS[i % len(self.KINDS)]
            ell, p = self.PAIRS[block % len(self.PAIRS)]
            prec = 128 if block % 10 == 9 else 32
            ideles = [self._idele(rng, ell, prec, i % 7)]
            if kind == "hom":
                ideles.append(self._idele(rng, ell, prec, (i // 7) % 7))
            yield {"kind": kind, "pair": (ell, p), "prec": prec, "ideles": ideles}

    def _idele(self, rng, ell, prec, points):
        labels = rng.sample(self.LABELS, points)
        return {lbl: (rng.randrange(-6, 7), unit_coeffs(rng, ell, prec)) for lbl in labels}

    def run(self, state, op):
        pkg = self.pkg
        ls, adeles = pkg.laurent, pkg.adeles
        ctx = state[op["pair"]]
        p, prec = op["pair"][1], op["prec"]
        ideles = [
            adeles.Idele(
                {adeles.Point(lbl): ls.series(ctx, v, c) for lbl, (v, c) in data.items()},
                ls.one(ctx, prec),
            )
            for data in op["ideles"]
        ]
        if op["kind"] == "hom":
            prod = adeles.idele_mul(ideles[0], ideles[1])
            return prod, adeles.valuation_vector(prod, p)
        t = adeles.idele_pow(ideles[0], p)
        return t, adeles.pth_power_witness(t, p)

    @staticmethod
    def _ints(s):
        if any(c.level for c in s.coeffs):
            raise AssertionError("a level-0 workload produced a coefficient above level 0")
        return s.val, [c.coeffs[0] for c in s.coeffs]

    def check(self, state, op, result):
        if isinstance(result, Raised):
            return False
        Point = self.pkg.adeles.Point
        (ell, p), prec = op["pair"], op["prec"]
        one = (0, [1] + [0] * (prec - 1))
        if op["kind"] == "hom":
            prod, vec = result
            t1, t2 = op["ideles"]
            for lbl in set(t1) | set(t2):
                want = oracle.int_series_mul(ell, t1.get(lbl, one), t2.get(lbl, one))
                if self._ints(prod.component(Point(lbl))) != want:
                    return False
            if set(pt.label for pt in prod.exceptions) - (set(t1) | set(t2)):
                return False
            want_vec = {}
            for lbl in set(t1) | set(t2):
                v = (t1.get(lbl, one)[0] + t2.get(lbl, one)[0]) % p
                if v:
                    want_vec[lbl] = v
            return {pt.label: v for pt, v in vec.support.items()} == want_vec
        t, w = result
        (s,) = op["ideles"]
        if self._ints(t.default) != one or self._ints(w.default) != one:
            return False
        for lbl, comp in s.items():
            want = oracle.int_series_pow(ell, comp, p)
            if self._ints(t.component(Point(lbl))) != want:
                return False
            root = self._ints(w.component(Point(lbl)))
            if root[0] != comp[0] or oracle.int_series_pow(ell, root, p) != want:
                return False
        return True

    def canon(self, op, result):
        if isinstance(result, Raised):
            return "raised " + result.code
        first, second = result
        if op["kind"] == "hom":
            comps = sorted(first.exceptions.items())
            vec = sorted((pt.label, v) for pt, v in second.support.items())
            return repr(([(pt.label, series_text(s)) for pt, s in comps], vec))
        comps = sorted(second.exceptions.items())
        return repr([(pt.label, series_text(s)) for pt, s in comps])


# ----------------------------------------------------------------------
# tower


class Tower(Workload):
    """Field arithmetic and series windows above level 0: the pairing
    oracle, local isomorphisms, Hensel roots and top-level field ops."""

    name = "tower"
    digest_ops = 60
    # ell, p, and how series inputs reach the extension levels:
    #   "root": zeta is at level 0; set-up extends the tower to degree p by
    #           the root of the smallest non-p-th power, and leading
    #           coefficients that are not p-th powers in F_ell take their
    #           roots at that level
    #   "lead": zeta is at level 1; set-up extends the tower to degree 6 by
    #           the cube root of the first non-cube of level 1, and leading
    #           coefficients drawn from level 1 take their roots there
    #   "tail": zeta is at level 1 (degree 4); a fifth root outside it would
    #           need degree 20, so leading coefficients stay at level 0 and
    #           only the later coefficients are drawn from level 1
    # Extending at set-up, by a fixed element, gives every seed the same
    # tower; no op extends it further.
    PAIRS = (
        (7, 3, "root"),
        (11, 5, "root"),
        (2, 3, "lead"),
        (5, 3, "lead"),
        (3, 5, "tail"),
        (2, 5, "tail"),
    )
    # Op kinds repeat in this order; each run of ten ops takes the next
    # pair, and the precision (8 to 16) cycles independently of both.
    KINDS = ("pair", "isom", "hensel", "field", "pair", "isom", "field", "pair", "isom", "hensel")

    def setup(self):
        cf = self.pkg.coeff_field
        state = {}
        for ell, p, mode in self.PAIRS:
            ctx = cf.FieldCtx(ell, p)
            ctx.ensure_zeta()
            if mode != "tail":
                level = ctx.levels - 1
                for flat in itertools.product(range(ell), repeat=ctx.abs_degree(level)):
                    if any(flat):
                        ctx.nth_root(cf.FieldElem(level, flat), p)
                    if ctx.levels > level + 1:
                        break
            state[(ell, p)] = ctx
        return state

    def ops(self, rng):
        for i in itertools.count():
            kind = self.KINDS[i % len(self.KINDS)]
            ell, p, mode = self.PAIRS[(i // len(self.KINDS)) % len(self.PAIRS)]
            prec = 8 + i % 9
            op = {"kind": kind, "pair": (ell, p), "prec": prec}
            if kind == "pair":
                tv = rng.choice([v for v in range(-6, 7) if v % p])
                op.update(
                    a=rng.randrange(p),
                    lam=(rng.randrange(-6, 7), unit_coeffs(rng, ell, prec)),
                    t=(tv, unit_coeffs(rng, ell, prec)),
                )
            elif kind == "isom":
                v1 = rng.randrange(-6, 7)
                same = rng.random() < 0.85
                v2 = rng.choice([v for v in range(-6, 7) if ((v - v1) % p == 0 or v * v1 % p != 0) == same])
                op.update(
                    t1=(v1, self._coeffs(rng, ell, p, mode, prec)),
                    t2=(v2, self._coeffs(rng, ell, p, mode, prec)),
                )
            elif kind == "hensel":
                op["u"] = (0, self._coeffs(rng, ell, p, mode, prec, hensel=True))
            else:
                op["x"] = [rng.randrange(ell) for _ in range(MAX_ABS_DEGREE)]
                op["y"] = [rng.randrange(ell) for _ in range(MAX_ABS_DEGREE)]
            yield op

    def _coeffs(self, rng, ell, p, mode, prec, hensel=False):
        """Coefficient window as (level, flat coordinates) pairs."""
        if mode == "root":
            if hensel:
                powers = {pow(x, p, ell) for x in range(1, ell)}
                lead = rng.choice([x for x in range(1, ell) if x not in powers])
                return [(0, (lead,))] + [(0, (rng.randrange(ell),)) for _ in range(prec - 1)]
            return [(0, (c,)) for c in unit_coeffs(rng, ell, prec)]
        dim = 2 if p == 3 else 4  # absolute degree of the zeta level

        def level1(nonzero=False):
            while True:
                flat = tuple(rng.randrange(ell) for _ in range(dim))
                if any(flat) or not nonzero:
                    return (1, flat)

        if mode == "lead":
            lead = level1(nonzero=True)
        else:
            lead = (0, (rng.randrange(1, ell),))
        return [lead] + [level1() for _ in range(prec - 1)]

    # -- program side ---------------------------------------------------

    def _series(self, ctx, val, window):
        FieldElem = self.pkg.coeff_field.FieldElem
        return self.pkg.laurent.series(ctx, val, [FieldElem(lvl, flat) for lvl, flat in window])

    def run(self, state, op):
        pkg = self.pkg
        ls, la = pkg.laurent, pkg.local_algebra
        ell, p = op["pair"]
        ctx = state[(ell, p)]
        kind = op["kind"]
        if kind == "pair":
            lam = ls.series(ctx, op["lam"][0], op["lam"][1])
            t = ls.series(ctx, op["t"][0], op["t"][1])
            return la.oracle_pair(op["a"], lam, t, ctx)
        if kind == "isom":
            t1 = self._series(ctx, *op["t1"])
            t2 = self._series(ctx, *op["t2"])
            return la.local_isom(t1, t2, p, ctx)
        if kind == "hensel":
            return ls.hensel_pth_root(self._series(ctx, *op["u"]))
        x, y = self._top_elems(ctx, op)
        return ctx.mul(x, y), ctx.inv(x), ctx.nth_root(ctx.pow(y, p), p)

    def _top_elems(self, ctx, op):
        FieldElem = self.pkg.coeff_field.FieldElem
        top = ctx.levels - 1
        dim = ctx.abs_degree(top)
        x, y = (op[key][:dim] for key in ("x", "y"))
        return FieldElem(top, x if any(x) else [1] + x[1:]), FieldElem(top, y if any(y) else [1] + y[1:])

    # -- oracle side ----------------------------------------------------

    def _tower(self, ctx):
        return oracle.FieldTower(ctx.ell, ctx.to_json()["tower"])

    @staticmethod
    def _o_series(tower, s):
        return s.val, [tower.embed((c.level, c.coeffs)) for c in s.coeffs]

    @staticmethod
    def _o_input(tower, val, window):
        return val, [tower.embed(c) for c in window]

    def check(self, state, op, result):
        ell, p = op["pair"]
        ctx = state[(ell, p)]
        check_envelope(ctx)
        kind = op["kind"]
        if kind == "isom":
            v1, v2 = op["t1"][0], op["t2"][0]
            differ = (v1 % p == 0) != (v2 % p == 0)
            if isinstance(result, Raised):
                return differ and result.code == "IncompatibleStructure"
            if differ:
                return False
        elif isinstance(result, Raised):
            return False
        tower = self._tower(ctx)
        top = tower.top
        if kind == "pair":
            lv, tv = op["lam"][0], op["t"][0]
            e = op["a"] * lv * pow(tv, -1, p) % p
            want = tower.pow(top, tower.embed((ctx.zeta.level, ctx.zeta.coeffs)), e)
            return tower.embed((result.level, result.coeffs)) == want
        if kind == "isom":
            v1, v2 = op["t1"][0], op["t2"][0]
            c = 1 if (v1 - v2) % p == 0 else v1 * pow(v2, -1, p) % p
            if result.c != c or result.integral != (v1 == v2):
                return False
            factor = self._o_series(tower, result.factor)
            t1 = self._o_input(tower, *op["t1"])
            t2 = self._o_input(tower, *op["t2"])
            image = oracle.series_mul(
                tower, oracle.series_pow(tower, factor, p), oracle.series_pow(tower, t2, c)
            )
            return oracle.same_window(image, t1, length=len(image[1]))
        if kind == "hensel":
            u = self._o_input(tower, *op["u"])
            root = self._o_series(tower, result)
            return oracle.same_window(oracle.series_pow(tower, root, p), u)
        prod, inv, root = result
        x, y = self._top_elems(ctx, op)
        ox, oy = (tower.embed((e.level, e.coeffs)) for e in (x, y))
        emb = [tower.embed((e.level, e.coeffs)) for e in result]
        return (
            emb[0] == tower.mul(top, ox, oy)
            and tower.mul(top, emb[1], ox) == tower.one(top)
            and tower.pow(top, emb[2], p) == tower.pow(top, oy, p)
            and prod.level == inv.level == root.level == top
        )

    def canon(self, op, result):
        if isinstance(result, Raised):
            return "raised " + result.code
        kind = op["kind"]
        if kind == "pair":
            return literal(result)
        if kind == "isom":
            return "%d %s %s" % (result.c, result.integral, series_text(result.factor))
        if kind == "hensel":
            return series_text(result)
        return " ".join(literal(e) for e in result)


# ----------------------------------------------------------------------
# cli-mix


def _term_text(c, k):
    if k == 0:
        return str(c)
    if k == 1:
        return f"{c}*z"
    return f"{c}*z^{k}"


def series_literal(val, coeffs):
    """Series text sugar accepted by the CLI, e.g. ``z^-2*(3 + 1*z^2)``."""
    terms = [_term_text(c, k) for k, c in enumerate(coeffs) if c]
    return f"z^{val}*({' + '.join(terms)})"


def literal_valuation(text, ell):
    """Valuation of a series literal in the CLI text sugar."""
    text = text.strip()
    val = 0
    if text.startswith("z"):
        head, _, rest = text.partition("*")
        val = 1 if head == "z" else int(head[2:])
        text = rest.strip() or "1"
    lowest = None
    for term in text.strip("()").split("+"):
        term = term.strip()
        c_txt, _, mono = term.partition("*")
        if c_txt.startswith("z"):
            c_txt, mono = "1", c_txt
        k = 0 if not mono else (1 if mono == "z" else int(mono[2:]))
        if int(c_txt) % ell and (lowest is None or k < lowest):
            lowest = k
    return val + lowest


def label_key(label):
    return (1, "") if label == "∞" else (0, label)


class CliMix(Workload):
    """Seeded requests to ``cli.main`` in-process, every subcommand, plus
    the bundled example inputs verbatim."""

    name = "cli-mix"
    digest_ops = 60
    ELL = {2: 7, 3: 7, 5: 11}
    # Requests follow a fixed 400-slot schedule: one selftest, then rounds
    # of the other nine subcommands, and three more conjugations.  p moves
    # through (2, 3, 5) from round to round and --prec through 6-8 every
    # three rounds; every seventh request is one of the bundled examples
    # instead.  Selftest, at 1 in 400, stays a
    # small share, so the p99 falls among the conjugation and pairing
    # requests at p = 5.
    ROUND = (
        "classify",
        "isom",
        "conjugate",
        "product",
        "pairing",
        "tuple",
        "equivalent",
        "conjugation",
        "superelliptic",
    )
    SCHEDULE = ("selftest",) + ROUND * 44 + ("conjugation",) * 3
    BUNDLED_EVERY = 7
    LABELS = "abcdef"

    def setup(self):
        data = Path(self.pkg.cli.__file__).resolve().parent / "data"
        self.data = {path.name: str(path) for path in data.glob("*.json")}
        self.parsed = {name: json.loads(Path(path).read_text()) for name, path in self.data.items()}
        FieldCtx = self.pkg.coeff_field.FieldCtx
        for p, ell in self.ELL.items():
            # the largest tower a request can build: zeta plus one root step
            ctx = FieldCtx(ell, p)
            ctx.ensure_zeta()
            ctx.nth_root(ctx.elem(min(x for x in range(2, ell) if pow(x, (ell - 1) // p, ell) != 1)), p)
            check_envelope(ctx)
        return {}

    # -- request generation ---------------------------------------------

    def ops(self, rng):
        bundled = self._bundled()
        for i in itertools.count():
            if i % self.BUNDLED_EVERY == self.BUNDLED_EVERY - 1:
                yield bundled[(i // self.BUNDLED_EVERY) % len(bundled)]
                continue
            kind = self.SCHEDULE[i % len(self.SCHEDULE)]
            rounds = i // len(self.ROUND)
            yield getattr(self, "_gen_" + kind)(rng, (2, 3, 5)[rounds % 3], 6 + rounds // 3 % 3)

    def _request(self, kind, p, prec, args, data):
        argv = ["--ell", str(self.ELL[p]), "--p", str(p), "--prec", str(prec), kind, *args]
        return {"kind": kind, "p": p, "prec": prec, "argv": argv, "data": data}

    def _bundled(self):
        path, parsed = self.data, self.parsed
        requests = []
        for aut, s in (("aut_standard.json", 1), ("aut_twisted.json", 2)):
            requests.append(self._request(
                "classify", 3, 8,
                ["--t", path["idele_z.json"], "--g", path[aut], "--s", str(s)],
                {"t": parsed["idele_z.json"], "g": parsed[aut], "s": s},
            ))
            requests.append(self._request(
                "tuple", 3, 8, ["--t", path["idele_z.json"], "--g", path[aut]],
                {"t": parsed["idele_z.json"], "g": parsed[aut]},
            ))
        pair = {"t": parsed["idele_z.json"], "g1": parsed["aut_standard.json"], "g2": parsed["aut_twisted.json"]}
        pair_args = ["--t", path["idele_z.json"], "--g1", path["aut_standard.json"], "--g2", path["aut_twisted.json"]]
        requests.append(self._request("equivalent", 3, 8, pair_args, pair))
        requests.append(self._request("conjugation", 3, 8, pair_args + ["--s", "1"], dict(pair, s=1)))
        for kind in ("conjugate", "product"):
            requests.append(self._request(
                kind, 3, 8, ["--a", path["vec_12.json"], "--b", path["vec_21.json"]],
                {"a": parsed["vec_12.json"], "b": parsed["vec_21.json"]},
            ))
        for name in ("x_xm1sq.json", "cubic_shifted.json"):
            requests.append(self._request("superelliptic", 3, 8, ["--f", path[name]], {"f": parsed[name]}))
        requests.append(self._request(
            "isom", 3, 8, ["--a", path["idele_z.json"], "--b", path["idele_z.json"]],
            {"a": parsed["idele_z.json"], "b": parsed["idele_z.json"]},
        ))
        return requests

    def _idele(self, rng, p, prec, max_pts=4):
        ell = self.ELL[p]
        points = {}
        for lbl in rng.sample(self.LABELS, rng.randrange(0, max_pts + 1)):
            points[lbl] = series_literal(
                rng.randrange(-2 * p, 2 * p + 1), unit_coeffs(rng, ell, rng.randrange(1, prec + 1))
            )
        return {"default": "1", "points": points}

    def _generator(self, rng, p, t, exps=None):
        ell = self.ELL[p]
        ram = sorted(lbl for lbl, s in t["points"].items() if literal_valuation(s, ell) % p)
        exceptions = {
            lbl: {"kind": "ram", "a": exps[lbl] if exps else rng.randrange(1, p)} for lbl in ram
        }
        if rng.random() < 0.3:
            free = [lbl for lbl in self.LABELS + "u" if lbl not in ram]
            exceptions[rng.choice(free)] = {"kind": "unram", "sigma": p_cycle(rng, p)}
        return {"default_sigma": p_cycle(rng, p), "exceptions": exceptions}

    def _vector(self, rng, p):
        labels = rng.sample(["x0", "x1", "x2", "x3"], rng.randrange(0, 4))
        return {lbl: rng.randrange(1, p) for lbl in labels}

    def _gen_classify(self, rng, p, prec):
        t = self._idele(rng, p, prec)
        g = self._generator(rng, p, t)
        s = rng.randrange(1, p)
        return self._request(
            "classify", p, prec, ["--t", json.dumps(t), "--g", json.dumps(g), "--s", str(s)],
            {"t": t, "g": g, "s": s},
        )

    def _gen_isom(self, rng, p, prec):
        a = self._idele(rng, p, prec)
        b = self._idele(rng, p, prec) if rng.random() < 0.5 else self._reprofile(rng, p, a)
        return self._request("isom", p, prec, ["--a", json.dumps(a), "--b", json.dumps(b)], {"a": a, "b": b})

    def _reprofile(self, rng, p, t):
        """An idele with the same ramification profile as ``t``."""
        ell = self.ELL[p]
        points = {}
        for lbl, text in t["points"].items():
            v = literal_valuation(text, ell)
            nv = v + p * rng.randrange(-1, 2) if v % p == 0 else rng.randrange(1, p) + p * rng.randrange(-1, 2)
            points[lbl] = series_literal(nv, unit_coeffs(rng, ell, rng.randrange(1, 4)))
        return {"default": "1", "points": points}

    def _gen_conjugate(self, rng, p, prec):
        b = self._vector(rng, p)
        if rng.random() < 0.5:
            k = rng.randrange(1, p)
            a = {lbl: v * k % p for lbl, v in b.items()}
        else:
            a = self._vector(rng, p)
        return self._request("conjugate", p, prec, ["--a", json.dumps(a), "--b", json.dumps(b)], {"a": a, "b": b})

    def _gen_product(self, rng, p, prec):
        a, b = self._vector(rng, p), self._vector(rng, p)
        return self._request("product", p, prec, ["--a", json.dumps(a), "--b", json.dumps(b)], {"a": a, "b": b})

    def _gen_pairing(self, rng, p, prec):
        ell = self.ELL[p]
        a = rng.randrange(p)
        lv = rng.randrange(-6, 7)
        tv = rng.choice([v for v in range(-6, 7) if v % p])
        lam = series_literal(lv, unit_coeffs(rng, ell, rng.randrange(1, prec + 1)))
        t = series_literal(tv, unit_coeffs(rng, ell, rng.randrange(1, prec + 1)))
        return self._request(
            "pairing", p, prec, ["--a", str(a), "--lam", lam, "--t", t], {"a": a, "lam": lam, "t": t}
        )

    def _gen_tuple(self, rng, p, prec):
        t = self._idele(rng, p, prec)
        g = self._generator(rng, p, t)
        return self._request("tuple", p, prec, ["--t", json.dumps(t), "--g", json.dumps(g)], {"t": t, "g": g})

    def _pair_of_subgroups(self, rng, p, prec):
        t = self._idele(rng, p, prec)
        g1 = self._generator(rng, p, t)
        exps = None
        if rng.random() < 0.5:
            k = rng.randrange(1, p)
            exps = {lbl: aut["a"] * k % p for lbl, aut in g1["exceptions"].items() if aut["kind"] == "ram"}
        g2 = self._generator(rng, p, t, exps)
        data = {"t": t, "g1": g1, "g2": g2}
        return ["--t", json.dumps(t), "--g1", json.dumps(g1), "--g2", json.dumps(g2)], data

    def _gen_equivalent(self, rng, p, prec):
        args, data = self._pair_of_subgroups(rng, p, prec)
        return self._request("equivalent", p, prec, args, data)

    def _gen_conjugation(self, rng, p, prec):
        args, data = self._pair_of_subgroups(rng, p, prec)
        s = rng.randrange(1, p)
        return self._request("conjugation", p, prec, args + ["--s", str(s)], dict(data, s=s))

    def _gen_superelliptic(self, rng, p, prec):
        ell = self.ELL[p]
        while True:
            roots = rng.sample(range(ell), rng.randrange(1, min(ell, 6) + 1))
            exps = [rng.randrange(1, p) for _ in roots]
            if sum(exps) % p == 0:
                break
        f = {
            "constant": f"L0:[{rng.randrange(1, ell)}]",
            "factors": [{"root": f"L0:[{r}]", "exp": e} for r, e in zip(roots, exps)],
        }
        return self._request("superelliptic", p, prec, ["--f", json.dumps(f)], {"f": f})

    def _gen_selftest(self, rng, p, prec):
        return self._request("selftest", p, prec, [], {})

    # -- program side ---------------------------------------------------

    def run(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pkg.cli.main(list(op["argv"]))
        return rc, out.getvalue()

    # -- oracle side ----------------------------------------------------

    def _vals(self, p, t):
        ell = self.ELL[p]
        return {lbl: literal_valuation(text, ell) for lbl, text in t["points"].items()}

    @staticmethod
    def _ram_exps(g, ram):
        return {lbl: g["exceptions"][lbl]["a"] for lbl in ram}

    def _equivalent(self, p, data):
        """Acceptance decider: equal ramified projections of the subgroups."""
        vals = self._vals(p, data["t"])
        ram = sorted(lbl for lbl, v in vals.items() if v % p)

        def projections(g):
            exps = self._ram_exps(g, ram)
            return {tuple(k * exps[lbl] % p for lbl in ram) for k in range(p)}

        return projections(data["g1"]) == projections(data["g2"])

    def expected(self, op):
        """(return code, outputs or error code) predicted from the inputs."""
        kind, p, d = op["kind"], op["p"], op["data"]
        if kind in ("classify", "tuple"):
            vals = self._vals(p, d["t"])
            ram = [lbl for lbl, v in vals.items() if v % p]
            exps = self._ram_exps(d["g"], ram)
            if kind == "tuple":
                return 0, {"tuple": {lbl: exps[lbl] * pow(vals[lbl], -1, p) % p for lbl in ram}}
            b = {lbl: d["s"] * pow(exps[lbl], -1, p) % p for lbl in ram}
            return 0, {"vector": {lbl: b[lbl] * vals[lbl] % p for lbl in ram}}
        if kind == "isom":
            prof = [
                {lbl: p for lbl, v in self._vals(p, d[key]).items() if v % p} for key in ("a", "b")
            ]
            return 0, {"verdict": prof[0] == prof[1], "profile_a": prof[0], "profile_b": prof[1]}
        if kind in ("conjugate", "product"):
            a = {k: v % p for k, v in d["a"].items() if v % p}
            b = {k: v % p for k, v in d["b"].items() if v % p}
            if kind == "product":
                out = {k: (a.get(k, 0) + b.get(k, 0)) % p for k in set(a) | set(b)}
                return 0, {"vector": {k: v for k, v in out.items() if v}}
            scalar = 1 if not a and not b else None
            for k in range(1, p):
                if scalar is None and a == {lbl: v * k % p for lbl, v in b.items()}:
                    scalar = k
            return 0, {"verdict": scalar is not None, "b": scalar}
        if kind == "pairing":
            ell = self.ELL[p]
            lv, tv = literal_valuation(d["lam"], ell), literal_valuation(d["t"], ell)
            return 0, {"log": d["a"] * lv * pow(tv, -1, p) % p, "oracle_agrees": True}
        if kind == "equivalent":
            return 0, {"verdict": self._equivalent(p, d)}
        if kind == "conjugation":
            if not self._equivalent(p, d):
                return 2, "NotEquivalent"
            return 0, {"verdict": True, "verified": True}
        if kind == "superelliptic":
            vec = {}
            deg = 0
            for factor in d["f"]["factors"]:
                label = str(oracle.parse_literal(factor["root"])[1][0])
                vec[label] = factor["exp"] % p
                deg += factor["exp"]
            if deg % p:
                vec["∞"] = -deg % p
            vec = {k: v for k, v in vec.items() if v}
            ram = sorted(vec, key=label_key)
            scale = pow(vec[ram[0]], -1, p) if ram else 1
            return 0, {
                "vec": vec,
                "ram": ram,
                "class": {k: v * scale % p for k, v in vec.items()},
                "admissible": True,
            }
        return 0, {"failed": 0}

    def check(self, state, op, result):
        if isinstance(result, Raised):
            return False
        rc, text = result
        body = json.loads(text)
        want_rc, want = self.expected(op)
        inputs = {"ell": self.ELL[op["p"]], "p": op["p"], "prec": op["prec"]}
        if rc != want_rc or body.get("command") != op["kind"] or body.get("inputs") != inputs:
            return False
        if rc == 2:
            return body["error"]["code"] == want
        outputs = body["outputs"]
        if op["kind"] == "selftest":
            return outputs["failed"] == 0 and outputs["passed"] == len(outputs["checks"])
        return all(outputs.get(key) == value for key, value in want.items())

    def canon(self, op, result):
        if isinstance(result, Raised):
            return "raised " + result.code
        rc, text = result
        body = json.loads(text)
        keep = {"rc": rc, "outputs": body.get("outputs"), "error": (body.get("error") or {}).get("code")}
        return json.dumps(keep, sort_keys=True, ensure_ascii=False)

    def domain_error(self, result):
        return not isinstance(result, Raised) and result[0] == 2


WORKLOADS = {cls.name: cls for cls in (KummerL0, Tower, CliMix)}
