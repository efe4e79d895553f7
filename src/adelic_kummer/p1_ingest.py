"""Function-field layer for the projective line.

Rational functions arrive in factored form, constant * prod (x - r_i)^v_i;
factorization over the tower is out of scope.  Local uniformizers are
fixed as z = x - r at finite points and z = 1/x at infinity.  Germ ideles
carry true series expansions at the divisor support; at other points the
stored component is the designated unit 1, with the exact unit germ
available on demand from ``germ``.

The superelliptic classifier reduces a degree-p cover y^p = f(x) to the
mod-p divisor of f, cross-checked on the valuations of the germ idele,
which is built at one term (see ``classify_superelliptic``).
"""

from __future__ import annotations

import warnings
from math import gcd

from . import adeles, global_galois as gg, harrison as hr, laurent as ls
from .adeles import Idele, INFINITY, Point
from .coeff_field import FieldCtx, FieldElem, elem_to_text
from .errors import CheckFailed, NotAdmissible, PthPower, json_value


class RationalFunction:
    """constant * prod (x - root)^exp with distinct roots, nonzero exps.
    ``factors`` maps roots to exponents, or lists (root, exp) pairs."""

    __slots__ = ("ctx", "constant", "factors")

    def __init__(self, ctx: FieldCtx, constant: FieldElem, factors: dict):
        if ctx.is_zero(constant):
            raise ValueError("constant must be nonzero")
        self.ctx = ctx
        self.constant = constant
        normalized = {}
        for root, exp in factors.items() if isinstance(factors, dict) else factors:
            if type(exp) is not int or exp == 0:
                raise ValueError(f"factor 'exp' must be a nonzero integer, got {exp!r}")
            key = ctx.project(root)
            if key in normalized:
                raise ValueError(f"repeated root {key!r}")
            normalized[key] = exp
        self.factors = normalized

    def degree(self) -> int:
        return sum(self.factors.values())

    def to_json(self) -> dict:
        return {
            "constant": elem_to_text(self.constant),
            "factors": [
                {"root": elem_to_text(r), "exp": e}
                for r, e in sorted(self.factors.items(), key=lambda kv: kv[0].coeffs)
            ],
        }

    @classmethod
    def from_json(cls, ctx: FieldCtx, data: dict) -> "RationalFunction":
        json_value(data, dict, "rational function")
        constant = ctx.elem_from_text(json_value(data.get("constant"), str, "'constant'"))
        factors = []
        for f in json_value(data.get("factors"), list, "'factors'"):
            root = json_value(json_value(f, dict, "a factor").get("root"), str, "factor 'root'")
            factors.append((ctx.elem_from_text(root), f.get("exp")))
        return cls(ctx, constant, factors)


def point_for_root(ctx: FieldCtx, root: FieldElem) -> Point:
    root = ctx.project(root)
    if root.level == 0:
        return Point(str(root.coeffs[0]))
    return Point(elem_to_text(root))


def divisor(f: RationalFunction) -> dict:
    """Exponent at each root and -deg at infinity; entries sum to zero."""
    ctx = f.ctx
    div = {point_for_root(ctx, r): e for r, e in f.factors.items()}
    deg = f.degree()
    if deg:
        div[INFINITY] = -deg
    return div


def germ(f: RationalFunction, at, prec: int = ls.DEFAULT_PREC) -> ls.LaurentSeries:
    """Series expansion of f in the local uniformizer at a root, at
    infinity, or at any other finite point given by a field element.  Each
    linear factor a + b z is raised to its exponent by the binomial series,
    in one pass of ``prec`` terms, and multiplied in."""
    ctx = f.ctx

    def power_of_linear(a, b, e):
        return ls.LaurentSeries(ctx, 0, ctx.window_binomial(a, b, e, prec), _checked=True)

    out = ls.constant(ctx, f.constant, prec)
    if at is INFINITY or (isinstance(at, Point) and at == INFINITY):
        # z = 1/x: (x - r) = z^-1 (1 - r z)
        out = ls.shift(out, -f.degree())
        for root, exp in f.factors.items():
            out = ls.mul(out, power_of_linear(ctx.one(), ctx.neg(root), exp))
        return out
    center = ctx.project(at)
    for root, exp in f.factors.items():
        offset = ctx.sub(center, root)
        if ctx.is_zero(offset):
            # z = x - root: the factor contributes z^exp exactly
            out = ls.shift(out, exp)
        else:
            out = ls.mul(out, power_of_linear(offset, ctx.one(), exp))
    return out


def germ_idele(f: RationalFunction, prec: int = ls.DEFAULT_PREC) -> Idele:
    """True germs at the divisor support, the designated unit 1 elsewhere
    (exact unit germs at other points come from ``germ`` on demand)."""
    exceptions = {}
    for root in f.factors:
        exceptions[point_for_root(f.ctx, root)] = germ(f, root, prec)
    if f.degree():
        exceptions[INFINITY] = germ(f, INFINITY, prec)
    return Idele(exceptions, ls.one(f.ctx, prec))


class SuperellipticClassification:
    __slots__ = ("vec", "ram", "cls", "admissible", "warnings")

    def __init__(self, vec, ram, cls, admissible, warns):
        self.vec = vec
        self.ram = ram
        self.cls = cls
        self.admissible = admissible
        self.warnings = warns


def classify_superelliptic(
    f: RationalFunction, p: int, strict: bool = True
) -> SuperellipticClassification:
    """Invariants of the degree-p cover y^p = f(x).

    Admissibility: every exponent in (0, p), exponent sum divisible by p
    (infinity unramified), gcd of exponents 1.  A gcd g > 1 is reported as
    a warning: g is prime to p (a common factor p raises PthPower).  With
    f = c h^g and g k = 1 mod p, f^k agrees with c^k h up to p-th powers,
    so y^p = f is the same cover as that of a function with exponents
    divided by g.
    The vector is the mod-p divisor.  The cross-check verifies the germ
    valuations, the exponent at each root and -deg at infinity: it runs
    them through ``is_galois``, ``primitive_element`` and
    ``_check_eigenvector`` under the standard action and compares the class
    with the divisor.  No term past the first can change its verdict, so
    the germs are built at one term.
    """
    ctx = f.ctx
    if p != ctx.p:
        raise ValueError(f"cover degree {p} does not match the context rank {ctx.p}")
    exps = list(f.factors.values())
    if all(e % p == 0 for e in exps):
        raise PthPower("f is a p-th power; the cover splits completely")
    warns = []
    admissible = True
    bad = [e for e in exps if not 0 < e < p]
    if bad:
        admissible = False
        if strict:
            raise NotAdmissible(f"exponents outside (0, {p}): {sorted(bad)}")
    if f.degree() % p != 0:
        admissible = False
        if strict:
            raise NotAdmissible(
                f"exponent sum {f.degree()} is not divisible by {p}; infinity ramifies"
            )
    if exps:
        g = exps[0]
        for e in exps[1:]:
            g = gcd(g, e)
        if g != 1:
            warns.append(
                f"gcd of exponents is {g}, prime to {p}: the cover is the same as"
                f" that of a function with exponents divided by {g}"
            )
            warnings.warn(warns[-1])
    direct = adeles.ValuationVector(p, divisor(f))
    t = germ_idele(f, 1)
    pipeline = hr.classify(t, gg.standard_kummer_subgroup(t, p), gg.Character(1, p))
    if pipeline != direct:
        raise CheckFailed("divisor route and germ route disagree")
    return SuperellipticClassification(
        vec=direct,
        ram=direct.points(),
        cls=hr.canonical_vector(pipeline),
        admissible=admissible,
        warns=warns,
    )
