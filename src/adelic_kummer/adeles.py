"""The restricted-product form, ideles, and their valuation invariants.

Points are opaque ordered labels; only the projective-line layer attaches
coordinates to them.  ``Adele`` is the one finite form of a global object:
a finite exception map plus a default component used at every unlisted
point, with one pointwise combinator over the union of supports.  Ideles
and global automorphisms are its subclasses; each decides which exceptions
are redundant.  The residue patterns of a primitive element and the
permutations of a conjugation are plain ``Adele``s.  An idele's canonical
default is the constant series 1, matching integrality at almost all
points.  Valuation vectors and ramification profiles are the mod-p and
gcd images of the component valuations.
"""

from __future__ import annotations

from math import gcd

from . import laurent as ls
from .coeff_field import FieldCtx
from .errors import ZeroComponent, json_value

INF_LABEL = "∞"


class Point:
    """Opaque ordered point label; the infinity label sorts last."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = str(label)

    @property
    def sort_key(self):
        return (1, "") if self.label == INF_LABEL else (0, self.label)

    def __eq__(self, other):
        return isinstance(other, Point) and self.label == other.label

    def __hash__(self):
        return hash(self.label)

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Point({self.label!r})"


INFINITY = Point(INF_LABEL)


class Adele:
    """Finitely many local exceptions plus one default used at every other
    point: the restricted-product form shared by ideles, global
    automorphisms, and the patterns and permutations that describe
    primitive elements and conjugations.

    A subclass may define ``_keep(pt, component)`` to check each exception
    and drop the redundant ones; without it every exception is kept.
    """

    __slots__ = ("exceptions", "default")
    _keep = None

    def __init__(self, exceptions, default):
        self.default = default
        keep = self._keep
        if keep is None:
            self.exceptions = dict(exceptions)
        else:
            self.exceptions = {pt: c for pt, c in exceptions.items() if keep(pt, c)}

    def component(self, pt: Point):
        return self.exceptions.get(pt, self.default)

    def combine(self, op, *others):
        """The exceptions and default of x -> op(self_x, *others_x): op runs
        once at each point of the union of the supports and once on the
        defaults."""
        operands = (self, *others)
        exceptions = {}
        for a in operands:
            for pt in a.exceptions:
                if pt not in exceptions:
                    exceptions[pt] = op(*[b.exceptions.get(pt, b.default) for b in operands])
        return exceptions, op(*[b.default for b in operands])


class Idele(Adele):
    """Invertible adele: all components nonzero, default a unit.  An
    exception is dropped when it matches the default over a window that
    reaches at least as far, so no point claims terms nobody computed."""

    __slots__ = ()

    def __init__(self, exceptions, default: ls.LaurentSeries):
        if default.is_zero or default.val != 0:
            raise ValueError("idele default must be a unit (valuation 0)")
        super().__init__(exceptions, default)

    def _keep(self, pt, s):
        if s.is_zero:
            raise ZeroComponent(f"zero component at {pt.label}")
        d = self.default
        return s.val != d.val or s.end < d.end or not ls.matches(s, d)

    @property
    def ctx(self) -> FieldCtx:
        return self.default.ctx

    def __repr__(self):
        body = ", ".join(
            f"{pt.label}: {ls.to_text(s)}" for pt, s in sorted(self.exceptions.items())
        )
        return f"Idele({{{body}}}, default={ls.to_text(self.default)})"


class ValuationVector:
    """Finite-support vector in the direct sum of Z/(p) over points."""

    __slots__ = ("p", "support")

    def __init__(self, p: int, support: dict):
        self.p = p
        self.support = {pt: v % p for pt, v in support.items() if v % p != 0}

    def __eq__(self, other):
        return (
            isinstance(other, ValuationVector)
            and self.p == other.p
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.p, tuple(sorted((pt.label, v) for pt, v in self.support.items()))))

    def __repr__(self):
        body = ", ".join(f"{pt.label}: {v}" for pt, v in sorted(self.support.items()))
        return f"{type(self).__name__}(p={self.p}, {{{body}}})"

    @property
    def is_trivial(self) -> bool:
        return not self.support

    def add(self, other: "ValuationVector") -> "ValuationVector":
        assert self.p == other.p
        merged = dict(self.support)
        for pt, v in other.support.items():
            merged[pt] = merged.get(pt, 0) + v
        return ValuationVector(self.p, merged)

    def neg(self) -> "ValuationVector":
        return ValuationVector(self.p, {pt: -v for pt, v in self.support.items()})

    def scale(self, b: int) -> "ValuationVector":
        return ValuationVector(self.p, {pt: b * v for pt, v in self.support.items()})

    def ratio(self, other: "ValuationVector") -> int | None:
        """The unit b of Z/(p) with self = b * other, or None if there is
        none: 1 when both are trivial, and the only such b otherwise."""
        return next((b for b in range(1, self.p) if self == other.scale(b)), None)

    def points(self) -> list[Point]:
        return sorted(self.support)

    def to_json(self) -> dict:
        return {pt.label: v for pt, v in sorted(self.support.items())}

    @classmethod
    def from_json(cls, p: int, data: dict) -> "ValuationVector":
        return cls(p, {
            Point(label): json_value(v, int, f"valuation at {label}")
            for label, v in json_value(data, dict, "valuation vector").items()
        })


# ----------------------------------------------------------------------
# operations


def valuation_vector(t: Idele, p: int) -> ValuationVector:
    return ValuationVector(
        p, {pt: s.valuation() for pt, s in t.exceptions.items()}
    )


def ram_locus(t: Idele, p: int) -> list[Point]:
    return valuation_vector(t, p).points()


def ram_profile(t: Idele, n: int) -> dict[Point, int]:
    """The ramification index e_x = n / gcd(n, v_x(t_x)) of every point
    where it exceeds 1."""
    entries = {}
    for pt, s in t.exceptions.items():
        e = n // gcd(n, s.valuation())
        if e > 1:
            entries[pt] = e
    return entries


def idele_mul(t1: Idele, t2: Idele) -> Idele:
    return Idele(*t1.combine(ls.mul, t2))


def idele_pow(t: Idele, k: int) -> Idele:
    return Idele(*t.combine(lambda s: ls.power(s, k)))


def pth_power_witness(t: Idele, p: int) -> Idele:
    """A componentwise p-th root (z-power division plus Hensel lifting);
    only meaningful when the valuation vector of t vanishes."""
    return Idele(*t.combine(lambda s: ls.nth_root_series(s, p)))


# ----------------------------------------------------------------------
# JSON forms


def idele_from_json(ctx: FieldCtx, data: dict, prec: int = ls.DEFAULT_PREC) -> Idele:
    json_value(data, dict, "idele")
    default = ls.from_text(ctx, json_value(data.get("default", "1"), str, "'default'"), prec)
    exceptions = {
        Point(label): ls.from_text(ctx, json_value(text, str, f"component at {label}"), prec)
        for label, text in json_value(data.get("points", {}), dict, "'points'").items()
    }
    return Idele(exceptions, default)
