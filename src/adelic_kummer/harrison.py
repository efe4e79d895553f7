"""Classification of rank-p adelic Galois extensions.

Classes live in the direct sum of Z/(p) over points: the vector of an
extension is the valuation vector of alpha^p for any eigenvector
primitive element, equivariant isomorphism is vector equality, and
conjugacy is equality up to a unit scalar of Z/(p).  The group law is
computed in vector coordinates; the canonical representative of a
conjugacy class scales the first nonzero entry (in point order) to 1.
Conjugacy shares its scalar search, ``ValuationVector.ratio``, with Galois
equivalence on ramified tuples, valuation vectors whose entries are units.
"""

from __future__ import annotations

from . import adeles, global_galois as gg, laurent as ls
from .adeles import Idele, Point, ValuationVector
from .coeff_field import FieldCtx
from .errors import NotGalois


class ExtensionClass:
    """A point in the classification group."""

    __slots__ = ("vec",)

    def __init__(self, vec: ValuationVector):
        self.vec = vec

    @property
    def p(self) -> int:
        return self.vec.p

    def __eq__(self, other):
        return isinstance(other, ExtensionClass) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"ExtensionClass({self.vec!r})"


class ValuationClass:
    """Canonical form of a vector modulo unit scaling."""

    __slots__ = ("canon",)

    def __init__(self, vec: ValuationVector):
        self.canon = canonical_vector(vec)

    def __eq__(self, other):
        return isinstance(other, ValuationClass) and self.canon == other.canon

    def __hash__(self):
        return hash(self.canon)

    def __repr__(self):
        return f"ValuationClass({self.canon!r})"


def canonical_vector(vec: ValuationVector) -> ValuationVector:
    """Scale so the first nonzero entry in point order is 1."""
    if vec.is_trivial:
        return vec
    first = min(vec.support)
    return vec.scale(pow(vec.support[first], -1, vec.p))


# ----------------------------------------------------------------------


def classify(t: Idele, G: gg.CyclicSubgroup, chi: gg.Character) -> ExtensionClass:
    """Valuation vector of alpha^p for the canonical primitive element."""
    if not gg.is_galois(t, G):
        raise NotGalois("classification needs a Galois action")
    alpha = gg.primitive_element(t, G, chi)
    vec = adeles.valuation_vector(alpha.alpha_p, G.p)
    return ExtensionClass(vec)


def trivial(p: int) -> ExtensionClass:
    return ExtensionClass(ValuationVector(p, {}))


def product(c1: ExtensionClass, c2: ExtensionClass) -> ExtensionClass:
    return ExtensionClass(c1.vec.add(c2.vec))


def inverse(c: ExtensionClass) -> ExtensionClass:
    return ExtensionClass(c.vec.neg())


def equivariant_isomorphic(c1: ExtensionClass, c2: ExtensionClass) -> bool:
    return c1.vec == c2.vec


def valuation_class(c: ExtensionClass) -> ValuationClass:
    return ValuationClass(c.vec)


def conjugate(c1: ExtensionClass, c2: ExtensionClass) -> bool:
    return valuation_class(c1) == valuation_class(c2)


def conjugating_scalar(c1: ExtensionClass, c2: ExtensionClass) -> int | None:
    """b with c1 = b * c2, when one exists."""
    return c1.vec.ratio(c2.vec)


def algebra_isomorphic(t1: Idele, t2: Idele, n: int) -> bool:
    """Equal ramification profiles; for ideles the unit-ratio condition
    is automatic."""
    return adeles.ram_profile(t1, n) == adeles.ram_profile(t2, n)


def kummer_map(t: Idele, p: int) -> ExtensionClass:
    return ExtensionClass(adeles.valuation_vector(t, p))


def kummer_inverse(
    c: ExtensionClass, ctx: FieldCtx, prec: int = ls.DEFAULT_PREC
) -> Idele:
    """Canonical witness idele: z^v at each support point, 1 elsewhere."""
    exceptions = {
        pt: ls.shift(ls.one(ctx, prec), v) for pt, v in c.vec.support.items()
    }
    return Idele(exceptions, ls.one(ctx, prec))


def conjugacy_classes_over(points, p: int):
    """All conjugacy classes supported inside a fixed point list, by
    exhaustive enumeration of vectors modulo unit scaling."""
    vectors = [{}]
    for pt in points:
        extended = []
        for v in vectors:
            for r in range(p):
                w = dict(v)
                if r:
                    w[pt] = r
                extended.append(w)
        vectors = extended
    return {ValuationClass(ValuationVector(p, v)) for v in vectors}
