"""Classification of rank-p adelic Galois extensions.

Classes live in the direct sum of Z/(p) over points, and a class is a
``ValuationVector``: the vector of an extension is the valuation vector of
alpha^p for any eigenvector primitive element.  The group law is
``ValuationVector.add`` and ``neg``, equivariant isomorphism is vector
equality, and the Kummer map is ``adeles.valuation_vector``.  Conjugacy is
equality up to a unit scalar of Z/(p), found by ``ValuationVector.ratio``,
the scalar search that Galois equivalence on ramified tuples also uses;
the canonical representative of a conjugacy class scales the first nonzero
entry (in point order) to 1.  Two ideles give isomorphic algebras exactly
when their ``adeles.ram_profile``s are equal.
"""

from __future__ import annotations

import itertools

from . import global_galois as gg
from .adeles import Idele, ValuationVector
from .errors import NotGalois


def canonical_vector(vec: ValuationVector) -> ValuationVector:
    """Scale so the first nonzero entry in point order is 1."""
    if vec.is_trivial:
        return vec
    first = min(vec.support)
    return vec.scale(pow(vec.support[first], -1, vec.p))


def classify(t: Idele, G: gg.CyclicSubgroup, chi: gg.Character) -> ValuationVector:
    """Valuation vector of alpha^p for the canonical primitive element,
    read off its description (``PrimitiveElement.vector``)."""
    if not gg.is_galois(t, G):
        raise NotGalois("classification needs a Galois action")
    return gg.primitive_element(t, G, chi).vector


def conjugacy_classes_over(points: list, p: int) -> set[ValuationVector]:
    """The canonical vectors of all conjugacy classes supported inside a
    fixed point list, by exhaustive enumeration of vectors."""
    return {
        canonical_vector(ValuationVector(p, dict(zip(points, values))))
        for values in itertools.product(range(p), repeat=len(points))
    }
