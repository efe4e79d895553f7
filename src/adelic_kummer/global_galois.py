"""Global automorphisms of rank-p adelic algebras and their Galois theory.

A global automorphism, like an algebra element, has the restricted-product
form of ``adeles.Adele``: finitely many local exceptions plus one default
(a permutation, a split part) used at every unlisted, necessarily split,
point.  Operations run pointwise through ``Adele.combine``.  This finite
description is closed under composition and covers, up to the
equivalences decided here, every p-cyclic subgroup the deciders quantify
over.

The operations: transitivity/Galois checks, construction of eigenvector
primitive elements, ramified-tuple invariants via the local Kummer
pairing, Galois equivalence of subgroups, and explicit conjugations
(phi, tau).  phi is itself a global automorphism, so phi . g = tau(g) . phi
is verified exactly, as an equality of two finite descriptions.
The ramified tuple is a valuation vector whose entries are units; Galois
equivalence and the power k of tau(g1) = g2^k both come from
``ValuationVector.ratio``, which also decides conjugacy of classes.
"""

from __future__ import annotations

from . import adeles, laurent as ls, local_algebra as la
from .adeles import Adele, Idele, Point, ValuationVector
from .coeff_field import FieldCtx
from .errors import CheckFailed, NotEquivalent, NotGalois, NotTransitive, json_value


def standard_p_cycle(p: int):
    return tuple(range(2, p + 1)) + (1,)


class GlobalAutomorphism(Adele):
    """Finite exception map point -> local automorphism, plus the default
    split permutation used everywhere else; an exception equal to the
    default is dropped."""

    __slots__ = ("p", "default_sigma")

    def __init__(self, p: int, exceptions, default_sigma):
        self.p = p
        self.default_sigma = tuple(default_sigma)
        if sorted(self.default_sigma) != list(range(1, p + 1)):
            raise ValueError(f"default is not a permutation of 1..{p}")
        super().__init__(exceptions, la.LocalAutomorphism.unram(self.default_sigma))

    def _keep(self, pt, aut):
        if aut.kind == "unram" and len(aut.sigma) != self.p:
            raise ValueError(f"sigma at {pt.label} is not a permutation of 1..{self.p}")
        return aut != self.default

    def __eq__(self, other):
        # the default sigma, a permutation of 1..p, also fixes p
        return isinstance(other, GlobalAutomorphism) and (
            (self.default, self.exceptions) == (other.default, other.exceptions)
        )

    def __hash__(self):
        return hash((self.default_sigma, frozenset(self.exceptions.items())))

    def __repr__(self):
        body = ", ".join(
            f"{pt.label}: {aut!r}" for pt, aut in sorted(self.exceptions.items())
        )
        return f"GlobalAutomorphism(sigma={list(self.default_sigma)}, {{{body}}})"

    def _pointwise(self, op, *others) -> "GlobalAutomorphism":
        exceptions, default = self.combine(op, *others)
        return GlobalAutomorphism(self.p, exceptions, default.sigma)

    def compose(self, other: "GlobalAutomorphism") -> "GlobalAutomorphism":
        """self after other, pointwise."""
        if self.p != other.p:
            raise ValueError("rank mismatch")
        return self._pointwise(lambda a, b: a.compose(b, self.p), other)

    def power(self, k: int) -> "GlobalAutomorphism":
        return self._pointwise(lambda a: a.power(k, self.p))

    def is_identity(self) -> bool:
        # ramified components with exponent 0 are identity maps but stay
        # listed, since ramified points always need a "ram"-kind entry
        if self.default_sigma != la.identity_perm(self.p):
            return False
        return all(aut.order(self.p) == 1 for aut in self.exceptions.values())

    def is_valid_for(self, t: Idele) -> bool:
        """Ramified points of t carry ramified components, all others split."""
        ram = {pt for pt, aut in self.exceptions.items() if aut.kind == "ram"}
        return ram == set(adeles.ram_locus(t, self.p))

    def to_json(self) -> dict:
        return {
            "default_sigma": list(self.default_sigma),
            "exceptions": {
                pt.label: aut.to_json() for pt, aut in sorted(self.exceptions.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict, p: int) -> "GlobalAutomorphism":
        json_value(data, dict, "automorphism")
        sigma = json_value(data.get("default_sigma"), list, "'default_sigma'")
        if not all(type(v) is int for v in sigma):
            raise ValueError(f"'default_sigma' must list integers, got {sigma!r}")
        exceptions = {
            Point(label): la.LocalAutomorphism.from_json(
                json_value(aut, dict, f"exception at {label}"), p
            )
            for label, aut in json_value(data.get("exceptions", {}), dict, "'exceptions'").items()
        }
        return cls(p, exceptions, tuple(sigma))


class CyclicSubgroup:
    """The p-cyclic subgroup generated by a designated order-p element."""

    __slots__ = ("generator", "p")

    def __init__(self, generator: GlobalAutomorphism, p: int):
        if generator.p != p:
            raise ValueError("generator rank mismatch")
        if generator.is_identity():
            raise ValueError("a cyclic subgroup needs a nontrivial generator")
        if not generator.power(p).is_identity():
            raise ValueError("generator order does not divide p")
        self.generator = generator
        self.p = p


class Character:
    """chi with chi(generator) = zeta^s for a nonzero residue s."""

    __slots__ = ("s", "p")

    def __init__(self, s: int, p: int):
        if s % p == 0:
            raise ValueError("character must be nontrivial")
        self.s = s % p
        self.p = p


class RamTuple(ValuationVector):
    """Invariant tuple over the ramified points: a valuation vector whose
    entries are units of Z/(p)."""

    __slots__ = ()

    def __init__(self, p: int, entries: dict):
        for pt, v in entries.items():
            if v % p == 0:
                raise ValueError(f"tuple entry at {pt.label} must be nonzero mod {p}")
        super().__init__(p, entries)


# ----------------------------------------------------------------------
# algebra elements: finite maps point -> local part, split elsewhere


class AlgebraElement(Adele):
    """Element of a rank-p adelic algebra with finite support: exceptional
    local parts, and the split ``default`` used at every unlisted point.
    No exception is dropped."""

    __slots__ = ("p",)

    def __init__(self, p: int, exceptions, default: la.LocalPart):
        assert default.kind == "split"
        self.p = p
        super().__init__(exceptions, default)

    @classmethod
    def embed(cls, u: Idele, t: Idele, p: int) -> "AlgebraElement":
        """Diagonal embedding of a base element, respecting t's part kinds:
        the constant T-polynomial u_x at ramified points, p equal
        coordinates elsewhere."""
        zero_s = ls.zero(u.ctx)
        parts = {pt: la.LocalPart("split", (s,) * p) for pt, s in u.exceptions.items()}
        for pt in adeles.ram_locus(t, p):
            parts[pt] = la.LocalPart("ram", (u.component(pt),) + (zero_s,) * (p - 1))
        return cls(p, parts, la.LocalPart("split", (u.default,) * p))

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.p, *self.combine(lambda part: part.scale(c)))

    def apply(self, g: GlobalAutomorphism, ctx: FieldCtx) -> "AlgebraElement":
        return AlgebraElement(self.p, *self.combine(lambda part, aut: part.apply(aut, ctx), g))

    def matches(self, other: "AlgebraElement") -> bool:
        if self.p != other.p:
            return False
        exceptions, default = self.combine(la.LocalPart.matches, other)
        return default and all(exceptions.values())


# ----------------------------------------------------------------------
# Galois structure deciders


def is_pointwise_transitive(G: CyclicSubgroup, t: Idele) -> bool:
    """Every component of the generator has order p (ramified exponents
    nonzero, every permutation a p-cycle)."""
    g = G.generator
    if not g.is_valid_for(t):
        return False
    if not la.is_p_cycle(g.default_sigma):
        return False
    for aut in g.exceptions.values():
        if aut.order(G.p) != G.p:
            return False
    return True


def is_galois(t: Idele, G: CyclicSubgroup) -> bool:
    """Separability is the idele condition, already enforced by the type;
    the Galois property then reduces to pointwise transitivity."""
    return isinstance(t, Idele) and is_pointwise_transitive(G, t)


def eigen_pattern(sigma, s: int, p: int):
    """Residue pattern (c_j) with c_(sigma(j)) = c_j + s and c_1 = 0;
    solvable exactly when sigma is a p-cycle."""
    c = [None] * p
    c[0] = 0
    j = 1
    for _ in range(p - 1):
        nj = sigma[j - 1]
        c[nj - 1] = (c[j - 1] + s) % p
        j = nj
    if any(v is None for v in c):
        raise NotTransitive("pattern needs a p-cycle")
    return tuple(c)


class PrimitiveElement:
    """Eigenvector alpha with g(alpha) = chi(g) alpha whose p-th power is
    an idele: T^b with a b = s at ramified points, zeta-power patterns at
    split points."""

    __slots__ = ("p", "s", "ram_exponents", "split_patterns", "default_pattern", "alpha_p")

    def __init__(self, p, s, ram_exponents, split_patterns, default_pattern, alpha_p):
        self.p = p
        self.s = s
        self.ram_exponents = ram_exponents  # Point -> b
        self.split_patterns = split_patterns  # Point -> residue tuple
        self.default_pattern = default_pattern
        self.alpha_p = alpha_p

    def as_algebra_element(self, t: Idele, prec: int = 8) -> AlgebraElement:
        ctx = t.ctx
        zeta = ctx.ensure_zeta()
        one_s = ls.one(ctx, prec)
        parts = {
            pt: la.LocalPart.monomial(b, one_s, self.p)
            for pt, b in self.ram_exponents.items()
        }

        def split(pattern):
            return la.LocalPart(
                "split", (ls.constant(ctx, ctx.pow(zeta, c), prec) for c in pattern)
            )

        for pt, pattern in self.split_patterns.items():
            parts[pt] = split(pattern)
        return AlgebraElement(self.p, parts, split(self.default_pattern))


def primitive_element(t: Idele, G: CyclicSubgroup, chi: Character) -> PrimitiveElement:
    """Construct the canonical (G, chi)-eigenvector with unit p-th power."""
    if not is_galois(t, G):
        raise NotGalois("the action is not pointwise transitive over this idele")
    p, s = G.p, chi.s
    g = G.generator
    ram_exponents = {}
    split_patterns = {}
    alpha_p_parts = {}
    for pt, aut in g.exceptions.items():
        if aut.kind == "ram":
            b = (s * pow(aut.a, -1, p)) % p
            ram_exponents[pt] = b
            alpha_p_parts[pt] = ls.power(t.component(pt), b)
        else:
            split_patterns[pt] = eigen_pattern(aut.sigma, s, p)
    default_pattern = eigen_pattern(g.default_sigma, s, p)
    alpha_p = Idele(alpha_p_parts, ls.one(t.ctx, t.default.prec))
    alpha = PrimitiveElement(p, s, ram_exponents, split_patterns, default_pattern, alpha_p)
    _check_eigenvector(alpha, t, G, chi)
    return alpha


def _check_eigenvector(alpha: PrimitiveElement, t, G, chi):
    if not in_eigenspace(alpha.as_algebra_element(t, prec=4), G, chi, t.ctx):
        raise CheckFailed("constructed eigenvector fails g(alpha) = chi(g) alpha")


def ram_tuple(G: CyclicSubgroup, t: Idele) -> RamTuple:
    """log_zeta of the pairing of each ramified component against the
    uniformizer: a_x / v_x(t_x) mod p."""
    if not is_pointwise_transitive(G, t):
        raise NotTransitive("tuple invariant needs a pointwise transitive subgroup")
    ctx = t.ctx
    entries = {}
    for pt in adeles.ram_locus(t, G.p):
        a = G.generator.exceptions[pt].a
        t_val = t.component(pt).valuation()
        entries[pt] = ctx.log_zeta(la.kummer_pair(a, 1, t_val, ctx))
    return RamTuple(G.p, entries)


def galois_equivalent(G1: CyclicSubgroup, G2: CyclicSubgroup, t: Idele) -> bool:
    """Equality of the ramified projections: the tuples agree up to a unit."""
    return ram_tuple(G1, t).ratio(ram_tuple(G2, t)) is not None


class Conjugation:
    """Descriptor of a conjugating pair: tau(g1) = g2^k, and phi acting as
    the identity at ramified points and a coordinate permutation rho at
    split points, with phi(alpha1) = u alpha2 on primitive elements for the
    unit idele u = 1.  As a map, phi is ``automorphism()``, and
    ``verify_conjugation`` checks it exactly on that description."""

    __slots__ = ("p", "k", "split_perms", "default_perm", "alpha1", "alpha2")

    def __init__(self, p, k, split_perms, default_perm, alpha1, alpha2):
        self.p = p
        self.k = k
        self.split_perms = split_perms  # Point -> one-line permutation
        self.default_perm = default_perm
        self.alpha1 = alpha1
        self.alpha2 = alpha2

    def automorphism(self) -> GlobalAutomorphism:
        """phi with exponent 0 at ramified points; a rho equal to
        ``default_perm`` is pruned here but stays in the JSON."""
        exceptions = {pt: la.LocalAutomorphism.ram(0, self.p) for pt in self.alpha1.ram_exponents}
        exceptions.update((pt, la.LocalAutomorphism.unram(rho)) for pt, rho in self.split_perms.items())
        return GlobalAutomorphism(self.p, exceptions, self.default_perm)

    def to_json(self) -> dict:
        return {
            "tau_power": self.k,
            "u": {"default": "1", "points": {}},
            "default_perm": list(self.default_perm),
            "split_perms": {
                pt.label: list(perm) for pt, perm in sorted(self.split_perms.items())
            },
        }


def _pattern_perm(pattern1, pattern2):
    """rho with pattern1[rho(j)] = pattern2[j]; both patterns are
    bijections onto the residues mod p."""
    position = {c: j + 1 for j, c in enumerate(pattern1)}
    return tuple(position[c] for c in pattern2)


def construct_conjugation(
    G1: CyclicSubgroup, G2: CyclicSubgroup, t: Idele, chi1: Character
) -> Conjugation:
    """Build (phi, tau) conjugating the two Galois structures over t."""
    k = ram_tuple(G1, t).ratio(ram_tuple(G2, t))
    if k is None:
        raise NotEquivalent("subgroups differ on the ramified projection")
    p = G1.p
    alpha1 = primitive_element(t, G1, chi1)
    alpha2 = primitive_element(t, G2, Character(chi1.s * pow(k, -1, p), p))
    if alpha1.ram_exponents != alpha2.ram_exponents:
        raise CheckFailed("matched projections must give equal exponents")
    split_perms, default_perm = Adele(alpha1.split_patterns, alpha1.default_pattern).combine(
        _pattern_perm, Adele(alpha2.split_patterns, alpha2.default_pattern)
    )
    # u = 1: the ramified exponents are equal, and eigen_pattern puts
    # zeta^0 first in every split pattern of both primitive elements
    return Conjugation(p, k, split_perms, default_perm, alpha1, alpha2)


def verify_conjugation(
    phi: Conjugation, G1: CyclicSubgroup, G2: CyclicSubgroup, t: Idele
) -> bool:
    """Check phi . g1 = g2^k . phi exactly, as equal descriptions (a
    description fixes the action at every point), then phi(alpha1) = alpha2
    (u is 1).  phi permutes split coordinates and fixes ramified parts, so
    it is a ring map by construction and its multiplicativity needs no check."""
    aut = phi.automorphism()
    if aut.compose(G1.generator) != G2.generator.power(phi.k).compose(aut):
        return False
    image = phi.alpha1.as_algebra_element(t).apply(aut, t.ctx)
    return image.matches(phi.alpha2.as_algebra_element(t))


def in_eigenspace(
    elem: AlgebraElement, G: CyclicSubgroup, chi: Character, ctx: FieldCtx
) -> bool:
    zeta = ctx.ensure_zeta()
    return elem.apply(G.generator, ctx).matches(elem.scale(ctx.pow(zeta, chi.s)))


def standard_kummer_subgroup(t: Idele, p: int) -> CyclicSubgroup:
    """The action g(T) = zeta T: exponent 1 at each ramified point and the
    standard p-cycle elsewhere."""
    exceptions = {
        pt: la.LocalAutomorphism.ram(1, p) for pt in adeles.ram_locus(t, p)
    }
    return CyclicSubgroup(
        GlobalAutomorphism(p, exceptions, standard_p_cycle(p)), p
    )
