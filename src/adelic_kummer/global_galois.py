"""Global automorphisms of rank-p adelic algebras and their Galois theory.

A global automorphism has the restricted-product form of ``adeles.Adele``:
finitely many local exceptions plus one default permutation used at
every unlisted, necessarily split, point.  Operations run pointwise
through ``Adele.combine``.  This finite description is closed under
composition and covers, up to the equivalences decided here, every
p-cyclic subgroup the deciders quantify over.

The operations: transitivity/Galois checks, construction of eigenvector
primitive elements, ramified-tuple invariants, Galois equivalence of
subgroups, and explicit conjugations (phi, tau).  A primitive element is
a finite description too: an exponent b at each ramified point and a
residue pattern c at each split point, for alpha = T^b and
alpha = (zeta^c_j)_j.  Because zeta has exact order p,
g(alpha) = chi(g) alpha and phi(alpha1) = alpha2 are congruences mod p on
those descriptions, and are checked as such.  phi is itself a global
automorphism, so phi . g = tau(g) . phi is verified exactly, as an
equality of two finite descriptions.
The ramified tuple a_x v_x(t_x)^-1 mod p is the closed form of the log
of the local Kummer symbol, read off the valuations without zeta.  Galois
equivalence and the power k of tau(g1) = g2^k both come from
``ValuationVector.ratio``, which also decides conjugacy of classes.
"""

from __future__ import annotations

from . import adeles, local_algebra as la
from .adeles import Adele, Idele, Point, ValuationVector
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
    an idele, held as its description: T^b with a b = s at each ramified
    point, and the split coordinates (zeta^c_j)_j with the residue pattern
    c of ``eigen_pattern`` at each split point, ``default_pattern`` at
    every unlisted one.  ``vector`` is the class of alpha^p = (t_x^b, 1):
    b v_x(t_x) mod p at each ramified point."""

    __slots__ = ("p", "s", "ram_exponents", "split_patterns", "default_pattern", "vector")

    def __init__(self, p, s, ram_exponents, split_patterns, default_pattern, vector):
        self.p = p
        self.s = s
        self.ram_exponents = ram_exponents  # Point -> b
        self.split_patterns = split_patterns  # Point -> residue tuple
        self.default_pattern = default_pattern
        self.vector = vector

    def patterns(self) -> Adele:
        """The residue patterns in restricted-product form."""
        return Adele(self.split_patterns, self.default_pattern)


def primitive_element(t: Idele, G: CyclicSubgroup, chi: Character) -> PrimitiveElement:
    """Construct the canonical (G, chi)-eigenvector with unit p-th power."""
    if not is_galois(t, G):
        raise NotGalois("the action is not pointwise transitive over this idele")
    p, s = G.p, chi.s
    g = G.generator
    ram_exponents = {}
    split_patterns = {}
    for pt, aut in g.exceptions.items():
        if aut.kind == "ram":
            ram_exponents[pt] = (s * pow(aut.a, -1, p)) % p
        else:
            split_patterns[pt] = eigen_pattern(aut.sigma, s, p)
    default_pattern = eigen_pattern(g.default_sigma, s, p)
    vector = ValuationVector(
        p, {pt: b * t.component(pt).valuation() for pt, b in ram_exponents.items()}
    )
    alpha = PrimitiveElement(p, s, ram_exponents, split_patterns, default_pattern, vector)
    _check_eigenvector(alpha, G, chi)
    return alpha


def _check_eigenvector(alpha: PrimitiveElement, G: CyclicSubgroup, chi: Character):
    """g(alpha) = chi(g) alpha on the description.  zeta has exact order p,
    so g(T^b) = zeta^(a b) T^b asks a b = s mod p at each ramified point of
    g, and (g alpha)_j = zeta^c[sigma(j)] asks c[sigma(j)] = c[j] + s mod p
    for every j at each split point and at the default."""
    p, s, g = G.p, chi.s, G.generator

    def split_eigen(c, aut):
        return aut.kind == "ram" or all(c[k - 1] == (cj + s) % p for k, cj in zip(aut.sigma, c))

    ramified = all(
        aut.a * alpha.ram_exponents.get(pt, 0) % p == s
        for pt, aut in g.exceptions.items()
        if aut.kind == "ram"
    )
    exceptions, default = alpha.patterns().combine(split_eigen, g)
    if not (ramified and default and all(exceptions.values())):
        raise CheckFailed("constructed eigenvector fails g(alpha) = chi(g) alpha")


def ram_tuple(G: CyclicSubgroup, t: Idele) -> RamTuple:
    """a_x v_x(t_x)^-1 mod p at each ramified point: log_zeta of the closed
    form ``kummer_pair(a_x, 1, v_x(t_x))`` of the symbol against z."""
    if not is_pointwise_transitive(G, t):
        raise NotTransitive("tuple invariant needs a pointwise transitive subgroup")
    p = G.p
    return RamTuple(p, {
        pt: G.generator.exceptions[pt].a * pow(t.component(pt).valuation(), -1, p) % p
        for pt in adeles.ram_locus(t, p)
    })


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


def _reads_through(pattern1, rho, pattern2) -> bool:
    """Whether pattern1[rho(j)] = pattern2[j] for every j: reading the
    coordinates through rho carries (zeta^pattern1) to (zeta^pattern2)."""
    return all(pattern1[r - 1] == c for r, c in zip(rho, pattern2))


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
    split_perms, default_perm = alpha1.patterns().combine(_pattern_perm, alpha2.patterns())
    # u = 1: the ramified exponents are equal, and eigen_pattern puts
    # zeta^0 first in every split pattern of both primitive elements
    return Conjugation(p, k, split_perms, default_perm, alpha1, alpha2)


def verify_conjugation(phi: Conjugation, G1: CyclicSubgroup, G2: CyclicSubgroup) -> bool:
    """Check phi . g1 = g2^k . phi exactly, as equal descriptions (a
    description fixes the action at every point), then phi(alpha1) = alpha2
    (u is 1) on the primitive elements' descriptions: phi fixes T^b, so the
    ramified exponents must be equal, and it reads split coordinates
    through rho, so pattern1[rho(j)] = pattern2[j] at each split point and
    at the default.  phi permutes split coordinates and fixes ramified
    parts, so it is a ring map by construction and its multiplicativity
    needs no check."""
    aut = phi.automorphism()
    if aut.compose(G1.generator) != G2.generator.power(phi.k).compose(aut):
        return False
    if phi.alpha1.ram_exponents != phi.alpha2.ram_exponents:
        return False
    exceptions, default = phi.alpha1.patterns().combine(
        _reads_through, Adele(phi.split_perms, phi.default_perm), phi.alpha2.patterns()
    )
    return default and all(exceptions.values())


def standard_kummer_subgroup(t: Idele, p: int) -> CyclicSubgroup:
    """The action g(T) = zeta T: exponent 1 at each ramified point and the
    standard p-cycle elsewhere."""
    exceptions = {
        pt: la.LocalAutomorphism.ram(1, p) for pt in adeles.ram_locus(t, p)
    }
    return CyclicSubgroup(
        GlobalAutomorphism(p, exceptions, standard_p_cycle(p)), p
    )
