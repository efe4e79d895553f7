"""Reference definitions that only the tests call.

The program reaches the local and global algebras through ideles,
automorphisms, the finite descriptions of primitive elements and
conjugations, and the Kummer pairing.  The splitting data of
K_x[T]/(T^n - t_x), a Leibniz characteristic polynomial, the eigenspace
projector, and the series model of an algebra element (``SplitPart``
beside ``la.LocalPart``, ``AlgebraElement``, ``as_algebra_element`` and
``in_eigenspace``), and alpha^p as a series idele (``pth_power_idele``),
serve as independent checks of that code, so they live beside the tests
that use them.  Methods of the program's classes become functions taking
the instance first.
"""

from __future__ import annotations

import itertools
from math import gcd

from adelic_kummer import adeles, global_galois as gg, laurent as ls, local_algebra as la
from adelic_kummer.adeles import Adele, Idele, ValuationVector
from adelic_kummer.coeff_field import FieldCtx, FieldElem, prime_factors
from adelic_kummer.errors import (
    AdelicError,
    IncompatibleStructure,
    NotAUnit,
    NotGalois,
    ZeroInverse,
    ZeroParameter,
)


class NonInvertible(AdelicError):
    code = "NonInvertible"


# ----------------------------------------------------------------------
# roots of unity


def reference_root_of_unity(ctx: FieldCtx, level: int, m: int) -> FieldElem:
    """The first element of exact order m at ``level``, scanning the level
    in lexicographic order on flat coordinates."""
    one = ctx.one()
    for flat in itertools.product(range(ctx.ell), repeat=ctx.abs_degree(level)):
        x = FieldElem(level, flat)
        if ctx.eq(ctx.pow(x, m), one) and not any(
            ctx.eq(ctx.pow(x, m // r), one) for r in prime_factors(m)
        ):
            return x


# ----------------------------------------------------------------------
# series


def uniformizer(ctx: FieldCtx, prec: int = ls.DEFAULT_PREC) -> ls.LaurentSeries:
    """The local parameter z."""
    return ls.LaurentSeries(ctx, 1, (ctx.one(),) + (ctx.zero(),) * (prec - 1), _checked=True)


def nth_root_series(s: ls.LaurentSeries, n: int | None = None) -> ls.LaurentSeries:
    """Root of z^val * unit with val divisible by n (default ctx.p): exact
    division of the exponent, then one Hensel root of the unit for each
    prime factor of n, counted with multiplicity."""
    if s.is_zero:
        raise ZeroInverse("exact zero has no root with a valuation")
    if n is None:
        n = s.ctx.p
    if s.val % n != 0:
        raise NotAUnit(f"valuation {s.val} is not divisible by {n}")
    root = ls.LaurentSeries(s.ctx, 0, s.coeffs, _checked=True)
    k = n
    for r in prime_factors(n):
        while k % r == 0:
            root = ls.hensel_pth_root(root, r)
            k //= r
    return ls.shift(root, s.val // n)


# ----------------------------------------------------------------------
# ideles and classes


def unit_idele(ctx: FieldCtx, prec: int = ls.DEFAULT_PREC) -> Idele:
    return Idele({}, ls.one(ctx, prec))


def idele_to_json(t: Idele) -> dict:
    return {
        "default": ls.to_text(t.default),
        "points": {pt.label: ls.to_text(s) for pt, s in sorted(t.exceptions.items())},
    }


def is_pth_power(t: Idele, p: int) -> bool:
    """Kernel test: the valuation vector vanishes."""
    return adeles.valuation_vector(t, p).is_trivial


def idele_eq(t1: Idele, t2: Idele) -> bool:
    exceptions, default = t1.combine(ls.matches, t2)
    return default and all(exceptions.values())


def kummer_inverse(
    vec: ValuationVector, ctx: FieldCtx, prec: int = ls.DEFAULT_PREC
) -> Idele:
    """Canonical witness idele: z^v at each support point, 1 elsewhere."""
    exceptions = {
        pt: ls.shift(ls.one(ctx, prec), v) for pt, v in vec.support.items()
    }
    return Idele(exceptions, ls.one(ctx, prec))


# ----------------------------------------------------------------------
# structure of the local algebras K_x[T]/(T^n - t_x)

UNRAMIFIED = "unramified"
TOTALLY_RAMIFIED = "totally_ramified"
MIXED = "mixed"


class LocalStructure:
    """Splitting data of K_x[T]/(T^n - t_x): m copies of a degree-e extension."""

    __slots__ = ("n", "m", "e", "kind", "tau", "xi", "t_x")

    def __init__(self, n, m, e, kind, tau, xi, t_x):
        self.n = n
        self.m = m
        self.e = e
        self.kind = kind
        self.tau = tau  # chosen m-th root of t_x
        self.xi = xi  # primitive m-th root of unity
        self.t_x = t_x

    def evaluate(self, poly):
        """Split-case coordinates of a T-polynomial: (P(xi^i tau))_i.

        ``poly`` lists n series coefficients of 1, T, ..., T^(n-1); only
        valid when e = 1.
        """
        if self.e != 1:
            raise IncompatibleStructure("evaluation map needs the split case e = 1")
        ctx = self.t_x.ctx
        coords = []
        point = self.tau
        for i in range(self.n):
            acc = ls.zero(ctx)
            # Horner from the top coefficient
            for c in reversed(poly):
                acc = ls.mul(acc, point)
                if not c.is_zero:
                    acc = ls.add(acc, c)
            coords.append(acc)
            point = ls.scale(point, self.xi)
        return tuple(coords)


def local_structure(t_x: ls.LaurentSeries, n: int, ctx: FieldCtx) -> LocalStructure:
    if t_x.is_zero:
        raise ZeroParameter("local parameter must be nonzero")
    v = t_x.valuation()
    m = gcd(n, v)
    e = n // m
    kind = UNRAMIFIED if e == 1 else (TOTALLY_RAMIFIED if e == n else MIXED)
    if (ctx.ell - 1) % m:
        raise ValueError(f"F_{ctx.ell} has no primitive {m}-th root of unity")
    tau = nth_root_series(t_x, m)
    xi = reference_root_of_unity(ctx, 0, m)
    return LocalStructure(n, m, e, kind, tau, xi, t_x)


class SplitPart:
    """Element of the split algebra K_x^p at a point where p divides
    v(t_x): p series coordinates, multiplied componentwise.  The split
    coordinates have no canonical order, so only permutation-invariant
    statements are guaranteed about them."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = tuple(data)

    def scale(self, c: FieldElem) -> "SplitPart":
        return SplitPart(ls.scale(s, c) for s in self.data)

    def mul(self, other: "SplitPart", t_x: ls.LaurentSeries) -> "SplitPart":
        return SplitPart(map(ls.mul, self.data, other.data))

    def apply(self, aut: la.LocalAutomorphism, ctx: FieldCtx | None = None) -> "SplitPart":
        """(g v)_j = v_{sigma(j)}."""
        assert aut.kind == "unram"
        return SplitPart(self.data[i - 1] for i in aut.sigma)

    def matches(self, other: "SplitPart") -> bool:
        return all(map(ls.matches, self.data, other.data))


def local_part_add(self, other):
    assert type(self) is type(other)
    return type(self)(map(ls.add, self.data, other.data))


# ----------------------------------------------------------------------
# characteristic polynomials of local eigenvectors


def _pol_add(ctx, f, g):
    n = max(len(f), len(g))
    z = ls.zero(ctx)
    return [
        ls.add(f[i] if i < len(f) else z, g[i] if i < len(g) else z) for i in range(n)
    ]


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _ram_monomial(alpha: la.LocalPart):
    """(b, c) of a ramified eigenvector c * T^b."""
    support = [b for b, c in enumerate(alpha.data) if not c.is_zero]
    if not support:
        raise NonInvertible("eigenvector unit coefficient is zero")
    if len(support) > 1:
        raise ValueError("a ramified eigenvector must be a monomial c * T^b")
    return support[0], alpha.data[support[0]]


def char_poly_primitive(alpha: la.LocalPart, t_x: ls.LaurentSeries, p: int, ctx: FieldCtx):
    """Characteristic polynomial of multiplication by a local eigenvector,
    as the Leibniz determinant of T*I - M over the p-dimensional algebra.

    ``alpha`` is a monomial ``la.LocalPart`` or a ``SplitPart``.  Returns p+1
    series coefficients, constant term first.
    """
    if len(alpha.data) != p:
        raise ValueError("eigenvector needs p coordinates")
    zero_s = ls.zero(ctx)
    m = [[zero_s] * p for _ in range(p)]
    if isinstance(alpha, la.LocalPart):
        b, unit = _ram_monomial(alpha)
        for j in range(p):
            k = b + j
            m[k % p][j] = unit if k < p else ls.mul(unit, t_x)
    else:
        if any(c.is_zero for c in alpha.data):
            raise NonInvertible("split eigenvector has a zero coordinate")
        for j in range(p):
            m[j][j] = alpha.data[j]

    # entries of T*I - M as linear polynomials in T
    prec = min(
        [c.prec for row in m for c in row if not c.is_zero] + [t_x.prec]
    )
    one_s = ls.one(ctx, prec)
    entry = [
        [[ls.neg(m[i][j])] + ([one_s] if i == j else []) for j in range(p)]
        for i in range(p)
    ]
    det = [zero_s]
    for perm in itertools.permutations(range(p)):
        term = [one_s]
        for i in range(p):
            term = la._pol_mul(ctx, term, entry[i][perm[i]])
        if _perm_sign(perm) < 0:
            term = [ls.neg(c) for c in term]
        det = _pol_add(ctx, det, term)
    return det


def eigenvector_pth_power(alpha: la.LocalPart, t_x: ls.LaurentSeries, p: int, ctx: FieldCtx):
    """alpha^p as an element of the base: unit^p t^b, or the split diagonal."""
    if isinstance(alpha, la.LocalPart):
        b, unit = _ram_monomial(alpha)
        return ls.mul(ls.power(unit, p), ls.power(t_x, b))
    first = ls.power(alpha.data[0], p)
    for c in alpha.data[1:]:
        assert ls.matches(ls.power(c, p), ls.truncate(first, min(first.prec, c.prec)))
    return first


# ----------------------------------------------------------------------
# global automorphisms and algebra elements


def local_automorphism_inverse(self: la.LocalAutomorphism, p: int) -> la.LocalAutomorphism:
    if self.kind == "ram":
        return la.LocalAutomorphism.ram(-self.a, p)
    return la.LocalAutomorphism.unram(la.perm_inverse(self.sigma))


def automorphism_inverse(self: gg.GlobalAutomorphism) -> gg.GlobalAutomorphism:
    return self._pointwise(lambda a: local_automorphism_inverse(a, self.p))


def identity_automorphism(p: int) -> gg.GlobalAutomorphism:
    return gg.GlobalAutomorphism(p, {}, la.identity_perm(p))


def random_p_cycle(p: int, rng) -> tuple:
    """A random p-cycle in one-line form (1-based images)."""
    rest = list(range(2, p + 1))
    rng.shuffle(rest)
    cycle = [1] + rest
    sigma = [0] * p
    for i in range(p):
        sigma[cycle[i] - 1] = cycle[(i + 1) % p]
    return tuple(sigma)


class AlgebraElement(Adele):
    """Element of a rank-p adelic algebra with finite support: exceptional
    local parts, and the split ``default`` used at every unlisted point.
    No exception is dropped."""

    __slots__ = ("p",)

    def __init__(self, p: int, exceptions, default: SplitPart):
        assert isinstance(default, SplitPart)
        self.p = p
        super().__init__(exceptions, default)

    @classmethod
    def embed(cls, u: Idele, t: Idele, p: int) -> "AlgebraElement":
        """Diagonal embedding of a base element, respecting t's part kinds:
        the constant T-polynomial u_x at ramified points, p equal
        coordinates elsewhere."""
        zero_s = ls.zero(u.ctx)
        parts = {pt: SplitPart((s,) * p) for pt, s in u.exceptions.items()}
        for pt in adeles.ram_locus(t, p):
            parts[pt] = la.LocalPart((u.component(pt),) + (zero_s,) * (p - 1))
        return cls(p, parts, SplitPart((u.default,) * p))

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.p, *self.combine(lambda part: part.scale(c)))

    def apply(self, g: gg.GlobalAutomorphism, ctx: FieldCtx) -> "AlgebraElement":
        return AlgebraElement(self.p, *self.combine(lambda part, aut: part.apply(aut, ctx), g))

    def matches(self, other: "AlgebraElement") -> bool:
        if self.p != other.p:
            return False
        exceptions, default = self.combine(lambda a, b: type(a) is type(b) and a.matches(b), other)
        return default and all(exceptions.values())


def as_algebra_element(alpha: gg.PrimitiveElement, t: Idele, prec: int = 8) -> AlgebraElement:
    """The series model of a primitive element: T^b at ramified points and
    the coordinates (zeta^c_j)_j of its residue pattern c elsewhere."""
    ctx = t.ctx
    zeta = ctx.ensure_zeta()
    one_s = ls.one(ctx, prec)
    parts = {
        pt: la.LocalPart.monomial(b, one_s, alpha.p)
        for pt, b in alpha.ram_exponents.items()
    }

    def split(pattern):
        return SplitPart(ls.constant(ctx, ctx.pow(zeta, c), prec) for c in pattern)

    for pt, pattern in alpha.split_patterns.items():
        parts[pt] = split(pattern)
    return AlgebraElement(alpha.p, parts, split(alpha.default_pattern))


def pth_power_idele(alpha: gg.PrimitiveElement, t: Idele) -> Idele:
    """alpha^p as a series idele: (T^b)^p = t_x^b at each ramified point,
    and 1 at split points, where (zeta^c_j)^p = 1."""
    return Idele(
        {pt: ls.power(t.component(pt), b) for pt, b in alpha.ram_exponents.items()},
        ls.one(t.ctx, t.default.prec),
    )


def in_eigenspace(
    elem: AlgebraElement, G: gg.CyclicSubgroup, chi: gg.Character, ctx: FieldCtx
) -> bool:
    zeta = ctx.ensure_zeta()
    return elem.apply(G.generator, ctx).matches(elem.scale(ctx.pow(zeta, chi.s)))


def algebra_one(p: int, t: Idele, prec: int = 8) -> AlgebraElement:
    return AlgebraElement.embed(unit_idele(t.ctx, prec), t, p)


def algebra_add(self: AlgebraElement, other: AlgebraElement) -> AlgebraElement:
    assert self.p == other.p
    return AlgebraElement(self.p, *self.combine(local_part_add, other))


def algebra_mul(self: AlgebraElement, other: AlgebraElement, t: Idele) -> AlgebraElement:
    """Product in the algebra over t, one point at a time."""
    assert self.p == other.p
    return AlgebraElement(self.p, *self.combine(lambda a, b, t_x: a.mul(b, t_x), other, t))


def eigenproject(
    sample: AlgebraElement, G: gg.CyclicSubgroup, chi: gg.Character, t: Idele
) -> AlgebraElement:
    """Apply the eigenspace idempotent (1/p) sum of chi(g^-1) g."""
    if not gg.is_galois(t, G):
        raise NotGalois("projection needs a Galois action")
    ctx = t.ctx
    zeta = ctx.ensure_zeta()
    p = G.p
    acc = sample.scale(ctx.inv_int(p))
    g_power = G.generator
    for k in range(1, p):
        weight = ctx.mul(ctx.pow(zeta, (-chi.s * k) % p), ctx.inv_int(p))
        acc = algebra_add(acc, sample.apply(g_power, ctx).scale(weight))
        g_power = G.generator.compose(g_power)
    return acc
