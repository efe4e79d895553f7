"""The rank-p local algebras K_x[T]/(T^p - t_x): elements, automorphisms,
explicit isomorphisms and the Kummer pairing.

Where p divides v(t_x) the algebra splits into p copies of K_x; elsewhere
it is the degree-p field obtained by adjoining a p-th root of t_x, which
is never materialized as a series ring.  The ramification index
e_x = n / gcd(n, v) of any rank n is ``adeles.ram_profile``.

LocalPart holds an element of the rank-p algebra as the series
coefficients of 1, T, ..., T^(p-1), multiplied with T^p rewritten to t_x;
a local automorphism T -> zeta^a T acts on it by scaling the coefficient
of T^j by zeta^(a j).  The program computes in this form only in the
pairing oracle ``oracle_pair``, at a ramified point; the split algebra is
reached only through the finite descriptions of ``global_galois``.
"""

from __future__ import annotations

from math import gcd

from . import laurent as ls
from .coeff_field import FieldCtx, FieldElem
from .errors import (
    CheckFailed,
    IncompatibleStructure,
    UnramifiedPoint,
    ZeroParameter,
    json_value,
)


# ----------------------------------------------------------------------
# local automorphisms


def perm_order(sigma) -> int:
    """Order of a permutation in one-line form (1-based images)."""
    n = len(sigma)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        order = order * length // gcd(order, length)
    return order


def is_p_cycle(sigma) -> bool:
    return perm_order(sigma) == len(sigma)


def perm_compose(s_outer, s_inner):
    """Permutation of ``apply s_inner then s_outer`` on coordinate vectors.

    With the action (g v)_j = v_{sigma_g(j)}, applying h then g reads the
    index through sigma_g first: sigma_{g.h}(j) = sigma_h(sigma_g(j)).
    """
    return tuple(s_inner[s_outer[j] - 1] for j in range(len(s_outer)))


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for j, img in enumerate(sigma):
        inv[img - 1] = j + 1
    return tuple(inv)


def perm_power(sigma, k: int):
    n = len(sigma)
    if k < 0:
        return perm_power(perm_inverse(sigma), -k)
    result = tuple(range(1, n + 1))
    base = tuple(sigma)
    while k:
        if k & 1:
            result = perm_compose(result, base)
        base = perm_compose(base, base)
        k >>= 1
    return result


def identity_perm(p: int):
    return tuple(range(1, p + 1))


class LocalAutomorphism:
    """Either T -> zeta^a T on the ramified field, or a coordinate
    permutation of the split algebra (one-line form, 1-based)."""

    __slots__ = ("kind", "a", "sigma")

    def __init__(self, kind, a=None, sigma=None):
        if kind == "ram":
            self.kind = "ram"
            self.a = a
            self.sigma = None
        elif kind == "unram":
            if sorted(sigma) != list(range(1, len(sigma) + 1)):
                raise ValueError(f"not a permutation: {sigma}")
            self.kind = "unram"
            self.a = None
            self.sigma = tuple(sigma)
        else:
            raise ValueError(f"unknown automorphism kind {kind!r}")

    @classmethod
    def ram(cls, a: int, p: int) -> "LocalAutomorphism":
        return cls("ram", a=a % p)

    @classmethod
    def unram(cls, sigma) -> "LocalAutomorphism":
        return cls("unram", sigma=tuple(sigma))

    def __eq__(self, other):
        return (
            isinstance(other, LocalAutomorphism)
            and self.kind == other.kind
            and self.a == other.a
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.kind, self.a, self.sigma))

    def __repr__(self):
        if self.kind == "ram":
            return f"LocalAutomorphism.ram(a={self.a})"
        return f"LocalAutomorphism.unram({list(self.sigma)})"

    def order(self, p: int) -> int:
        if self.kind == "ram":
            return 1 if self.a == 0 else p
        return perm_order(self.sigma)

    def compose(self, other: "LocalAutomorphism", p: int) -> "LocalAutomorphism":
        """self after other (apply ``other`` first)."""
        if self.kind != other.kind:
            raise ValueError("cannot compose automorphisms of different kinds")
        if self.kind == "ram":
            return LocalAutomorphism.ram(self.a + other.a, p)
        return LocalAutomorphism.unram(perm_compose(self.sigma, other.sigma))

    def power(self, k: int, p: int) -> "LocalAutomorphism":
        if self.kind == "ram":
            return LocalAutomorphism.ram(self.a * k, p)
        return LocalAutomorphism.unram(perm_power(self.sigma, k))

    def to_json(self) -> dict:
        if self.kind == "ram":
            return {"kind": "ram", "a": self.a}
        return {"kind": "unram", "sigma": list(self.sigma)}

    @classmethod
    def from_json(cls, data: dict, p: int) -> "LocalAutomorphism":
        kind = data.get("kind")
        if kind == "ram":
            return cls.ram(json_value(data.get("a"), int, "ramified exponent 'a'"), p)
        if kind != "unram":
            raise ValueError(f"automorphism 'kind' must be \"ram\" or \"unram\", got {kind!r}")
        sigma = json_value(data.get("sigma"), list, "'sigma'")
        if not all(type(v) is int for v in sigma):
            raise ValueError(f"'sigma' must list integers, got {sigma!r}")
        return cls.unram(sigma)


# ----------------------------------------------------------------------
# elements of the rank-p local algebra


def _pol_mul(ctx, f, g):
    out = [ls.zero(ctx)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero:
            continue
        for j, b in enumerate(g):
            if b.is_zero:
                continue
            out[i + j] = ls.add(out[i + j], ls.mul(a, b))
    return out


class LocalPart:
    """Element of one local algebra K_x[T]/(T^p - t_x): the series
    coefficients of 1, T, ..., T^(p-1), possibly exact zero (algebra
    elements need not be invertible)."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = tuple(data)

    @classmethod
    def monomial(cls, b: int, c: ls.LaurentSeries, p: int) -> "LocalPart":
        """c * T^b, 0 <= b < p."""
        zero_s = ls.zero(c.ctx)
        return cls((zero_s,) * b + (c,) + (zero_s,) * (p - 1 - b))

    def scale(self, c: FieldElem) -> "LocalPart":
        return LocalPart(ls.scale(s, c) for s in self.data)

    def mul(self, other: "LocalPart", t_x: ls.LaurentSeries) -> "LocalPart":
        """Product over T^p = t_x: one convolution, then each degree k >= p
        folds onto k - p with one multiply by t_x."""
        p = len(self.data)
        conv = _pol_mul(t_x.ctx, self.data, other.data)
        for k in range(p, len(conv)):
            if not conv[k].is_zero:
                conv[k - p] = ls.add(conv[k - p], ls.mul(conv[k], t_x))
        return LocalPart(conv[:p])

    def apply(self, aut: LocalAutomorphism, ctx: FieldCtx) -> "LocalPart":
        """T -> zeta^a T."""
        assert aut.kind == "ram"
        zeta = ctx.ensure_zeta()
        return LocalPart([
            c if c.is_zero else ls.scale(c, ctx.pow(zeta, aut.a * j))
            for j, c in enumerate(self.data)
        ])

    def matches(self, other: "LocalPart") -> bool:
        return all(map(ls.matches, self.data, other.data))


# ----------------------------------------------------------------------
# explicit local isomorphisms


class LocalIsomorphism:
    """Map descriptor T -> factor * T^c between two rank-p local algebras.

    ``integral`` records whether the map preserves the integral models
    (equal valuations, factor a unit).
    """

    __slots__ = ("c", "factor", "integral")

    def __init__(self, c, factor, integral):
        self.c = c
        self.factor = factor
        self.integral = integral

    def image_of_t(self, t2x: ls.LaurentSeries, p: int) -> ls.LaurentSeries:
        """(factor * T)^p ... evaluated: factor^p * t2^c, the image of T^p."""
        return ls.mul(ls.power(self.factor, p), ls.power(t2x, self.c))


def local_isom(
    t1x: ls.LaurentSeries, t2x: ls.LaurentSeries, p: int, ctx: FieldCtx
) -> LocalIsomorphism:
    """An explicit K_x-algebra isomorphism from T^p = t1 to T^p = t2.

    Equal valuations give the integral-model-preserving T -> tau T with
    tau^p = t1/t2 by Hensel lifting; equal ramification indices give a
    structural T -> factor * T^c.  Raises IncompatibleStructure when the
    indices differ.
    """
    if t1x.is_zero or t2x.is_zero:
        raise ZeroParameter("local parameters must be nonzero")
    v1, v2 = t1x.valuation(), t2x.valuation()
    e1 = 1 if v1 % p == 0 else p
    e2 = 1 if v2 % p == 0 else p
    if e1 != e2:
        raise IncompatibleStructure(f"ramification indices differ: {e1} != {e2}")
    if (v1 - v2) % p == 0:
        c = 1
        quotient = ls.divide(t1x, t2x)
    else:
        c = (v1 * pow(v2, -1, p)) % p
        quotient = ls.divide(t1x, ls.power(t2x, c))
    factor = ls.nth_root_series(quotient, p)
    phi = LocalIsomorphism(c, factor, integral=(v1 == v2))
    if not ls.matches(phi.image_of_t(t2x, p), ls.truncate(t1x, phi.factor.prec)):
        raise CheckFailed("the local isomorphism does not carry T^p to t1")
    return phi


# ----------------------------------------------------------------------
# the local Kummer pairing


def kummer_pair(a: int, lam_val: int, t_val: int, ctx: FieldCtx) -> FieldElem:
    """Closed form of the pairing of T -> zeta^a T against a class of
    valuation lam_val: the class equals t_x^c with c t_val = lam_val,
    and pairing against t_x itself gives zeta^a."""
    p = ctx.p
    if t_val % p == 0:
        raise UnramifiedPoint("pairing needs a ramified point: p divides v(t)")
    zeta = ctx.ensure_zeta()
    c = a * lam_val * pow(t_val, -1, p)
    return ctx.pow(zeta, c % p)


def oracle_pair(
    a: int, lam: ls.LaurentSeries, t_x: ls.LaurentSeries, ctx: FieldCtx
) -> FieldElem | None:
    """The pairing in the algebra K_x[T]/(T^p - t_x): write lam = t_x^c w^p
    (the root may extend the tower), check y^p = lam for y = w T^c with
    products that fold T^p onto t_x, apply T -> zeta^a T, and read zeta^k
    with g(y) = zeta^k y off the T^c entries.  Returns zeta^k at its
    lowest level, or None when a check fails."""
    p = ctx.p
    if t_x.is_zero or lam.is_zero:
        raise ZeroParameter("pairing arguments must be nonzero")
    t_val = t_x.valuation()
    if t_val % p == 0:
        raise UnramifiedPoint("pairing needs a ramified point: p divides v(t)")
    c = (lam.valuation() * pow(t_val, -1, p)) % p
    w = ls.nth_root_series(ls.divide(lam, ls.power(t_x, c)) if c else lam, p)
    y = LocalPart.monomial(c, w, p)
    y_p = y
    for _ in range(p - 1):
        y_p = y_p.mul(y, t_x)
    if not y_p.matches(LocalPart.monomial(0, lam, p)):
        return None
    image = y.apply(LocalAutomorphism.ram(a, p), ctx)
    ratio = ctx.div(image.data[c].leading(), w.leading())
    if not ctx.eq(ctx.pow(ratio, p), ctx.one()) or not image.matches(y.scale(ratio)):
        return None
    return ctx.project(ratio)
