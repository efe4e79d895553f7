"""The flat packed field kernel against the nested-tuple element model.

The reference is the recursive model the kernel replaced: a level-i element
is a tuple of d_i level-(i-1) elements (an int at level 0), multiplied by
schoolbook products reduced by the step polynomial and inverted by extended
Euclid over the level below.  Canonical choices (zeta, roots, tower
polynomials) are pinned to the literals the nested model produced.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adelic_kummer.coeff_field import (
    FieldCtx,
    FieldElem,
    _next_layout,
    elem_from_text,
    elem_to_text,
    prime_factors,
)

# ----------------------------------------------------------------------
# reference: the nested model


class NestedTower:
    """Nested-tuple arithmetic over the step polynomials of a context."""

    def __init__(self, ctx):
        self.ell = ctx.ell
        self.dims = [ctx.abs_degree(i) for i in range(ctx.levels)]
        self.steps = []  # (degree, nested monic polynomial) per level above 0
        for i, poly in enumerate(ctx.tower_polys()):
            self.steps.append((len(poly) - 1, tuple(self.unflatten(i, c.coeffs) for c in poly)))

    # representation

    def unflatten(self, level, flat):
        if level == 0:
            return flat[0] % self.ell
        d = self.steps[level - 1][0]
        sub = self.dims[level - 1]
        return tuple(self.unflatten(level - 1, flat[k * sub : (k + 1) * sub]) for k in range(d))

    def flatten(self, level, x):
        if level == 0:
            return (x,)
        return tuple(c for part in x for c in self.flatten(level - 1, part))

    def lift(self, from_level, to_level, x):
        for lvl in range(from_level + 1, to_level + 1):
            d = self.steps[lvl - 1][0]
            x = (x,) + (self.zero(lvl - 1),) * (d - 1)
        return x

    def of(self, a, level=None):
        level = a.level if level is None else level
        return self.lift(a.level, level, self.unflatten(a.level, a.coeffs))

    def elem(self, level, x):
        return FieldElem(level, self.flatten(level, x))

    # arithmetic

    def zero(self, level):
        if level == 0:
            return 0
        return (self.zero(level - 1),) * self.steps[level - 1][0]

    def one(self, level):
        if level == 0:
            return 1
        return (self.one(level - 1),) + (self.zero(level - 1),) * (self.steps[level - 1][0] - 1)

    def is_zero(self, level, a):
        return a == self.zero(level)

    def add(self, level, a, b):
        if level == 0:
            return (a + b) % self.ell
        return tuple(self.add(level - 1, x, y) for x, y in zip(a, b))

    def neg(self, level, a):
        if level == 0:
            return -a % self.ell
        return tuple(self.neg(level - 1, x) for x in a)

    def mul(self, level, a, b):
        if level == 0:
            return a * b % self.ell
        d, poly = self.steps[level - 1]
        below = level - 1
        zero = self.zero(below)
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = self.add(below, prod[i + j], self.mul(below, x, y))
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            for j in range(d):
                prod[k - d + j] = self.add(
                    below, prod[k - d + j], self.neg(below, self.mul(below, c, poly[j]))
                )
            prod[k] = zero
        return tuple(prod[:d])

    def pow(self, level, a, e):
        if e < 0:
            return self.pow(level, self.inv(level, a), -e)
        result = self.one(level)
        while e:
            if e & 1:
                result = self.mul(level, result, a)
            a = self.mul(level, a, a)
            e >>= 1
        return result

    def inv(self, level, a):
        if self.is_zero(level, a):
            raise ZeroDivisionError
        if level == 0:
            return pow(a, self.ell - 2, self.ell)
        d, poly = self.steps[level - 1]
        j = level - 1
        r0, r1 = list(poly), self._trim(j, list(a))
        s0, s1 = [self.zero(j)], [self.one(j)]
        while len(r1) > 1:
            q, r = self._divmod(j, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self._trim(j, self._sub(j, s0, self._pmul(j, q, s1)))
        c_inv = self.inv(j, r1[0])
        out = [self.mul(j, c_inv, c) for c in s1]
        return tuple(out + [self.zero(j)] * (d - len(out)))

    # polynomials over level j, lowest degree first

    def _trim(self, j, f):
        while len(f) > 1 and self.is_zero(j, f[-1]):
            f.pop()
        return f

    def _sub(self, j, f, g):
        z = self.zero(j)
        n = max(len(f), len(g))
        f, g = f + [z] * (n - len(f)), g + [z] * (n - len(g))
        return [self.add(j, x, self.neg(j, y)) for x, y in zip(f, g)]

    def _pmul(self, j, f, g):
        out = [self.zero(j)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for k, y in enumerate(g):
                out[i + k] = self.add(j, out[i + k], self.mul(j, x, y))
        return out

    def _divmod(self, j, f, g):
        lead_inv = self.inv(j, g[-1])
        rem = list(f)
        quo = [self.zero(j)] * max(1, len(rem) - len(g) + 1)
        for k in range(len(rem) - len(g), -1, -1):
            c = self.mul(j, rem[k + len(g) - 1], lead_inv)
            quo[k] = c
            for i, gc in enumerate(g):
                rem[k + i] = self.add(j, rem[k + i], self.neg(j, self.mul(j, c, gc)))
        return quo, self._trim(j, rem)

    def project(self, a):
        lvl, x = a.level, self.of(a)
        while lvl > 0 and all(self.is_zero(lvl - 1, c) for c in x[1:]):
            lvl, x = lvl - 1, x[0]
        return self.elem(lvl, x)


# ----------------------------------------------------------------------
# towers

PAIRS = [(7, 3), (11, 5), (2, 3), (5, 3), (3, 5), (2, 5)]
_TOWERS = {}


def extended(ell, p):
    """The context of a pair extended past its zeta level, and the root that
    extended it: the roots of 2 for (7,3) and (11,5), of zeta for (2,3) and
    (5,3); (3,5) and (2,5) stop at their zeta level (degree 4)."""
    ctx = FieldCtx(ell, p)
    zeta = ctx.ensure_zeta()
    root = None
    if ell in (7, 11):
        root = ctx.nth_root(ctx.elem(2), p)
    elif p == 3:
        root = ctx.nth_root(zeta, p)
    return ctx, root


def tower(pair):
    """A shared context with its reference; tests never extend it further."""
    if pair not in _TOWERS:
        ctx, _ = extended(*pair)
        _TOWERS[pair] = ctx, NestedTower(ctx)
    return _TOWERS[pair]


def test_towers_have_the_expected_degrees():
    degrees = {pair: tower(pair)[1].dims for pair in PAIRS}
    assert degrees == {
        (7, 3): [1, 3],
        (11, 5): [1, 5],
        (2, 3): [1, 2, 6],
        (5, 3): [1, 2, 6],
        (3, 5): [1, 4],
        (2, 5): [1, 4],
    }


@st.composite
def elems(draw, ctx, nonzero=False):
    """An element of a random level, sometimes one that lies in a lower level."""
    level = draw(st.integers(0, ctx.levels - 1))
    home = draw(st.integers(0, level))
    dim = ctx.abs_degree(home)
    coords = draw(st.lists(st.integers(0, ctx.ell - 1), min_size=dim, max_size=dim))
    if nonzero and not any(coords):
        coords[0] = 1
    return FieldElem(level, coords + [0] * (ctx.abs_degree(level) - dim))


# ----------------------------------------------------------------------
# the kernel against the reference


@pytest.mark.parametrize("pair", PAIRS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_arithmetic_matches_nested_reference(pair, data):
    ctx, ref = tower(pair)
    a, b = data.draw(elems(ctx)), data.draw(elems(ctx))
    lvl = max(a.level, b.level)
    x, y = ref.of(a, lvl), ref.of(b, lvl)
    assert ctx.mul(a, b) == ref.elem(lvl, ref.mul(lvl, x, y))
    assert ctx.add(a, b) == ref.elem(lvl, ref.add(lvl, x, y))
    assert ctx.sub(a, b) == ref.elem(lvl, ref.add(lvl, x, ref.neg(lvl, y)))
    assert ctx.neg(a) == ref.elem(a.level, ref.neg(a.level, ref.of(a)))
    assert ctx.eq(a, b) == (x == y)
    assert ctx.eq(a, ctx.embed(a, lvl))
    assert ctx.embed(a, lvl) == ref.elem(lvl, ref.of(a, lvl))
    assert ctx.project(a) == ref.project(a)
    e = data.draw(st.integers(0, 40))
    assert ctx.pow(a, e) == ref.elem(a.level, ref.pow(a.level, ref.of(a), e))
    c = data.draw(elems(ctx, nonzero=True))
    assert ctx.inv(c) == ref.elem(c.level, ref.inv(c.level, ref.of(c)))
    assert ctx.pow(c, -e) == ref.elem(c.level, ref.pow(c.level, ref.of(c), -e))
    assert ctx.div(a, c) == ctx.mul(a, ctx.inv(c))


@pytest.mark.parametrize("pair", PAIRS)
def test_monomial_tables_match_nested_products(pair):
    ctx, ref = tower(pair)
    for level in range(1, ctx.levels):
        lay = ctx._layouts[level]
        gens = [
            ref.lift(i, level, (ref.zero(i - 1), ref.one(i - 1)) + (ref.zero(i - 1),) * (d - 2))
            for i, (d, _) in enumerate(ref.steps[:level], 1)
        ]
        radices = [2 * d - 1 for d, _ in ref.steps[:level]]
        for m, row in enumerate(lay.table):
            mono = ref.one(level)
            for gen, r in zip(gens, radices):
                m, e = divmod(m, r)
                mono = ref.mul(level, mono, ref.pow(level, gen, e))
            assert row == ref.flatten(level, mono)


@pytest.mark.parametrize("pair", PAIRS)
def test_inverse_of_zero_raises(pair):
    ctx, _ = tower(pair)
    for level in range(ctx.levels):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ctx.embed(ctx.zero(), level))
    for level in range(1, ctx.levels):
        with pytest.raises(ZeroDivisionError):
            ctx.pow(ctx.embed(ctx.zero(), level), -1)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(ctx.zero(), -1)


def test_wrong_length_vector_raises_value_error():
    ctx, _ = tower((2, 3))
    bad = FieldElem(1, (1, 0, 1))  # level 1 has absolute degree 2
    good = FieldElem(2, (1, 0, 0, 1, 1, 0))
    for op in (
        lambda: ctx.mul(bad, good),
        lambda: ctx.mul(good, bad),
        lambda: ctx.mul(bad, ctx.elem(3)),
        lambda: ctx.add(bad, good),
        lambda: ctx.neg(bad),
        lambda: ctx.inv(bad),
        lambda: ctx.pow(bad, 3),
        lambda: ctx.eq(bad, good),
        lambda: ctx.embed(bad, 2),
        lambda: ctx.project(bad),
        lambda: ctx.nth_root(bad, 3),
    ):
        with pytest.raises(ValueError):
            op()


def test_unreduced_coordinates_are_read_mod_ell():
    ctx, _ = tower((5, 3))
    raw = FieldElem(2, (7, -1, 0, 5, 12, -5))
    reduced = FieldElem(2, (2, 4, 0, 0, 2, 0))
    other = FieldElem(2, (1, 2, 3, 4, 0, 1))
    assert ctx.mul(raw, other) == ctx.mul(reduced, other)
    assert ctx.mul(raw, ctx.elem(3)) == ctx.mul(reduced, ctx.elem(3))
    assert ctx.add(raw, other) == ctx.add(reduced, other)
    assert ctx.neg(raw) == ctx.neg(reduced)
    assert ctx.inv(raw) == ctx.inv(reduced)
    assert ctx.pow(raw, 7) == ctx.pow(reduced, 7)
    assert ctx.nth_root(ctx.pow(raw, 3), 3) == ctx.nth_root(ctx.pow(reduced, 3), 3)
    low = FieldElem(1, (6, 5))
    assert ctx.embed(low, 2) == FieldElem(2, (1, 0, 0, 0, 0, 0))
    assert ctx.project(ctx.embed(low, 2)) == ctx.project(low) == ctx.one()
    assert ctx.eq(low, ctx.one())


def test_eq_reads_coordinates_mod_ell_at_equal_levels():
    ctx, _ = tower((5, 3))
    assert ctx.eq(FieldElem(0, (6,)), FieldElem(0, (1,)))
    assert ctx.eq(FieldElem(0, (-1,)), ctx.elem(4))
    assert ctx.eq(FieldElem(1, (6, 5)), FieldElem(1, (1, 0)))
    assert ctx.eq(FieldElem(1, (6, 5)), ctx.one())
    assert not ctx.eq(FieldElem(0, (6,)), FieldElem(0, (2,)))
    assert not ctx.eq(FieldElem(1, (6, 5)), FieldElem(1, (1, 1)))


def test_literal_coordinates_outside_f_ell_are_rejected():
    ctx, _ = tower((5, 3))
    for text in ("L0:[-1]", "L0:[5]", "L1:[6,5]", "L1:[0,-1]"):
        with pytest.raises(ValueError, match="outside"):
            ctx.elem_from_text(text)
    assert ctx.elem_from_text("L1:[4,0]") == FieldElem(1, (4, 0))


# ----------------------------------------------------------------------
# canonical choices, recorded from the nested model

PINNED = {
    (7, 3): {
        "zeta": "L0:[2]",
        "extension_root": "L1:[0,1,0]",
        "level0_roots": [
            "L0:[1]", "L1:[0,1,0]", "L1:[0,0,3]", "L1:[0,0,1]", "L1:[0,3,0]", "L0:[3]",
        ],
        "roots": [
            ("L0:[6]", "L0:[3]"),
            ("L0:[1]", "L0:[1]"),
            ("L1:[0,6,3]", "L1:[3,1,2]"),
            ("L1:[4,3,2]", "L1:[3,3,6]"),
            ("L1:[6,4,6]", "L1:[1,1,4]"),
        ],
        "tower": [["L0:[5]", "L0:[0]", "L0:[0]", "L0:[1]"]],
    },
    (11, 5): {
        "zeta": "L0:[3]",
        "extension_root": "L1:[0,1,0,0,0]",
        "level0_roots": [
            "L0:[1]", "L1:[0,1,0,0,0]", "L1:[0,0,0,2,0]", "L1:[0,0,1,0,0]", "L1:[0,0,0,0,1]",
            "L1:[0,0,0,0,2]", "L1:[0,0,2,0,0]", "L1:[0,0,0,1,0]", "L1:[0,2,0,0,0]", "L0:[2]",
        ],
        "roots": [
            ("L0:[1]", "L0:[1]"),
            ("L0:[10]", "L0:[2]"),
            ("L1:[8,3,10,5,2]", "L1:[1,2,9,10,5]"),
            ("L1:[7,5,8,1,4]", "L1:[2,10,9,9,0]"),
            ("L1:[4,7,5,10,9]", "L1:[1,10,2,8,4]"),
        ],
        "tower": [["L0:[9]", "L0:[0]", "L0:[0]", "L0:[0]", "L0:[0]", "L0:[1]"]],
    },
    (2, 3): {
        "zeta": "L1:[0,1]",
        "extension_root": "L2:[0,0,0,1,0,0]",
        "level0_roots": ["L0:[1]"],
        "roots": [
            ("L0:[1]", "L0:[1]"),
            ("L1:[1,0]", "L1:[0,1]"),
            ("L2:[0,0,1,1,1,1]", "L2:[0,1,1,0,1,1]"),
            ("L2:[1,1,1,0,1,0]", "L2:[0,1,0,1,0,0]"),
            ("L2:[0,0,1,1,1,0]", "L2:[0,1,0,1,1,0]"),
        ],
        "tower": [
            ["L0:[1]", "L0:[1]", "L0:[1]"],
            ["L1:[0,1]", "L1:[0,0]", "L1:[0,0]", "L1:[1,0]"],
        ],
    },
    (5, 3): {
        "zeta": "L1:[1,1]",
        "extension_root": "L2:[0,0,1,0,0,0]",
        "level0_roots": ["L0:[1]", "L0:[3]", "L0:[2]", "L0:[4]"],
        "roots": [
            ("L0:[4]", "L0:[4]"),
            ("L0:[1]", "L0:[1]"),
            ("L1:[4,0]", "L1:[2,1]"),
            ("L1:[3,2]", "L1:[0,3]"),
            ("L1:[1,0]", "L1:[1,0]"),
            ("L2:[0,0,2,2,2,2]", "L2:[1,0,3,1,2,4]"),
            ("L2:[0,2,2,4,3,1]", "L2:[0,2,4,4,4,2]"),
            ("L2:[3,2,0,4,1,1]", "L2:[3,0,4,0,4,2]"),
        ],
        "tower": [
            ["L0:[3]", "L0:[3]", "L0:[1]"],
            ["L1:[4,4]", "L1:[0,0]", "L1:[0,0]", "L1:[1,0]"],
        ],
    },
    (3, 5): {
        "zeta": "L1:[1,0,0,2]",
        "extension_root": None,
        "level0_roots": ["L0:[1]", "L0:[2]"],
        "roots": [
            ("L0:[1]", "L0:[1]"),
            ("L1:[2,0,2,0]", "L1:[0,1,0,0]"),
            ("L1:[2,2,1,2]", "L1:[0,1,2,2]"),
            ("L1:[0,2,2,1]", "L1:[0,1,1,2]"),
        ],
        "tower": [["L0:[2]", "L0:[2]", "L0:[1]", "L0:[1]", "L0:[1]"]],
    },
    (2, 5): {
        "zeta": "L1:[0,0,0,1]",
        "extension_root": None,
        "level0_roots": ["L0:[1]"],
        "roots": [
            ("L1:[0,1,1,0]", "L1:[0,1,0,0]"),
            ("L1:[1,1,1,0]", "L1:[0,0,1,0]"),
        ],
        "tower": [["L0:[1]", "L0:[1]", "L0:[0]", "L0:[0]", "L0:[1]"]],
    },
}


def test_pinned_literals_are_complete():
    assert sorted(PINNED) == sorted(PAIRS)


@pytest.mark.parametrize("pair", PAIRS)
def test_canonical_choices_are_pinned(pair):
    want = PINNED[pair]
    ctx, root = extended(*pair)
    levels = ctx.levels
    assert elem_to_text(ctx.zeta) == want["zeta"]
    assert (root and elem_to_text(root)) == want["extension_root"]
    assert ctx.to_json() == {"ell": pair[0], "p": pair[1], "tower": want["tower"]}
    roots = [elem_to_text(ctx.nth_root(ctx.elem(x), pair[1])) for x in range(1, pair[0])]
    assert roots == want["level0_roots"]
    for x, r in want["roots"]:
        assert elem_to_text(ctx.nth_root(elem_from_text(x), pair[1])) == r
    assert ctx.levels == levels
    assert FieldCtx.from_json(ctx.to_json()).to_json() == ctx.to_json()


def test_zeta_3_23_is_pinned():
    # the first element of order 23 in F_3^11, 8,028 candidates into the scan
    ctx = FieldCtx(3, 23)
    assert elem_to_text(ctx.ensure_zeta()) == "L1:[0,0,1,0,2,0,0,0,1,0,0]"


# ----------------------------------------------------------------------
# Rabin test against sympy


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_rabin_matches_sympy(ell):
    sympy_gf = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    ctx = FieldCtx(ell, 2 if ell != 2 else 3)
    rng = random.Random(f"rabin:{ell}")
    for _ in range(60):
        degree = rng.randrange(2, 9)
        low = [rng.randrange(ell) for _ in range(degree)]
        poly = [ctx.elem(c) for c in low] + [ctx.one()]
        # galoistools lists coefficients highest degree first
        want = sympy_gf.gf_irreducible_p([1] + low[::-1], ell, ZZ)
        assert ctx.poly_is_irreducible(0, poly) == want, (ell, low)


# ----------------------------------------------------------------------
# Rabin test against the polynomial arithmetic it replaced: schoolbook
# products, remainders and gcds of polynomials in X over one level, as lists
# of that level's kernel values (the layout K), lowest degree first


def _ptrim(K, f):
    while len(f) > 1 and f[-1] == K.zero:
        f.pop()
    return f


def _psub(K, f, g):
    z = K.zero
    return [
        K.add(f[i] if i < len(f) else z, K.neg(g[i]) if i < len(g) else z)
        for i in range(max(len(f), len(g)))
    ]


def _pmul(K, f, g):
    z = K.zero
    out = [z] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == z:
            continue
        for k, y in enumerate(g):
            out[i + k] = K.add(out[i + k], K.mul(x, y))
    return out


def _pmod(K, f, g):
    g = _ptrim(K, list(g))
    lead_inv = K.inv(g[-1])
    rem = list(f)
    for k in range(len(rem) - len(g), -1, -1):
        c = K.mul(rem[k + len(g) - 1], lead_inv)
        if c == K.zero:
            continue
        for i, gc in enumerate(g):
            rem[k + i] = K.add(rem[k + i], K.neg(K.mul(c, gc)))
    return _ptrim(K, rem)


def _pgcd(K, f, g):
    a, b = _ptrim(K, list(f)), _ptrim(K, list(g))
    while not (len(b) == 1 and b[0] == K.zero):
        a, b = b, _pmod(K, a, b)
    return a


def _ppowmod(K, base, e: int, mod):
    result = [K.one]
    b = _pmod(K, list(base), mod)
    while e:
        if e & 1:
            result = _pmod(K, _pmul(K, result, b), mod)
        b = _pmod(K, _pmul(K, b, b), mod)
        e >>= 1
    return result


def reference_is_irreducible(K, poly) -> bool:
    """Rabin test: X^(q^d) = X mod f together with gcd(X^(q^(d/r)) - X, f)
    = 1 for every prime r dividing d."""
    f = _ptrim(K, list(poly))
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    q = K.size
    x = [K.zero, K.one]
    if _ptrim(K, _psub(K, _ppowmod(K, x, q**d, f), x)) != [K.zero]:
        return False
    for r in prime_factors(d):
        h = _ptrim(K, _psub(K, _ppowmod(K, x, q ** (d // r), f), x))
        if len(_pgcd(K, h, f)) != 1:
            return False
    return True


def random_elem(ctx, level, rng):
    return FieldElem(level, [rng.randrange(ctx.ell) for _ in range(ctx.abs_degree(level))])


@pytest.mark.parametrize("pair", PAIRS)
def test_rabin_matches_the_polynomial_reference(pair):
    ctx, _ = tower(pair)
    rng = random.Random(f"rabin-ref:{pair}")
    for level in range(ctx.levels):
        lay = ctx._layouts[level]
        for _ in range(120 if level == 0 else 30):
            degree = rng.randrange(1, 9 if level == 0 else 5)
            poly = [random_elem(ctx, level, rng) for _ in range(degree)] + [ctx.one()]
            want = reference_is_irreducible(lay, [lay.value(c) for c in poly])
            assert ctx.poly_is_irreducible(level, poly) == want, (level, poly)


def mobius(n):
    factors = prime_factors(n)
    if any(n % (r * r) == 0 for r in factors):
        return 0
    return (-1) ** len(factors)


def gauss_count(q, d):
    """The number of monic irreducible polynomials of degree d over F_q."""
    return sum(mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


def field_of_size(q):
    """A context and a level with q elements: F_2 and F_3 at level 0, F_4
    and F_16 at the zeta level of (2,3) and (2,5), and F_9 from the square
    root of the non-square 2 mod 3."""
    ell, p = {2: (2, 3), 3: (3, 2), 4: (2, 3), 9: (3, 2), 16: (2, 5)}[q]
    ctx = FieldCtx(ell, p)
    if q in (4, 16):
        level = ctx.ensure_zeta().level
    elif q == 9:
        level = ctx.nth_root(ctx.elem(2), 2).level
    else:
        level = 0
    assert ctx.level_size(level) == q
    return ctx, level


@pytest.mark.parametrize("q,top", [(2, 8), (3, 6), (4, 4), (9, 3), (16, 2)])
def test_rabin_counts_match_gauss_formula(q, top):
    # at q = 4, d = 4 the products of two irreducible quadratics also have
    # X^(q^4) = X; only the unit check of X^(q^2) - X rejects them
    ctx, level = field_of_size(q)
    elems = [
        FieldElem(level, flat)
        for flat in itertools.product(range(ctx.ell), repeat=ctx.abs_degree(level))
    ]
    for d in range(1, top + 1):
        count = sum(
            ctx.poly_is_irreducible(level, list(low) + [ctx.one()])
            for low in itertools.product(elems, repeat=d)
        )
        assert count == gauss_count(q, d), (q, d)


@pytest.mark.parametrize("pair,level", [((7, 3), 0), ((2, 3), 1), ((11, 5), 1)])
def test_inverse_of_a_non_unit_raises(pair, level):
    # R = K[X]/((X - a)(X - b)) for a != b in K: X - a is a zero divisor,
    # X - c for c outside {a, b} is a unit
    ctx, _ = tower(pair)
    K = ctx._layouts[level]
    rng = random.Random(f"non-unit:{pair}")
    a, b, c = (K.value(random_elem(ctx, level, rng)) for _ in range(3))
    while len({a, b, c}) < 3:
        b, c = (K.value(random_elem(ctx, level, rng)) for _ in range(2))
    R = _next_layout(K, [K.mul(a, b), K.neg(K.add(a, b)), K.one])
    x = R.lift((0,) * K.dims[-1] + (1,))
    with pytest.raises(ZeroDivisionError):
        R.inv(R.add(x, R.neg(R.lift(K.coords(a)))))
    unit = R.add(x, R.neg(R.lift(K.coords(c))))
    assert R.mul(unit, R.inv(unit)) == R.one
