"""Truncated Laurent arithmetic: valuations, inversion, Hensel roots."""

import random

import pytest

from adelic_kummer import laurent as ls
from adelic_kummer.coeff_field import FieldCtx
from adelic_kummer.errors import (
    NotAUnit,
    PrecisionExhausted,
    ZeroInverse,
    ZeroValuation,
)

import oracles


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def test_valuation_examples(ctx):
    s = ls.series(ctx, -2, [3, 1], prec=8)
    assert ls.valuation(s) == -2
    a = ls.series(ctx, 1, [2, 5], prec=8)
    b = ls.series(ctx, -4, [1, 1, 3], prec=8)
    assert ls.valuation(ls.mul(a, b)) == -3
    assert ls.valuation(ls.one(ctx)) == 0
    with pytest.raises(ZeroValuation):
        ls.valuation(ls.zero(ctx))


def test_invert_one_plus_z_frozen(ctx):
    # geometric series oracle: 1/(1+z) = 1 - z + z^2 - z^3 over F_7
    s = ls.series(ctx, 0, [1, 1], prec=4)
    inv = ls.invert(s)
    assert inv.val == 0
    assert [c.coeffs[0] for c in inv.coeffs] == [1, 6, 1, 6]
    assert ls.matches(ls.mul(inv, s), ls.one(ctx, prec=4))


def test_invert_random_units(ctx):
    rng = random.Random(3)
    for _ in range(50):
        v = rng.randrange(-3, 4)
        coeffs = [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(9)]
        s = ls.series(ctx, v, coeffs)
        prod = ls.mul(s, ls.invert(s))
        assert ls.matches(prod, ls.one(ctx, prec=prod.prec))
    with pytest.raises(ZeroInverse):
        ls.invert(ls.zero(ctx))


def test_add_exact_negatives_gives_exact_zero(ctx):
    s = ls.series(ctx, -1, [2, 0, 3], prec=5)
    assert ls.add(s, ls.neg(s)).is_zero
    assert ls.sub(s, s).is_zero


def test_add_full_cancellation_with_mismatched_windows(ctx):
    s = ls.series(ctx, 0, [1, 1], prec=4)
    t = ls.series(ctx, 0, [6, 6, 0, 0, 1], prec=5)
    with pytest.raises(PrecisionExhausted):
        ls.add(s, t)


def test_add_renormalizes_partial_cancellation(ctx):
    s = ls.series(ctx, 0, [1, 2, 3], prec=3)
    t = ls.series(ctx, 0, [6, 1, 0], prec=3)
    r = ls.add(s, t)
    assert r.val == 1 and r.prec == 2
    assert [c.coeffs[0] for c in r.coeffs] == [3, 3]


def test_mul_z_by_z_inverse(ctx):
    z = oracles.uniformizer(ctx, prec=6)
    zi = ls.invert(z)
    assert ls.matches(ls.mul(z, zi), ls.one(ctx, prec=6))
    assert ls.valuation(zi) == -1


def test_valuation_ultrametric(ctx):
    rng = random.Random(11)
    for _ in range(200):
        va, vb = rng.randrange(-4, 5), rng.randrange(-4, 5)
        a = ls.series(ctx, va, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(5)])
        b = ls.series(ctx, vb, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(5)])
        assert ls.valuation(ls.mul(a, b)) == va + vb
        try:
            vsum = ls.valuation(ls.add(a, b))
        except (PrecisionExhausted, ZeroValuation):
            assert va == vb
            continue
        assert vsum >= min(va, vb)
        if va != vb:
            assert vsum == min(va, vb)


def test_hensel_cube_root_frozen(ctx):
    # undetermined coefficients: (1 + a z + b z^2)^3 = 1 + z over F_7
    # 3a = 1 -> a = 5; 3b + 3a^2 = 0 -> b = 3
    u = ls.series(ctx, 0, [1, 1], prec=3)
    r = ls.hensel_pth_root(u)
    assert [c.coeffs[0] for c in r.coeffs] == [1, 5, 3]
    assert ls.matches(ls.power(r, 3), u)


def test_hensel_identity(ctx):
    u = ls.one(ctx, prec=8)
    assert ls.matches(ls.hensel_pth_root(u), u)


def test_hensel_leading_coefficient_extends_tower(ctx):
    u = ls.series(ctx, 0, [2, 1], prec=6)
    r = ls.hensel_pth_root(u)
    assert ctx.levels == 2  # 2 is not a cube in F_7
    assert r.coeffs[0].level == 1
    assert ls.matches(ls.power(r, 3), u)


def test_hensel_rejects_nonunit(ctx):
    with pytest.raises(NotAUnit):
        ls.hensel_pth_root(oracles.uniformizer(ctx))
    with pytest.raises(NotAUnit):
        ls.hensel_pth_root(ls.zero(ctx))


@pytest.mark.parametrize("ell,p", [(7, 2), (7, 3), (11, 5)])
def test_hensel_random_units_exact(ell, p):
    ctx = FieldCtx(ell, p)
    rng = random.Random(100 * ell + p)
    for _ in range(200):
        coeffs = [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(31)]
        u = ls.series(ctx, 0, coeffs)
        r = ls.hensel_pth_root(u, p)
        assert r.val == 0 and r.prec == 32
        assert ls.matches(ls.power(r, p), u)


def test_pth_power_surrogate_iff_val_divisible(ctx):
    rng = random.Random(5)
    for _ in range(60):
        v = rng.randrange(-6, 7)
        s = ls.series(ctx, v, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(7)])
        if v % 3 == 0:
            r = ls.nth_root_series(s, 3)
            assert ls.matches(ls.power(r, 3), s)
        else:
            with pytest.raises(NotAUnit):
                ls.nth_root_series(s, 3)


def test_nth_root_composite(ctx):
    u = ls.series(ctx, 0, [1, 3, 2, 5], prec=8)
    r = oracles.nth_root_series(u, 6)
    assert ls.matches(ls.power(r, 6), u)


def test_scale_and_shift(ctx):
    s = ls.series(ctx, 2, [1, 1], prec=4)
    assert ls.valuation(ls.shift(s, -3)) == -1
    t = ls.scale(s, ctx.elem(3))
    assert [c.coeffs[0] for c in t.coeffs][:2] == [3, 3]
    assert ls.scale(s, ctx.zero()).is_zero


def test_power_negative_and_zero(ctx):
    z = oracles.uniformizer(ctx, prec=5)
    assert ls.valuation(ls.power(z, -2)) == -2
    assert ls.matches(ls.power(z, 0), ls.one(ctx, prec=5))


def test_json_roundtrip(ctx):
    s = ls.series(ctx, -2, [3, 1], prec=2)
    data = ls.to_json(s)
    assert data == {"val": -2, "coeffs": ["L0:[3]", "L0:[1]"], "prec": 2}
    assert ls.matches(ls.from_json(ctx, data), s)
    assert ls.from_json(ctx, ls.to_json(ls.zero(ctx))).is_zero


def test_text_roundtrip(ctx):
    s = ls.series(ctx, -2, [3, 1], prec=2)
    assert ls.to_text(s) == "z^-2*(3 + 1*z)"
    parsed = ls.from_text(ctx, "z^-2*(3 + 1*z)", prec=2)
    assert ls.matches(parsed, s)
    assert ls.matches(ls.from_text(ctx, "1", prec=4), ls.one(ctx, prec=4))
    z = ls.from_text(ctx, "z", prec=4)
    assert ls.valuation(z) == 1
    assert ls.from_text(ctx, "0").is_zero
    neg = ls.from_text(ctx, "(1 - 2*z)", prec=3)
    assert [c.coeffs[0] for c in neg.coeffs] == [1, 5, 0]


def test_constructor_normalizes_leading_zeros(ctx):
    s = ls.series(ctx, 0, [0, 0, 4, 1], prec=4)
    assert s.val == 2 and s.prec == 2
    assert ls.series(ctx, 3, [0, 0]).is_zero
