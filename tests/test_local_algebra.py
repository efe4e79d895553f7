"""Local structure, explicit isomorphisms, Kummer pairing, char polys,
and the local-algebra element type LocalPart."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from adelic_kummer import adeles, laurent as ls, local_algebra as la
from adelic_kummer.adeles import Idele, Point
from adelic_kummer.coeff_field import FieldCtx
from adelic_kummer.errors import IncompatibleStructure, PrecisionExhausted, UnramifiedPoint

import oracles
from oracles import NonInvertible


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def test_local_structure_totally_ramified(ctx):
    t = ls.from_text(ctx, "z^1*(1 + 2*z)", 8)
    st = oracles.local_structure(t, 3, ctx)
    assert (st.m, st.e, st.kind) == (1, 3, oracles.TOTALLY_RAMIFIED)
    assert ls.matches(st.tau, t)  # tau = t^(1/1)


def test_local_structure_unramified_split(ctx):
    t = ls.from_text(ctx, "(1 + 1*z)", 8)
    st = oracles.local_structure(t, 3, ctx)
    assert (st.m, st.e, st.kind) == (3, 1, oracles.UNRAMIFIED)
    assert ls.matches(ls.power(st.tau, 3), t)
    assert ctx.log_zeta(st.xi) in (1, 2)  # primitive cube root of unity
    # evaluation map is a ring homomorphism onto the three copies
    one = ls.one(ctx, 8)
    z = oracles.uniformizer(ctx, 8)
    pol_t = [ls.zero(ctx), one, ls.zero(ctx)]  # the class of T
    pol_z = [z, ls.zero(ctx), ls.zero(ctx)]
    coords_t = st.evaluate(pol_t)
    assert ls.matches(coords_t[0], st.tau)
    assert ls.matches(coords_t[1], ls.scale(st.tau, st.xi))
    prod = st.evaluate(la._pol_mul(ctx, pol_t, pol_z)[:3])
    for i in range(3):
        assert ls.matches(prod[i], ls.mul(coords_t[i], st.evaluate(pol_z)[i]))


def test_split_coordinates_permute_under_other_choices(ctx):
    # replacing tau by xi^k tau, or xi by another primitive root, permutes
    # the evaluation coordinates; no finer guarantee is made
    t = ls.from_text(ctx, "(2 + 1*z)", 8)
    st = oracles.local_structure(t, 3, ctx)
    pol = [oracles.uniformizer(ctx, 8), ls.one(ctx, 8), ls.from_text(ctx, "(3)", 8)]
    base = st.evaluate(pol)
    for k in (1, 2):
        other = oracles.LocalStructure(
            3, 3, 1, oracles.UNRAMIFIED, ls.scale(st.tau, ctx.pow(st.xi, k)), st.xi, t
        )
        moved = other.evaluate(pol)
        perm_found = any(
            all(ls.matches(moved[i], base[(i + shift) % 3]) for i in range(3))
            for shift in range(3)
        )
        assert perm_found
    squared = oracles.LocalStructure(
        3, 3, 1, oracles.UNRAMIFIED, st.tau, ctx.pow(st.xi, 2), t
    )
    moved = squared.evaluate(pol)
    assert sorted(ls.to_text(c) for c in moved) == sorted(ls.to_text(c) for c in base)


def test_local_structure_mixed_rank_6(ctx):
    t = ls.from_text(ctx, "z^2*(1)", 8)
    st = oracles.local_structure(t, 6, ctx)
    assert (st.m, st.e, st.kind) == (2, 3, oracles.MIXED)
    assert ls.matches(ls.power(st.tau, 2), t)
    assert st.xi == ctx.elem(6)  # -1, the primitive square root of unity


def test_local_isom_hensel_case(ctx):
    t1 = ls.from_text(ctx, "z^3*(1 + 1*z)", 8)
    t2 = ls.from_text(ctx, "z^3*(1)", 8)
    phi = la.local_isom(t1, t2, 3, ctx)
    assert phi.c == 1 and phi.integral
    # tau^3 = 1 + z, the frozen Hensel root
    assert [c.coeffs[0] for c in phi.factor.coeffs[:3]] == [1, 5, 3]
    assert ls.matches(phi.image_of_t(t2, 3), t1)


def test_local_isom_identity_and_incompatible(ctx):
    t = ls.from_text(ctx, "z^2*(3)", 8)
    phi = la.local_isom(t, t, 3, ctx)
    assert phi.c == 1 and ls.matches(phi.factor, ls.one(ctx, 8))
    with pytest.raises(IncompatibleStructure):
        la.local_isom(oracles.uniformizer(ctx, 8), ls.one(ctx, 8), 3, ctx)


def test_local_isom_negative_equal_valuations(ctx):
    t1 = ls.from_text(ctx, "z^-3*(2 + 1*z)", 8)
    t2 = ls.from_text(ctx, "z^-3*(4)", 8)
    phi = la.local_isom(t1, t2, 3, ctx)
    assert phi.integral is False or phi.integral is True  # defined either way
    assert ls.matches(phi.image_of_t(t2, 3), t1)


def test_local_isom_structural_case(ctx):
    # equal index e = 3 but inequivalent valuations: T -> factor * T^2
    t1 = ls.from_text(ctx, "z^1*(1)", 8)
    t2 = ls.from_text(ctx, "z^2*(1 + 3*z)", 8)
    phi = la.local_isom(t1, t2, 3, ctx)
    assert phi.c == 2 and not phi.integral
    assert ls.matches(phi.image_of_t(t2, 3), t1)


def test_local_isom_random_pairs(ctx):
    rng = random.Random(77)
    for p in (2, 3, 5):
        cx = FieldCtx(7, p) if p != 5 else FieldCtx(11, 5)
        for _ in range(25):
            v1, v2 = rng.randrange(-4, 5), rng.randrange(-4, 5)
            t1 = ls.series(cx, v1, [rng.randrange(1, cx.ell)] + [rng.randrange(cx.ell) for _ in range(7)])
            t2 = ls.series(cx, v2, [rng.randrange(1, cx.ell)] + [rng.randrange(cx.ell) for _ in range(7)])
            e1 = 1 if v1 % p == 0 else p
            e2 = 1 if v2 % p == 0 else p
            if e1 != e2:
                with pytest.raises(IncompatibleStructure):
                    la.local_isom(t1, t2, p, cx)
            else:
                phi = la.local_isom(t1, t2, p, cx)
                assert ls.matches(phi.image_of_t(t2, p), ls.truncate(t1, phi.factor.prec))


def test_kummer_pair_examples(ctx):
    zeta = ctx.ensure_zeta()
    assert la.kummer_pair(1, 1, 1, ctx) == zeta
    # pairing against t itself gives zeta^a
    for a in range(3):
        assert ctx.eq(la.kummer_pair(a, 4, 4, ctx), ctx.pow(zeta, a))
    assert la.kummer_pair(2, 0, 1, ctx) == ctx.one()
    assert la.kummer_pair(2, 3, 1, ctx) == ctx.one()  # p-th power class
    with pytest.raises(UnramifiedPoint):
        la.kummer_pair(1, 1, 3, ctx)


def test_kummer_pair_bilinear_and_perfect(ctx):
    for a1 in range(3):
        for a2 in range(3):
            for lv in range(3):
                lhs = la.kummer_pair(a1 + a2, lv, 1, ctx)
                rhs = ctx.mul(la.kummer_pair(a1, lv, 1, ctx), la.kummer_pair(a2, lv, 1, ctx))
                assert ctx.eq(lhs, rhs)
    for a in (1, 2):
        images = {ctx.log_zeta(la.kummer_pair(a, lv, 2, ctx)) for lv in range(3)}
        assert images == {0, 1, 2}


def test_oracle_pair_trivial_cases(ctx):
    t = ls.from_text(ctx, "z^1*(1 + 1*z)", 12)
    lam = ls.one(ctx, 12)
    assert la.oracle_pair(1, lam, t, ctx) == ctx.one()
    lam2 = ls.from_text(ctx, "z^2*(5)", 12)
    assert la.oracle_pair(0, lam2, t, ctx) == ctx.one()


@pytest.mark.parametrize("ell,p", [(7, 2), (7, 3), (11, 5)])
def test_oracle_pair_matches_closed_form(ell, p):
    cx = FieldCtx(ell, p)
    rng = random.Random(500 + p)
    for _ in range(100):
        tv = rng.randrange(-6, 7)
        if tv % p == 0:
            tv += 1
        lv = rng.randrange(-6, 7)
        a = rng.randrange(p)
        t = ls.series(cx, tv, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(9)])
        lam = ls.series(cx, lv, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(9)])
        assert cx.eq(la.oracle_pair(a, lam, t, cx), la.kummer_pair(a, lv, tv, cx))


def test_char_poly_of_class_of_t(ctx):
    # alpha = T: the companion determinant gives T^p - t
    t = ls.from_text(ctx, "z^1*(1 + 1*z)", 8)
    alpha = la.LocalPart.monomial(1, ls.one(ctx, 8), 3)
    pol = oracles.char_poly_primitive(alpha, t, 3, ctx)
    assert ls.matches(pol[0], ls.neg(t))
    assert pol[1].is_zero and pol[2].is_zero
    assert ls.matches(pol[3], ls.one(ctx, 8))


def test_char_poly_scaled_t(ctx):
    t = ls.from_text(ctx, "z^1*(1)", 8)
    c = ctx.elem(4)
    alpha = la.LocalPart.monomial(1, ls.constant(ctx, c, 8), 3)
    pol = oracles.char_poly_primitive(alpha, t, 3, ctx)
    expected = ls.neg(ls.scale(t, ctx.pow(c, 3)))
    assert ls.matches(pol[0], expected)
    assert pol[1].is_zero and pol[2].is_zero


def test_char_poly_split_eigenvector(ctx):
    zeta = ctx.ensure_zeta()
    u = ls.from_text(ctx, "(2 + 1*z)", 8)
    coords = [ls.scale(u, ctx.pow(zeta, k)) for k in range(3)]
    alpha = oracles.SplitPart(coords)
    t = ls.one(ctx, 8)
    pol = oracles.char_poly_primitive(alpha, t, 3, ctx)
    alpha_p = oracles.eigenvector_pth_power(alpha, t, 3, ctx)
    assert ls.matches(pol[0], ls.neg(alpha_p))
    assert pol[1].is_zero and pol[2].is_zero
    assert ls.matches(pol[3], ls.one(ctx, 8))


def test_char_poly_random_ram_eigenvectors(ctx):
    rng = random.Random(12)
    for _ in range(20):
        tv = rng.choice([1, 2, 4, 5])
        t = ls.series(ctx, tv, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(7)])
        b = rng.randrange(1, 3)
        unit = ls.series(ctx, 0, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(7)])
        alpha = la.LocalPart.monomial(b, unit, 3)
        pol = oracles.char_poly_primitive(alpha, t, 3, ctx)
        alpha_p = oracles.eigenvector_pth_power(alpha, t, 3, ctx)
        assert ls.matches(pol[0], ls.neg(alpha_p))
        assert pol[1].is_zero and pol[2].is_zero


def test_char_poly_noninvertible(ctx):
    t = oracles.uniformizer(ctx, 8)
    with pytest.raises(NonInvertible):
        oracles.char_poly_primitive(la.LocalPart.monomial(1, ls.zero(ctx), 3), t, 3, ctx)
    with pytest.raises(NonInvertible):
        oracles.char_poly_primitive(
            oracles.SplitPart([ls.one(ctx, 8), ls.zero(ctx), ls.one(ctx, 8)]),
            ls.one(ctx, 8), 3, ctx,
        )


def test_automorphism_group_laws(ctx):
    p = 3
    r1 = la.LocalAutomorphism.ram(1, p)
    r2 = la.LocalAutomorphism.ram(2, p)
    assert r1.compose(r2, p) == la.LocalAutomorphism.ram(0, p)
    assert r1.order(p) == 3 and la.LocalAutomorphism.ram(0, p).order(p) == 1
    assert r1.power(3, p) == la.LocalAutomorphism.ram(0, p)
    s = la.LocalAutomorphism.unram((2, 3, 1))
    assert s.order(p) == 3
    assert s.power(3, p) == la.LocalAutomorphism.unram((1, 2, 3))
    assert s.compose(oracles.local_automorphism_inverse(s, p), p) == la.LocalAutomorphism.unram((1, 2, 3))
    tr = la.LocalAutomorphism.unram((2, 1, 3))
    assert tr.order(p) == 2


def test_unram_action_composition_consistency():
    rng = random.Random(3)
    for p in (2, 3, 5):
        coords = tuple(f"v{j}" for j in range(p))
        for _ in range(30):
            s1 = tuple(rng.sample(range(1, p + 1), p))
            s2 = tuple(rng.sample(range(1, p + 1), p))
            g = la.LocalAutomorphism.unram(s1)
            h = la.LocalAutomorphism.unram(s2)
            gh = g.compose(h, p)
            part = oracles.SplitPart(coords)
            assert part.apply(gh).data == part.apply(h).apply(g).data


def test_ram_action_on_tpoly(ctx):
    zeta = ctx.ensure_zeta()
    g = la.LocalAutomorphism.ram(2, 3)
    one = ls.one(ctx, 4)
    coeffs = (one, one, one)
    out = la.LocalPart(coeffs).apply(g, ctx).data
    assert ls.matches(out[0], one)
    assert ls.matches(out[1], ls.scale(one, ctx.pow(zeta, 2)))
    assert ls.matches(out[2], ls.scale(one, ctx.pow(zeta, 4)))


def test_local_automorphism_json(ctx):
    r = la.LocalAutomorphism.ram(1, 3)
    assert r.to_json() == {"kind": "ram", "a": 1}
    s = la.LocalAutomorphism.unram((2, 3, 1))
    assert s.to_json() == {"kind": "unram", "sigma": [2, 3, 1]}
    assert la.LocalAutomorphism.from_json(s.to_json(), 3) == s


# ----------------------------------------------------------------------
# LocalPart against the per-kind helpers it replaced


def ref_ram_mul(data1, data2, p, t_x):
    """Product of T-polynomials over T^p = t_x, one term at a time, each
    term of degree >= p multiplied by t_x on its own."""
    ctx = t_x.ctx
    out = [ls.zero(ctx)] * p
    for i, a in enumerate(data1):
        if a.is_zero:
            continue
        for j, b in enumerate(data2):
            if b.is_zero:
                continue
            c = ls.mul(a, b)
            k = i + j
            if k >= p:
                c = ls.mul(c, t_x)
                k -= p
            out[k] = ls.add(out[k], c)
    return tuple(out)


def ref_apply_tpoly(aut, coeffs, ctx):
    """T -> zeta^a T on T-polynomial coefficients."""
    zeta = ctx.ensure_zeta()
    out = []
    for j, c in enumerate(coeffs):
        if c.is_zero:
            out.append(c)
        else:
            out.append(ls.scale(c, ctx.pow(zeta, aut.a * j)))
    return tuple(out)


def ref_apply_coords(aut, coords):
    """(g v)_j = v_{sigma(j)} on split coordinates."""
    return tuple(coords[aut.sigma[j] - 1] for j in range(len(aut.sigma)))


ELL_FOR = {2: 7, 3: 7, 5: 11}
PART_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def same(s, t):
    return (s.val, s.prec, s.coeffs) == (t.val, t.prec, t.coeffs)


def agree(data1, data2):
    return len(data1) == len(data2) and all(map(ls.matches, data1, data2))


def exact(fn):
    """fn(), or None when a sum inside it cancels a whole known window.

    Such a sum is exact zero for identical windows and PrecisionExhausted
    otherwise, so two orders of summation that meet the cancellation in
    different sums may both keep the contract and still disagree.
    """
    cancelled = []

    def add(s, t):
        out = real_add(s, t)
        if out.is_zero and not (s.is_zero or t.is_zero):
            cancelled.append((s, t))
        return out

    real_add = ls.add
    try:
        with mock.patch.object(ls, "add", add):
            out = fn()
    except PrecisionExhausted:
        return None
    return None if cancelled else out


@st.composite
def series(draw, ctx, val=None, zero=True):
    if zero and draw(st.integers(0, 4)) == 0:
        return ls.zero(ctx)
    prec = draw(st.integers(1, 6))
    coeffs = [draw(st.integers(1, ctx.ell - 1))]
    coeffs += draw(st.lists(st.integers(0, ctx.ell - 1), min_size=prec - 1, max_size=prec - 1))
    return ls.series(ctx, draw(st.integers(-2, 2)) if val is None else val, coeffs)


@st.composite
def parts(draw, ctx, p, form=la.LocalPart):
    return form([draw(series(ctx)) for _ in range(p)])


@st.composite
def parameters(draw, ctx, p, ramified=True):
    """A local parameter t_x whose valuation p divides exactly when not ramified."""
    v = draw(st.integers(-2 * p, 2 * p).filter(lambda v: (v % p != 0) == ramified))
    return draw(series(ctx, val=v, zero=False))


@pytest.mark.parametrize("p", [2, 3, 5])
@PART_SETTINGS
@given(data=st.data())
def test_local_part_mul_matches_reference(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    t_x = data.draw(parameters(ctx, p, ramified=data.draw(st.booleans())))
    f, g = data.draw(parts(ctx, p)), data.draw(parts(ctx, p))
    got = exact(lambda: f.mul(g, t_x))
    want = exact(lambda: ref_ram_mul(f.data, g.data, p, t_x))
    assume(got is not None and want is not None)
    assert type(got) is la.LocalPart and agree(got.data, want)
    split_f, split_g = oracles.SplitPart(f.data), oracles.SplitPart(g.data)
    prod = split_f.mul(split_g, t_x)
    assert type(prod) is oracles.SplitPart
    assert all(map(same, prod.data, map(ls.mul, f.data, g.data)))


@pytest.mark.parametrize("p", [2, 3, 5])
@PART_SETTINGS
@given(data=st.data())
def test_local_part_mul_commutative_and_associative(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    form = data.draw(st.sampled_from([la.LocalPart, oracles.SplitPart]))
    t_x = data.draw(parameters(ctx, p, ramified=data.draw(st.booleans())))
    f, g, h = (data.draw(parts(ctx, p, form)) for _ in range(3))
    fg, gf = exact(lambda: f.mul(g, t_x)), exact(lambda: g.mul(f, t_x))
    left = exact(lambda: fg.mul(h, t_x)) if fg is not None else None
    right = exact(lambda: f.mul(g.mul(h, t_x), t_x))
    assume(None not in (fg, gf, left, right))
    assert fg.matches(gf)
    assert left.matches(right)


@pytest.mark.parametrize("p", [2, 3, 5])
@PART_SETTINGS
@given(data=st.data())
def test_local_part_apply_matches_reference(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    f = data.draw(parts(ctx, p))
    ram = la.LocalAutomorphism.ram(data.draw(st.integers(-p, 2 * p)), p)
    moved = f.apply(ram, ctx)
    assert type(moved) is la.LocalPart
    assert all(map(same, moved.data, ref_apply_tpoly(ram, f.data, ctx)))
    sigma = data.draw(st.permutations(range(1, p + 1)))
    unram = la.LocalAutomorphism.unram(sigma)
    split = oracles.SplitPart(f.data)
    moved = split.apply(unram)
    assert type(moved) is oracles.SplitPart
    assert moved.data == ref_apply_coords(unram, split.data)


@pytest.mark.parametrize("p", [2, 3, 5])
@PART_SETTINGS
@given(data=st.data())
def test_evaluate_carries_ram_product_to_split_product(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    t_x = data.draw(parameters(ctx, p, ramified=False))
    structure = oracles.local_structure(t_x, p, ctx)
    f, g = data.draw(parts(ctx, p)), data.draw(parts(ctx, p))
    prod = exact(lambda: f.mul(g, t_x))
    assume(prod is not None)
    lhs = exact(lambda: structure.evaluate(prod.data))
    rhs = exact(
        lambda: tuple(map(ls.mul, structure.evaluate(f.data), structure.evaluate(g.data)))
    )
    assume(lhs is not None and rhs is not None)
    assert agree(lhs, rhs)


@st.composite
def ideles(draw, ctx, p, labels="abcd"):
    points = draw(st.lists(st.sampled_from(labels), unique=True, max_size=len(labels)))
    return Idele(
        {Point(lbl): draw(series(ctx, val=draw(st.integers(-2 * p, 2 * p)), zero=False)) for lbl in points},
        draw(series(ctx, val=0, zero=False)),
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@PART_SETTINGS
@given(data=st.data())
def test_embed_is_multiplicative(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    t, u, v = (data.draw(ideles(ctx, p)) for _ in range(3))
    lhs = oracles.algebra_mul(oracles.AlgebraElement.embed(u, t, p), oracles.AlgebraElement.embed(v, t, p), t)
    assert lhs.matches(oracles.AlgebraElement.embed(adeles.idele_mul(u, v), t, p))
    for pt in adeles.ram_locus(t, p):
        assert type(lhs.component(pt)) is la.LocalPart


def test_monomial_and_one(ctx):
    c = ls.from_text(ctx, "(2 + 1*z)", 6)
    part = la.LocalPart.monomial(2, c, 3)
    assert type(part) is la.LocalPart and same(part.data[2], c)
    assert part.data[0].is_zero and part.data[1].is_zero
    t = Idele({Point("x"): oracles.uniformizer(ctx, 6)}, ls.one(ctx, 6))
    one = oracles.algebra_one(3, t, prec=6)
    assert one.component(Point("x")).matches(la.LocalPart.monomial(0, ls.one(ctx, 6), 3))
    assert one.default.matches(oracles.SplitPart([ls.one(ctx, 6)] * 3))
    # T^2 * T = T^3 = t_x
    squared = la.LocalPart.monomial(2, ls.one(ctx, 6), 3)
    cube = squared.mul(la.LocalPart.monomial(1, ls.one(ctx, 6), 3), t.component(Point("x")))
    assert cube.matches(la.LocalPart.monomial(0, oracles.uniformizer(ctx, 6), 3))


def test_char_poly_rejects_non_monomial_ram_part(ctx):
    t = oracles.uniformizer(ctx, 8)
    one = ls.one(ctx, 8)
    with pytest.raises(ValueError):
        oracles.char_poly_primitive(la.LocalPart([one, one, ls.zero(ctx)]), t, 3, ctx)
