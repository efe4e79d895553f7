"""Divisors, germ expansion, and the superelliptic classifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic_kummer import adeles, global_galois as gg, harrison as hr, laurent as ls, p1_ingest as p1
from adelic_kummer.adeles import INFINITY, Point
from adelic_kummer.coeff_field import FieldCtx, FieldElem
from adelic_kummer.errors import NotAdmissible, PthPower

import oracles


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def ratfun(ctx, factors, constant=1):
    return p1.RationalFunction(
        ctx, ctx.elem(constant), {ctx.elem(r): e for r, e in factors.items()}
    )


def test_divisor_examples(ctx):
    f = ratfun(ctx, {0: 1, 1: 2})
    div = p1.divisor(f)
    assert div == {Point("0"): 1, Point("1"): 2, INFINITY: -3}
    assert sum(div.values()) == 0
    assert p1.divisor(ratfun(ctx, {}, constant=5)) == {}
    g = ratfun(ctx, {2: 1, 3: 1, 4: 1})
    assert p1.divisor(g) == {
        Point("2"): 1,
        Point("3"): 1,
        Point("4"): 1,
        INFINITY: -3,
    }


def test_germ_uniformizer_identities(ctx):
    f = ratfun(ctx, {0: 1})  # f = x
    at_zero = p1.germ(f, ctx.elem(0), prec=6)
    assert ls.matches(at_zero, oracles.uniformizer(ctx, 6))
    at_inf = p1.germ(f, INFINITY, prec=6)
    assert ls.valuation(at_inf) == -1
    assert ls.matches(at_inf, ls.shift(ls.one(ctx, 6), -1))


def test_germ_taylor_expansion(ctx):
    # f = x(x-1)^2 at x = 1: z = x-1, f = (1+z) z^2
    f = ratfun(ctx, {0: 1, 1: 2})
    g = p1.germ(f, ctx.elem(1), prec=5)
    assert ls.valuation(g) == 2
    assert ls.matches(g, ls.from_text(ctx, "z^2*(1 + 1*z)", 5))
    # at a generic point x = 3: f(3) = 3*4 = 12 = 5 mod 7
    unit = p1.germ(f, ctx.elem(3), prec=5)
    assert ls.valuation(unit) == 0
    assert unit.coeffs[0] == ctx.elem(5)


def test_germ_idele_valuations_match_divisor(ctx):
    rng = random.Random(6)
    for _ in range(20):
        roots = rng.sample(range(7), rng.randrange(1, 4))
        f = ratfun(
            ctx,
            {r: rng.choice([-3, -2, -1, 1, 2, 3]) for r in roots},
            constant=rng.randrange(1, 7),
        )
        t = p1.germ_idele(f, prec=6)
        div = p1.divisor(f)
        for pt, v in div.items():
            assert ls.valuation(t.component(pt)) == v


def test_germ_multiplicativity(ctx):
    rng = random.Random(13)
    for _ in range(10):
        r1 = rng.sample(range(7), 2)
        r2 = rng.sample(range(7), 2)
        f = ratfun(ctx, {r: rng.choice([1, 2]) for r in r1})
        g = ratfun(ctx, {r: rng.choice([1, 2]) for r in r2})
        prod_factors = dict(f.factors)
        for root, e in g.factors.items():
            prod_factors[root] = prod_factors.get(root, 0) + e
        prod_factors = {r: e for r, e in prod_factors.items() if e != 0}
        fg = p1.RationalFunction(ctx, ctx.mul(f.constant, g.constant), prod_factors)
        v_f = adeles.valuation_vector(p1.germ_idele(f, 6), 3)
        v_g = adeles.valuation_vector(p1.germ_idele(g, 6), 3)
        v_fg = adeles.valuation_vector(p1.germ_idele(fg, 6), 3)
        assert v_fg == v_f.add(v_g)


@pytest.mark.parametrize("ell,p", [(7, 3), (11, 5)])
def test_the_germ_route_reads_only_the_first_term(ell, p):
    # the cross-check of classify_superelliptic builds its germs at one term
    ctx = FieldCtx(ell, p)
    rng = random.Random(ell * p)
    for _ in range(20):
        roots = rng.sample(range(ell), rng.randrange(1, 5))
        exps = {ctx.elem(r): rng.choice([e for e in range(-2 * p, 2 * p + 1) if e]) for r in roots}
        f = p1.RationalFunction(ctx, ctx.elem(rng.randrange(1, ell)), exps)
        one_term, eight_terms = (
            hr.classify(t, gg.standard_kummer_subgroup(t, p), gg.Character(1, p))
            for t in (p1.germ_idele(f, 1), p1.germ_idele(f, 8))
        )
        assert one_term == eight_terms == adeles.ValuationVector(p, p1.divisor(f))


def test_superelliptic_main_example(ctx):
    f = ratfun(ctx, {0: 1, 1: 2})
    out = p1.classify_superelliptic(f, 3)
    assert out.vec.to_json() == {"0": 1, "1": 2}
    assert [pt.label for pt in out.ram] == ["0", "1"]
    assert INFINITY not in out.vec.support
    assert out.admissible and not out.warnings


def test_superelliptic_pth_power(ctx):
    f = ratfun(ctx, {0: 3})
    with pytest.raises(PthPower):
        p1.classify_superelliptic(f, 3)


def test_superelliptic_conjugate_pair(ctx):
    f = ratfun(ctx, {2: 1, 3: 1, 4: 1})
    out = p1.classify_superelliptic(f, 3)
    assert out.vec.to_json() == {"2": 1, "3": 1, "4": 1}
    f2 = ratfun(ctx, {2: 2, 3: 2, 4: 2})
    with pytest.warns(UserWarning):  # gcd 2, prime to 3: f2 = f^2, the same cover
        out2 = p1.classify_superelliptic(f2, 3)
    assert out.cls == out2.cls  # b = 2 orbit
    assert out.vec != out2.vec


def test_superelliptic_inadmissible_cases(ctx):
    with pytest.raises(NotAdmissible):
        p1.classify_superelliptic(ratfun(ctx, {0: 1}), 3)  # sum = 1
    with pytest.raises(NotAdmissible):
        p1.classify_superelliptic(ratfun(ctx, {0: 4, 1: 2}), 3)  # 4 outside (0,3)


def test_superelliptic_relaxed_sum_puts_infinity_in_ram(ctx):
    f = ratfun(ctx, {0: 1, 1: 1})  # sum = 2, not divisible by 3
    out = p1.classify_superelliptic(f, 3, strict=False)
    assert not out.admissible
    assert out.vec.support[INFINITY] == (-2) % 3
    assert INFINITY in out.ram


def test_superelliptic_gcd_warning():
    ctx5 = FieldCtx(11, 5)
    f = ratfun(ctx5, {0: 2, 1: 2, 2: 1})
    # gcd(2,2,1) = 1: no warning
    out = p1.classify_superelliptic(f, 5)
    assert not out.warnings
    g = ratfun(ctx5, {0: 2, 1: 4, 2: 4})
    with pytest.warns(UserWarning):
        out2 = p1.classify_superelliptic(g, 5)
    assert out2.warnings
    with pytest.raises(ValueError):
        p1.classify_superelliptic(f, 3)  # rank mismatch with the context


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_two_pipelines_agree_randomized(ctx):
    rng = random.Random(8)
    for _ in range(15):
        roots = rng.sample(range(7), 3)
        exps = [rng.randrange(1, 3) for _ in roots]
        f = ratfun(ctx, dict(zip(roots, exps)))
        out = p1.classify_superelliptic(f, 3, strict=False)
        expected = {
            p1.point_for_root(ctx, ctx.elem(r)).label: e % 3
            for r, e in zip(roots, exps)
        }
        if sum(exps) % 3:
            expected["∞"] = (-sum(exps)) % 3
        assert out.vec.to_json() == {k: v for k, v in expected.items() if v}


def test_rational_function_json_roundtrip(ctx):
    f = ratfun(ctx, {0: 1, 1: 2})
    data = f.to_json()
    assert data == {
        "constant": "L0:[1]",
        "factors": [{"root": "L0:[0]", "exp": 1}, {"root": "L0:[1]", "exp": 2}],
    }
    back = p1.RationalFunction.from_json(ctx, data)
    assert back.factors == f.factors and back.constant == f.constant


def ref_germ(f, at, prec):
    """The germ as a product of powers of linear series windows."""
    ctx = f.ctx
    out = ls.constant(ctx, f.constant, prec)
    if at is INFINITY or (isinstance(at, Point) and at == INFINITY):
        out = ls.shift(out, -f.degree())
        for root, exp in f.factors.items():
            lin = ls.series(ctx, 0, [ctx.one(), ctx.neg(root)], prec=prec)
            out = ls.mul(out, ls.power(lin, exp))
        return out
    center = ctx.project(at)
    for root, exp in f.factors.items():
        offset = ctx.sub(center, root)
        if ctx.is_zero(offset):
            out = ls.shift(out, exp)
        else:
            lin = ls.series(ctx, 0, [offset, ctx.one()], prec=prec)
            out = ls.mul(out, ls.power(lin, exp))
    return out


def extension_towers():
    f7 = FieldCtx(7, 3)
    f7.nth_root(f7.elem(2), 3)  # 2 is not a cube mod 7: a level of degree 3
    f2 = FieldCtx(2, 3)
    f2.ensure_zeta()  # F_4
    return {"F7^3": f7, "F2^2": f2}


EXTENSIONS = extension_towers()


def field_elems(ctx):
    """Elements at level 0 or at the top level of the tower."""
    top = ctx.levels - 1
    dim = ctx.abs_degree(top)
    return st.one_of(
        st.integers(0, ctx.ell - 1).map(ctx.elem),
        st.lists(st.integers(0, ctx.ell - 1), min_size=dim, max_size=dim).map(
            lambda c: FieldElem(top, c)
        ),
    )


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_germ_matches_power_reference(name, data):
    ctx = EXTENSIONS[name]
    roots = data.draw(
        st.lists(field_elems(ctx), min_size=1, max_size=4, unique_by=ctx.project)
    )
    exps = data.draw(
        st.lists(
            st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), min_size=len(roots), max_size=len(roots)
        )
    )
    constant = data.draw(field_elems(ctx).filter(lambda c: not ctx.is_zero(c)))
    f = p1.RationalFunction(ctx, constant, dict(zip(roots, exps)))
    at = data.draw(st.one_of(st.sampled_from(roots), field_elems(ctx), st.just(INFINITY)))
    prec = data.draw(st.integers(1, 12))
    assert ls.to_json(p1.germ(f, at, prec)) == ls.to_json(ref_germ(f, at, prec))
