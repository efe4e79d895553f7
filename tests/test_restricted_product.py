"""The restricted-product form shared by ideles, global automorphisms and
the algebra elements of ``oracles``: every pointwise operation agrees with the local
operation at each point of the union of the supports and at a point
outside all of them, and redundant exceptions are dropped without
changing equality or hashing."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adelic_kummer import adeles, global_galois as gg, laurent as ls, local_algebra as la
from adelic_kummer.adeles import Idele, Point
from adelic_kummer.coeff_field import FieldCtx

import oracles

ELL_FOR = {2: 7, 3: 7, 5: 11}
LABELS = "abcd"
OUTSIDE = Point("z")  # in no support drawn here
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def points_of(*families):
    return set().union(*(f.exceptions for f in families)) | {OUTSIDE}


def honest(got, want):
    """got agrees with the locally computed want and claims no term beyond it."""
    return ls.matches(got, want) and got.end <= want.end


@st.composite
def series(draw, ctx, val):
    prec = draw(st.integers(1, 6))
    coeffs = [draw(st.integers(1, ctx.ell - 1))]
    coeffs += draw(st.lists(st.integers(0, ctx.ell - 1), min_size=prec - 1, max_size=prec - 1))
    return ls.series(ctx, val, coeffs)


@st.composite
def ideles(draw, ctx, p):
    default = draw(series(ctx, 0))
    exceptions = {}
    for lbl in draw(st.lists(st.sampled_from(LABELS), unique=True)):
        # sometimes the default itself, known to fewer or more terms
        exceptions[Point(lbl)] = draw(st.one_of(
            series(ctx, draw(st.integers(-2 * p, 2 * p))),
            st.integers(1, 6).map(lambda n: ls.truncate(default, n)),
            st.builds(lambda tail: ls.series(ctx, 0, default.coeffs + tuple(tail)),
                      st.lists(st.integers(0, ctx.ell - 1), max_size=3)),
        ))
    return Idele(exceptions, default)


def permutations(p):
    return st.permutations(range(1, p + 1)).map(tuple)


@st.composite
def automorphisms(draw, p, ram):
    """A global automorphism ramified exactly at the labels in ``ram``."""
    sigma = draw(permutations(p))
    exceptions = {Point(lbl): la.LocalAutomorphism.ram(draw(st.integers(0, p - 1)), p) for lbl in ram}
    for lbl in draw(st.lists(st.sampled_from([c for c in LABELS if c not in ram]), unique=True)):
        exceptions[Point(lbl)] = la.LocalAutomorphism.unram(draw(st.one_of(permutations(p), st.just(sigma))))
    return gg.GlobalAutomorphism(p, exceptions, sigma)


@st.composite
def algebra_elements(draw, ctx, p, ram):
    def part(form):
        return form([draw(series(ctx, draw(st.integers(-2, 2)))) for _ in range(p)])

    exceptions = {Point(lbl): part(la.LocalPart) for lbl in ram}
    for lbl in draw(st.lists(st.sampled_from([c for c in LABELS if c not in ram]), unique=True)):
        exceptions[Point(lbl)] = part(oracles.SplitPart)
    return oracles.AlgebraElement(p, exceptions, part(oracles.SplitPart))


def same_part(f, g):
    return type(f) is type(g) and all(
        (s.val, s.coeffs) == (t.val, t.coeffs) for s, t in zip(f.data, g.data, strict=True)
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@SETTINGS
@given(data=st.data())
def test_idele_operations_are_pointwise(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    t1, t2 = data.draw(ideles(ctx, p)), data.draw(ideles(ctx, p))
    k = data.draw(st.integers(-2, 4))
    prod, pw = adeles.idele_mul(t1, t2), adeles.idele_pow(t1, k)
    cube = adeles.idele_pow(t1, p)
    root = adeles.pth_power_witness(cube, p)
    for pt in points_of(t1, t2):
        assert honest(prod.component(pt), ls.mul(t1.component(pt), t2.component(pt)))
        assert honest(pw.component(pt), ls.power(t1.component(pt), k))
        assert honest(root.component(pt), ls.nth_root_series(cube.component(pt), p))
    assert oracles.idele_eq(prod, adeles.idele_mul(t2, t1))


@pytest.mark.parametrize("p", [2, 3, 5])
@SETTINGS
@given(data=st.data())
def test_automorphism_operations_are_pointwise(p, data):
    ram = data.draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=2))
    g, h = data.draw(automorphisms(p, ram)), data.draw(automorphisms(p, ram))
    k = data.draw(st.integers(-3, 2 * p))
    composed, inverse, power = g.compose(h), oracles.automorphism_inverse(g), g.power(k)
    for pt in points_of(g, h):
        assert composed.component(pt) == g.component(pt).compose(h.component(pt), p)
        assert inverse.component(pt) == oracles.local_automorphism_inverse(g.component(pt), p)
        assert power.component(pt) == g.component(pt).power(k, p)
    assert g.compose(inverse).is_identity()


@pytest.mark.parametrize("p", [2, 3, 5])
@SETTINGS
@given(data=st.data())
def test_algebra_element_apply_is_pointwise(p, data):
    ctx = FieldCtx(ELL_FOR[p], p)
    ram = data.draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=2))
    elem, g = data.draw(algebra_elements(ctx, p, ram)), data.draw(automorphisms(p, ram))
    image = elem.apply(g, ctx)
    for pt in points_of(elem, g):
        assert same_part(image.component(pt), elem.component(pt).apply(g.component(pt), ctx))


@pytest.mark.parametrize("p", [2, 3, 5])
@SETTINGS
@given(data=st.data())
def test_redundant_unram_exception_is_dropped(p, data):
    ram = data.draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=2))
    g = data.draw(automorphisms(p, ram))
    padded = gg.GlobalAutomorphism(
        p, {**g.exceptions, OUTSIDE: la.LocalAutomorphism.unram(g.default_sigma)}, g.default_sigma
    )
    assert padded == g and hash(padded) == hash(g)
    assert OUTSIDE not in padded.exceptions


def test_algebra_element_keeps_every_exception():
    ctx = FieldCtx(7, 3)
    one = oracles.SplitPart([ls.one(ctx, 4)] * 3)
    elem = oracles.AlgebraElement(3, {Point("a"): one}, one)
    assert Point("a") in elem.exceptions
    assert Point("a") in elem.scale(ctx.one()).exceptions
