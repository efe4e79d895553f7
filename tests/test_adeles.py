"""Ideles, valuation vectors, and ramification profiles."""

import random

import pytest

from adelic_kummer import adeles, laurent as ls
from adelic_kummer.adeles import Idele, Point, ValuationVector
from adelic_kummer.coeff_field import FieldCtx
from adelic_kummer.errors import ZeroComponent

import oracles


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def mk_idele(ctx, spec, prec=16):
    return Idele(
        {Point(lbl): ls.from_text(ctx, txt, prec) for lbl, txt in spec.items()},
        ls.one(ctx, prec),
    )


def test_valuation_vector_examples(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^2*(1 + 1*z)"})
    vec = adeles.valuation_vector(t, 3)
    assert vec.to_json() == {"x0": 1, "x1": 2}
    assert adeles.valuation_vector(oracles.unit_idele(ctx), 3).is_trivial
    sq = adeles.idele_mul(t, t)
    assert adeles.valuation_vector(sq, 3).to_json() == {"x0": 2, "x1": 1}
    # verified by literally squaring the series
    assert ls.valuation(sq.component(Point("x1"))) == 4


def test_ram_profile_composite_rank(ctx):
    t = mk_idele(ctx, {"x0": "z^2*(1)", "x1": "z^3*(1)"})
    prof = adeles.ram_profile(t, 6)
    assert prof == {Point("x0"): 3, Point("x1"): 2}


def test_ram_profile_trivial_and_total(ctx):
    t = mk_idele(ctx, {"x0": "z^3*(1)", "x1": "z^-3*(2)"})
    assert adeles.ram_profile(t, 3) == {}
    t2 = mk_idele(ctx, {"x0": "z^3*(1)"})
    assert adeles.ram_profile(t2, 5) == {Point("x0"): 5}


def test_idele_rejects_zero_component(ctx):
    # so ram_profile, which reads valuations, never meets one
    with pytest.raises(ZeroComponent, match="zero component at x0"):
        Idele({Point("x0"): ls.zero(ctx)}, ls.one(ctx, 8))


def test_is_pth_power_examples(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    assert not oracles.is_pth_power(t, 3)
    s = mk_idele(ctx, {"x0": "z^-1*(3 + 1*z)", "x1": "(2 + 5*z^2)"})
    cube = adeles.idele_pow(s, 3)
    assert oracles.is_pth_power(cube, 3)
    w = adeles.pth_power_witness(cube, 3)
    assert oracles.idele_eq(adeles.idele_pow(w, 3), cube)


def test_idele_mul_merges_supports(ctx):
    t1 = mk_idele(ctx, {"x0": "z", "x1": "(2)"})
    t2 = mk_idele(ctx, {"x1": "(4)", "x2": "z^-2*(1)"})
    prod = adeles.idele_mul(t1, t2)
    assert ls.valuation(prod.component(Point("x0"))) == 1
    assert ls.valuation(prod.component(Point("x2"))) == -2
    # 2 * 4 = 8 = 1 = the default, so x1 prunes away
    assert Point("x1") not in prod.exceptions


def test_valuation_vector_homomorphism_500_pairs(ctx):
    rng = random.Random(2024)
    for p in (2, 3, 5):
        for _ in range(170):
            t1 = random_idele(ctx, rng, p)
            t2 = random_idele(ctx, rng, p)
            lhs = adeles.valuation_vector(adeles.idele_mul(t1, t2), p)
            rhs = adeles.valuation_vector(t1, p).add(adeles.valuation_vector(t2, p))
            assert lhs == rhs


def random_idele(ctx, rng, p, max_points=4, prec=8):
    pts = rng.sample(["a", "b", "c", "d", "e", "f"], rng.randrange(0, max_points))
    exceptions = {}
    for lbl in pts:
        v = rng.randrange(-4, 5)
        coeffs = [rng.randrange(1, ctx.ell)] + [
            rng.randrange(ctx.ell) for _ in range(prec - 1)
        ]
        exceptions[Point(lbl)] = ls.series(ctx, v, coeffs)
    return Idele(exceptions, ls.one(ctx, prec))


def test_ram_locus_matches_vector_support(ctx):
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(50):
            t = random_idele(ctx, rng, p)
            prof = adeles.ram_profile(t, p)
            vec = adeles.valuation_vector(t, p)
            assert sorted(prof) == vec.points()


def test_point_ordering_infinity_last():
    pts = [adeles.INFINITY, Point("b"), Point("a"), Point("0")]
    assert [pt.label for pt in sorted(pts)] == ["0", "a", "b", "∞"]


def test_vector_group_ops():
    v1 = ValuationVector(3, {Point("x0"): 1, Point("x1"): 2})
    v2 = ValuationVector(3, {Point("x0"): 2, Point("x1"): 1})
    assert v1.add(v2).is_trivial
    assert v1.neg() == v2
    assert v1.scale(2) == v2
    assert ValuationVector.from_json(3, v1.to_json()) == v1


def test_idele_json_roundtrip(ctx):
    t = mk_idele(ctx, {"0": "z", "1": "z^2*(1 + 1*z)"})
    data = oracles.idele_to_json(t)
    assert data["points"]["0"] == "z^1*(1)"
    back = adeles.idele_from_json(ctx, data, prec=16)
    assert oracles.idele_eq(back, t)


def test_ratio_against_a_scan():
    rng = random.Random(16)
    labels = ["x0", "x1", "x2", "x3"]

    def random_vector(p):
        return ValuationVector(p, {Point(lbl): rng.randrange(p) for lbl in rng.sample(labels, rng.randrange(4))})

    for p in (2, 3, 5, 7):
        trivial, point = ValuationVector(p, {}), ValuationVector(p, {Point("x0"): 1})
        assert trivial.ratio(trivial) == 1
        assert trivial.ratio(point) is None and point.ratio(trivial) is None
        for _ in range(60):
            v = random_vector(p)
            u = v.scale(rng.randrange(1, p)) if rng.random() < 0.5 else random_vector(p)
            # the units b with u = b * v, on plain dicts
            scan = [
                b for b in range(1, p)
                if u.support == {pt: b * x % p for pt, x in v.support.items()}
            ]
            assert u.ratio(v) == (scan[0] if scan else None)
            if u.is_trivial and v.is_trivial:
                assert scan == list(range(1, p))
            else:
                assert len(scan) <= 1
            if scan:
                assert v.ratio(u) == pow(scan[0], -1, p)


def test_idele_keeps_an_exception_known_to_fewer_terms(ctx):
    # it matches the default on its 4 known terms; dropping it would make
    # the point claim 28 terms that were never computed
    x = Point("x")
    short = Idele({x: ls.series(ctx, 0, [1], prec=4)}, ls.one(ctx, 32))
    assert short.component(x).prec == 4
    long = Idele({x: ls.series(ctx, 0, [1], prec=40)}, ls.one(ctx, 32))
    assert x not in long.exceptions and long.component(x).prec == 32
