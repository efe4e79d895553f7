"""Classification group, conjugacy deciders, Kummer map round trips."""

import itertools
import random

import pytest

from adelic_kummer import adeles, global_galois as gg, harrison as hr, laurent as ls, local_algebra as la
from adelic_kummer.adeles import Idele, Point, ValuationVector
from adelic_kummer.coeff_field import FieldCtx

import oracles


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def mk_idele(ctx, spec, prec=10):
    return Idele(
        {Point(lbl): ls.from_text(ctx, txt, prec) for lbl, txt in spec.items()},
        ls.one(ctx, prec),
    )


def vec(p, support):
    return ValuationVector(p, {Point(lbl): v for lbl, v in support.items()})


def test_classify_kummer_action_gives_vec_of_t(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    G = gg.standard_kummer_subgroup(t, 3)
    c = hr.classify(t, G, gg.Character(1, 3))
    assert c == vec(3, {"x0": 1})
    assert c == adeles.valuation_vector(t, 3)


def test_classify_builds_no_zeta():
    # 5 does not divide 2 - 1, so zeta would need a degree-4 step; the
    # eigenvector check decides g(alpha) = chi(g) alpha on residues mod 5
    ctx = FieldCtx(2, 5)
    t = mk_idele(ctx, {"a": "z^2*(1 + 1*z)", "b": "z^5*(1)"})
    g = gg.GlobalAutomorphism(
        5,
        {Point("a"): la.LocalAutomorphism.ram(3, 5), Point("b"): la.LocalAutomorphism.unram((3, 4, 5, 1, 2))},
        gg.standard_p_cycle(5),
    )
    assert hr.classify(t, gg.CyclicSubgroup(g, 5), gg.Character(1, 5)) == vec(5, {"a": 4})
    assert ctx.levels == 1


def test_classify_trivial_iff_unramified(ctx):
    u = oracles.unit_idele(ctx)
    c = hr.classify(u, gg.standard_kummer_subgroup(u, 3), gg.Character(1, 3))
    assert c.is_trivial
    t = mk_idele(ctx, {"x0": "z^3*(1 + 1*z)"})
    c2 = hr.classify(t, gg.standard_kummer_subgroup(t, 3), gg.Character(1, 3))
    assert c2.is_trivial


def test_classify_twisted_action(ctx):
    # g(T) = zeta^2 T: primitive element T^2, alpha^p = t^2
    from adelic_kummer import local_algebra as la

    t = mk_idele(ctx, {"x0": "z"})
    g = gg.GlobalAutomorphism(
        3, {Point("x0"): la.LocalAutomorphism.ram(2, 3)}, gg.standard_p_cycle(3)
    )
    G = gg.CyclicSubgroup(g, 3)
    c = hr.classify(t, G, gg.Character(1, 3))
    assert c == vec(3, {"x0": 2})


def test_classify_character_power_scales_vector(ctx):
    # the class of (t, G, chi^b) is b times the class of (t, G, chi)
    t = mk_idele(ctx, {"x0": "z", "x1": "z^2*(2)"})
    G = gg.standard_kummer_subgroup(t, 3)
    base = hr.classify(t, G, gg.Character(1, 3))
    for b in (1, 2):
        cb = hr.classify(t, G, gg.Character(b, 3))
        assert cb == base.scale(b)


def test_group_law_examples(ctx):
    trivial = vec(3, {})
    c1 = vec(3, {"x0": 1})
    c2 = vec(3, {"x0": 2})
    assert c1.add(c2) == trivial
    assert c1.add(trivial) == c1
    c3 = vec(3, {"x0": 1, "x1": 2})
    assert c3.neg() == vec(3, {"x0": 2, "x1": 1})
    # witness: t * t^2 = t^3 is a cube
    t = mk_idele(ctx, {"x0": "z"})
    cube = adeles.idele_mul(t, adeles.idele_pow(t, 2))
    assert oracles.is_pth_power(cube, 3)


def test_equivariant_isomorphic(ctx):
    # equivariant isomorphism is equality of vectors
    a = vec(3, {"x0": 1})
    b = vec(3, {"x0": 1})
    c = vec(3, {"x0": 2})
    assert a == b and hash(a) == hash(b)
    assert a != c
    # the quotient of witnesses has nonzero vector, hence is not a p-th power
    diff = a.add(c.neg())
    assert not diff.is_trivial
    assert vec(3, {}) == vec(3, {"x0": 3})


def test_conjugate_and_canonical_form(ctx):
    c1 = vec(3, {"x0": 1, "x1": 2})
    c2 = vec(3, {"x0": 2, "x1": 1})
    assert hr.canonical_vector(c1) == hr.canonical_vector(c2)
    assert c1.ratio(c2) == 2
    c3 = vec(3, {"x0": 1, "x1": 1})
    assert hr.canonical_vector(c1) != hr.canonical_vector(c3)
    assert c1.ratio(c3) is None
    canon = hr.canonical_vector(c2)
    assert canon == vec(3, {"x0": 1, "x1": 2})
    # canonicalization is a fixed point
    assert hr.canonical_vector(canon) == canon


def test_algebra_isomorphic_examples(ctx):
    def isomorphic(t1, t2):
        return adeles.ram_profile(t1, 3) == adeles.ram_profile(t2, 3)

    t1 = mk_idele(ctx, {"x0": "z"})
    t2 = mk_idele(ctx, {"x0": "z^4*(3)"})
    assert isomorphic(t1, t2)  # both e = 3 at x0
    t3 = mk_idele(ctx, {"x1": "z"})
    assert not isomorphic(t1, t3)
    u = mk_idele(ctx, {"x0": "(1 + 2*z)", "x2": "z^3*(1)"})
    assert isomorphic(t1, adeles.idele_mul(t1, u))


def test_kummer_map_roundtrip(ctx):
    # the Kummer map is adeles.valuation_vector; kummer_inverse is a section
    rng = random.Random(14)
    for _ in range(100):
        support = {}
        for lbl in rng.sample(["a", "b", "c", "d", "e", "f"], rng.randrange(0, 5)):
            support[lbl] = rng.randrange(1, 3)
        c = vec(3, support)
        t = oracles.kummer_inverse(c, ctx, prec=6)
        assert adeles.valuation_vector(t, 3) == c
    assert not oracles.kummer_inverse(vec(3, {}), ctx).exceptions
    t = mk_idele(ctx, {"x0": "z"})
    assert adeles.valuation_vector(adeles.idele_pow(t, 3), 3).is_trivial


def test_group_axioms_random(ctx):
    rng = random.Random(55)
    trivial = vec(3, {})
    for _ in range(100):
        cs = [
            vec(3, {lbl: rng.randrange(3) for lbl in ("a", "b", "c")})
            for _ in range(3)
        ]
        a, b, c = cs
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.add(b) == b.add(a)
        assert a.add(a.neg()) == trivial
        assert a.add(trivial) == a


def test_kummer_map_homomorphism_500_pairs(ctx):
    rng = random.Random(77)
    for p in (2, 3, 5):
        for _ in range(170):
            t1 = random_idele(ctx, rng, p)
            t2 = random_idele(ctx, rng, p)
            lhs = adeles.valuation_vector(adeles.idele_mul(t1, t2), p)
            rhs = adeles.valuation_vector(t1, p).add(adeles.valuation_vector(t2, p))
            assert lhs == rhs


def random_idele(ctx, rng, p, prec=6):
    exceptions = {}
    for lbl in rng.sample(["a", "b", "c", "d"], rng.randrange(0, 4)):
        v = rng.randrange(-4, 5)
        exceptions[Point(lbl)] = ls.series(
            ctx, v, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(prec - 1)]
        )
    return Idele(exceptions, ls.one(ctx, prec))


def test_conjugate_agrees_with_galois_equivalent(ctx):
    # shared t, two transitive subgroups: subgroup equivalence matches
    # conjugacy of the classified extensions
    rng = random.Random(123)
    for _ in range(100):
        n_ram = rng.randrange(1, 4)
        pts = rng.sample(["a", "b", "c", "d"], n_ram)
        exceptions = {}
        a1, a2 = {}, {}
        for lbl in pts:
            v = rng.choice([1, 2, 4, 5])
            exceptions[Point(lbl)] = ls.series(
                ctx, v, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(5)]
            )
            a1[lbl] = rng.randrange(1, 3)
            a2[lbl] = rng.randrange(1, 3)
        t = Idele(exceptions, ls.one(ctx, 6))
        G1 = kummer_group(t, 3, a1)
        G2 = kummer_group(t, 3, a2)
        s1, s2 = rng.randrange(1, 3), rng.randrange(1, 3)
        c1 = hr.classify(t, G1, gg.Character(s1, 3))
        c2 = hr.classify(t, G2, gg.Character(s2, 3))
        conjugate = hr.canonical_vector(c1) == hr.canonical_vector(c2)
        assert conjugate == gg.galois_equivalent(G1, G2, t)


def kummer_group(t, p, a_map):
    from adelic_kummer import local_algebra as la

    exceptions = {
        pt: la.LocalAutomorphism.ram(a_map[pt.label], p)
        for pt in adeles.ram_locus(t, p)
    }
    return gg.CyclicSubgroup(
        gg.GlobalAutomorphism(p, exceptions, gg.standard_p_cycle(p)), p
    )


def test_stratification_two_point_count():
    # vectors over (Z/3)^2 modulo units: trivial + (9-1)/2 orbits = 5
    classes = hr.conjugacy_classes_over([Point("x0"), Point("x1")], 3)
    assert len(classes) == 5
    # direct orbit partition oracle
    orbits = set()
    for v0 in range(3):
        for v1 in range(3):
            orbit = frozenset(
                ((b * v0) % 3, (b * v1) % 3) for b in (1, 2)
            )
            orbits.add(orbit)
    assert len(orbits) == 5


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugacy_classes_over_small_point_sets(p, n):
    points = [Point(f"x{i}") for i in range(n)]
    classes = hr.conjugacy_classes_over(points, p)
    # the trivial class plus one class per line of (Z/p)^n
    assert len(classes) == 1 + (p**n - 1) // (p - 1)
    assert all(hr.canonical_vector(c) == c for c in classes)
    for values in itertools.product(range(p), repeat=n):
        v = ValuationVector(p, dict(zip(points, values)))
        assert hr.canonical_vector(v) in classes
