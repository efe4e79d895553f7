"""Pointwise transitivity, primitive elements, tuples, conjugations."""

import itertools
import random

import pytest

from adelic_kummer import adeles, global_galois as gg, laurent as ls, local_algebra as la
from adelic_kummer.adeles import Idele, Point
from adelic_kummer.coeff_field import FieldCtx
from adelic_kummer.errors import CheckFailed, NotEquivalent, NotGalois, NotTransitive

import oracles


@pytest.fixture
def ctx():
    return FieldCtx(7, 3)


def mk_idele(ctx, spec, prec=12):
    return Idele(
        {Point(lbl): ls.from_text(ctx, txt, prec) for lbl, txt in spec.items()},
        ls.one(ctx, prec),
    )


def kummer_group(t, p, a_map=None):
    """Subgroup generated by exponent a at each ramified point (default 1)."""
    p_cycle = gg.standard_p_cycle(p)
    exceptions = {}
    for pt in adeles.ram_locus(t, p):
        a = (a_map or {}).get(pt.label, 1)
        exceptions[pt] = la.LocalAutomorphism.ram(a, p)
    return gg.CyclicSubgroup(gg.GlobalAutomorphism(p, exceptions, p_cycle), p)


def test_transitivity_examples(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    good = kummer_group(t, 3)
    assert gg.is_pointwise_transitive(good, t)
    # identity component at a ramified point: a valid order-3 element,
    # but not transitive there
    bad = gg.GlobalAutomorphism(
        3, {Point("x0"): la.LocalAutomorphism.ram(0, 3)}, gg.standard_p_cycle(3)
    )
    assert not gg.is_pointwise_transitive(gg.CyclicSubgroup(bad, 3), t)
    # transposition default has order 2 != 3
    trans = gg.GlobalAutomorphism(
        3, {Point("x0"): la.LocalAutomorphism.ram(1, 3)}, (2, 1, 3)
    )
    with pytest.raises(ValueError):
        gg.CyclicSubgroup(trans, 3)


def test_transitivity_cross_validated_against_orbits(ctx):
    # order-p criterion agrees with brute-force orbit transitivity
    import itertools

    for p in (2, 3):
        perms = list(itertools.permutations(range(1, p + 1)))
        for sigma in perms:
            orbit = {1}
            j = 1
            for _ in range(p):
                j = sigma[j - 1]
                orbit.add(j)
            brute_transitive = orbit == set(range(1, p + 1))
            assert la.is_p_cycle(sigma) == brute_transitive


def test_is_galois_kummer_action(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^2*(1 + 1*z)"})
    G = kummer_group(t, 3)
    assert gg.is_galois(t, G)
    assert gg.is_galois(oracles.unit_idele(ctx), gg.standard_kummer_subgroup(oracles.unit_idele(ctx), 3))


def test_strong_distinctness_at_split_idempotents(ctx):
    # transitive subgroup: distinct elements differ at every idempotent;
    # a non-transitive one fails at some idempotent
    p = 3
    one = ls.one(ctx, 4)
    zero = ls.zero(ctx)
    coords = [
        ls.constant(ctx, c, 4) for c in (ctx.elem(2), ctx.elem(3), ctx.elem(5))
    ]
    sample = oracles.AlgebraElement(p, {}, oracles.SplitPart(coords))
    cyc = la.LocalAutomorphism.unram((2, 3, 1))
    for k1 in range(3):
        for k2 in range(k1 + 1, 3):
            g1, g2 = cyc.power(k1, p), cyc.power(k2, p)
            for j in range(3):  # idempotent e_j
                v1 = sample.default.apply(g1).data[j]
                v2 = sample.default.apply(g2).data[j]
                assert not ls.matches(v1, v2)
    # subgroup generated by a transposition fixes coordinate 3
    tr = la.LocalAutomorphism.unram((2, 1, 3))
    assert ls.matches(
        sample.default.apply(tr).data[2], sample.default.data[2]
    )


def test_primitive_element_kummer_action(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    G = kummer_group(t, 3)
    alpha = gg.primitive_element(t, G, gg.Character(1, 3))
    assert alpha.ram_exponents == {Point("x0"): 1}  # alpha = T
    alpha_p = oracles.pth_power_idele(alpha, t)
    assert oracles.idele_eq(alpha_p, t)  # alpha^p = t
    assert alpha.vector == adeles.valuation_vector(alpha_p, 3)


def test_primitive_element_inverse_exponent(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    G = kummer_group(t, 3, {"x0": 2})
    alpha = gg.primitive_element(t, G, gg.Character(1, 3))
    assert alpha.ram_exponents[Point("x0")] == 2  # 2*2 = 1 mod 3


def test_primitive_element_split_pattern(ctx):
    t = oracles.unit_idele(ctx)
    G = gg.standard_kummer_subgroup(t, 3)
    alpha = gg.primitive_element(t, G, gg.Character(1, 3))
    assert alpha.default_pattern == (0, 1, 2)  # (1, zeta, zeta^2)
    alpha_p = oracles.pth_power_idele(alpha, t)
    assert adeles.valuation_vector(alpha_p, 3).is_trivial
    assert alpha.vector == adeles.valuation_vector(alpha_p, 3)
    elem = oracles.as_algebra_element(alpha, t)
    cubed = oracles.algebra_mul(oracles.algebra_mul(elem, elem, t), elem, t)
    assert cubed.matches(oracles.algebra_one(3, t))


def test_primitive_element_requires_galois(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    g = gg.GlobalAutomorphism(
        3,
        {
            Point("x0"): la.LocalAutomorphism.ram(0, 3),
            Point("y"): la.LocalAutomorphism.unram((2, 3, 1)),
        },
        gg.standard_p_cycle(3),
    )
    with pytest.raises(NotGalois):
        gg.primitive_element(t, gg.CyclicSubgroup(g, 3), gg.Character(1, 3))


def test_primitive_element_eigen_property_random(ctx):
    rng = random.Random(31)
    for _ in range(25):
        t, G = random_instance(ctx, rng, 3)
        s = rng.randrange(1, 3)
        alpha = gg.primitive_element(t, G, gg.Character(s, 3))
        elem = oracles.as_algebra_element(alpha, t)
        image = elem.apply(G.generator, ctx)
        assert image.matches(elem.scale(ctx.pow(ctx.ensure_zeta(), s)))
        # Ram(alpha^p) = Ram(t)
        alpha_p = oracles.pth_power_idele(alpha, t)
        assert adeles.ram_locus(alpha_p, 3) == adeles.ram_locus(t, 3)
        assert alpha.vector == adeles.valuation_vector(alpha_p, 3)


def random_instance(ctx, rng, p, n_ram=None, labels=("a", "b", "c", "d", "e")):
    n_ram = rng.randrange(0, 4) if n_ram is None else n_ram
    pts = rng.sample(labels, n_ram)
    exceptions = {}
    a_map = {}
    for lbl in pts:
        v = rng.choice([v for v in range(-5, 6) if v % p != 0])
        coeffs = [rng.randrange(1, ctx.ell)] + [rng.randrange(ctx.ell) for _ in range(9)]
        exceptions[Point(lbl)] = ls.series(ctx, v, coeffs)
        a_map[lbl] = rng.randrange(1, p)
    t = Idele(exceptions, ls.one(ctx, 10))
    return t, kummer_group(t, p, a_map)


def test_ram_tuple_examples(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(2)"})
    G = kummer_group(t, 3, {"x0": 1, "x1": 2})
    tup = gg.ram_tuple(G, t)
    assert tup.to_json() == {"x0": 1, "x1": 2}
    t2 = mk_idele(ctx, {"x0": "z", "x1": "z^2*(1)"})
    G2 = kummer_group(t2, 3, {"x0": 1, "x1": 1})
    assert gg.ram_tuple(G2, t2).to_json() == {"x0": 1, "x1": 2}  # 2^-1 = 2 mod 3
    t3 = mk_idele(ctx, {"x0": "z"})
    assert gg.ram_tuple(kummer_group(t3, 3), t3).to_json() == {"x0": 1}


def test_ram_tuple_generator_scaling(ctx):
    rng = random.Random(8)
    for _ in range(20):
        t, G = random_instance(ctx, rng, 3, n_ram=rng.randrange(1, 4))
        tup = gg.ram_tuple(G, t)
        for k in (1, 2):
            Gk = gg.CyclicSubgroup(G.generator.power(k), 3)
            assert gg.ram_tuple(Gk, t) == tup.scale(k)


def test_ram_tuple_requires_transitive(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    g = gg.GlobalAutomorphism(
        3,
        {
            Point("x0"): la.LocalAutomorphism.ram(0, 3),
            Point("y"): la.LocalAutomorphism.unram((2, 3, 1)),
        },
        gg.standard_p_cycle(3),
    )
    with pytest.raises(NotTransitive):
        gg.ram_tuple(gg.CyclicSubgroup(g, 3), t)


@pytest.mark.parametrize("ell,p", [(7, 2), (7, 3), (11, 5), (2, 5), (29, 7), (2, 7)])
def test_ram_tuple_is_the_log_of_the_kummer_symbol(ell, p):
    # zeta needs a tower step at (2, 5) and (2, 7); for p >= 5 some unit
    # v has v^2 != 1 mod p, where a v^-1 and a v differ
    ctx = FieldCtx(ell, p)
    rng = random.Random(ell * p)
    told_apart = False
    for _ in range(15):
        exponents, exceptions = {}, {}
        for lbl in rng.sample("abcd", rng.randrange(1, 4)):
            v = rng.choice([v for v in range(-2 * p, 2 * p + 1) if v % p])
            coeffs = [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(3)]
            exceptions[Point(lbl)] = ls.series(ctx, v, coeffs)
            exponents[Point(lbl)] = rng.randrange(1, p)
            told_apart |= v * v % p != 1
        t = Idele(exceptions, ls.one(ctx, 4))
        G = random_generator(rng, p, exponents)
        tup = gg.ram_tuple(G, t)
        assert set(tup.support) == set(exceptions)
        for pt, a in exponents.items():
            v = t.component(pt).valuation()
            assert tup.support[pt] == ctx.log_zeta(la.kummer_pair(a, 1, v, ctx))
    assert told_apart or p <= 3


def test_tuple_equivalence_and_conjugation_build_no_zeta():
    # 5 does not divide 2 - 1, so zeta would need a degree-4 step; the
    # tuple is read off the valuations and the conjugation is checked on
    # residues mod 5
    ctx = FieldCtx(2, 5)
    t = mk_idele(ctx, {"a": "z^2*(1 + 1*z)", "b": "z^3*(1)"})
    G1 = kummer_group(t, 5, {"a": 1, "b": 3})
    G2 = kummer_group(t, 5, {"a": 2, "b": 1})
    assert gg.ram_tuple(G1, t).to_json() == {"a": 3, "b": 1}
    assert gg.galois_equivalent(G1, G2, t)
    phi = gg.construct_conjugation(G1, G2, t, gg.Character(1, 5))
    assert phi.k == 3 and gg.verify_conjugation(phi, G1, G2)
    assert ctx.levels == 1


def test_galois_equivalent_orbits(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(3)"})
    G12 = kummer_group(t, 3, {"x0": 1, "x1": 2})
    G21 = kummer_group(t, 3, {"x0": 2, "x1": 1})
    G11 = kummer_group(t, 3, {"x0": 1, "x1": 1})
    assert gg.galois_equivalent(G12, G21, t)  # b = 2
    assert not gg.galois_equivalent(G11, G12, t)
    # empty ramification: always equivalent
    u = oracles.unit_idele(ctx)
    Ga = gg.standard_kummer_subgroup(u, 3)
    gb = gg.GlobalAutomorphism(3, {}, (3, 1, 2))
    assert gg.galois_equivalent(Ga, gg.CyclicSubgroup(gb, 3), u)


def test_construct_conjugation_identity(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    G = kummer_group(t, 3)
    phi = gg.construct_conjugation(G, G, t, gg.Character(1, 3))
    assert phi.k == 1
    assert phi.to_json()["u"] == {"default": "1", "points": {}}
    assert phi.default_perm == (1, 2, 3)
    assert gg.verify_conjugation(phi, G, G)


def test_construct_conjugation_twisted(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(5)"})
    G1 = kummer_group(t, 3, {"x0": 1, "x1": 1})
    G2 = gg.CyclicSubgroup(G1.generator.power(2), 3)
    phi = gg.construct_conjugation(G1, G2, t, gg.Character(1, 3))
    assert phi.k == 2  # tau precomposes with the inverse automorphism
    assert gg.verify_conjugation(phi, G1, G2)


def test_construct_conjugation_crossed_tuples(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(3)"})
    G12 = kummer_group(t, 3, {"x0": 1, "x1": 2})
    G21 = kummer_group(t, 3, {"x0": 2, "x1": 1})
    phi = gg.construct_conjugation(G12, G21, t, gg.Character(1, 3))
    assert gg.verify_conjugation(phi, G12, G21)


def test_verify_conjugation_rejects_a_tampered_phi(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(3)"})
    G12 = kummer_group(t, 3, {"x0": 1, "x1": 2})
    G21 = kummer_group(t, 3, {"x0": 2, "x1": 1})
    phi = gg.construct_conjugation(G12, G21, t, gg.Character(1, 3))
    assert gg.verify_conjugation(phi, G12, G21)

    def tampered(k, default_perm):
        return gg.Conjugation(3, k, phi.split_perms, default_perm, phi.alpha1, phi.alpha2)

    # rotated split coordinates still intertwine the two actions, but send
    # alpha1 to zeta^j alpha2 with j != 0, not to u alpha2 with u = 1
    rotated = la.perm_compose(phi.default_perm, gg.standard_p_cycle(3))
    assert not gg.verify_conjugation(tampered(phi.k, rotated), G12, G21)
    # a wrong power of tau fails on the descriptions, with no sample drawn
    wrong_k = tampered(phi.k % 3 + 1, phi.default_perm)
    assert not gg.verify_conjugation(wrong_k, G12, G21)


def test_construct_conjugation_rejects_inequivalent(ctx):
    t = mk_idele(ctx, {"x0": "z", "x1": "z^1*(3)"})
    G11 = kummer_group(t, 3, {"x0": 1, "x1": 1})
    G12 = kummer_group(t, 3, {"x0": 1, "x1": 2})
    with pytest.raises(NotEquivalent):
        gg.construct_conjugation(G11, G12, t, gg.Character(1, 3))


def random_algebra_element(ctx, t, p, rng, prec=6):
    parts = {}
    for pt in adeles.ram_locus(t, p):
        data = []
        for _ in range(p):
            if rng.random() < 0.2:
                data.append(ls.zero(ctx))
            else:
                data.append(
                    ls.series(
                        ctx,
                        rng.randrange(-2, 3),
                        [rng.randrange(1, ctx.ell)]
                        + [rng.randrange(ctx.ell) for _ in range(prec - 1)],
                    )
                )
        parts[pt] = la.LocalPart(data)
    default = oracles.SplitPart(
        ls.constant(ctx, ctx.elem(rng.randrange(1, ctx.ell)), prec) for _ in range(p)
    )
    return oracles.AlgebraElement(p, parts, default)


def test_eigenproject_idempotent_and_eigen(ctx):
    rng = random.Random(17)
    t = mk_idele(ctx, {"x0": "z", "x1": "z^2*(3 + 1*z)"})
    G = kummer_group(t, 3, {"x0": 1, "x1": 2})
    chi = gg.Character(1, 3)
    for _ in range(10):
        sample = random_algebra_element(ctx, t, 3, rng)
        proj = oracles.eigenproject(sample, G, chi, t)
        again = oracles.eigenproject(proj, G, chi, t)
        assert proj.matches(again)
        assert oracles.in_eigenspace(proj, G, chi, ctx)


def test_eigenproject_fixed_point_and_orthogonality(ctx):
    t = mk_idele(ctx, {"x0": "z"})
    G = kummer_group(t, 3)
    chi = gg.Character(1, 3)
    alpha = oracles.as_algebra_element(gg.primitive_element(t, G, chi), t)
    assert oracles.eigenproject(alpha, G, chi, t).matches(alpha)
    one = oracles.algebra_one(3, t)
    proj = oracles.eigenproject(one, G, chi, t)
    # 1 lies in the trivial eigenspace, so the nontrivial projection kills it
    assert all(s.is_zero for s in proj.default.data)
    assert all(s.is_zero for part in proj.exceptions.values() for s in part.data)


def test_eigenproject_split_eigenline(ctx):
    rng = random.Random(4)
    t = oracles.unit_idele(ctx)
    G = gg.standard_kummer_subgroup(t, 3)
    chi = gg.Character(2, 3)
    sample = random_algebra_element(ctx, t, 3, rng)
    proj = oracles.eigenproject(sample, G, chi, t)
    assert oracles.in_eigenspace(proj, G, chi, ctx)


def test_valuation_formula_at_ramified_points(ctx):
    # v_x(alpha^p) = s * (tuple entry)^-1 at ramified x, 0 elsewhere
    rng = random.Random(99)
    for _ in range(20):
        t, G = random_instance(ctx, rng, 3, n_ram=rng.randrange(1, 4))
        s = rng.randrange(1, 3)
        alpha = gg.primitive_element(t, G, gg.Character(s, 3))
        tup = gg.ram_tuple(G, t)
        vec = adeles.valuation_vector(oracles.pth_power_idele(alpha, t), 3)
        for pt, entry in tup.support.items():
            assert vec.support[pt] == (s * pow(entry, -1, 3)) % 3
        assert set(vec.support) == set(tup.support)
        assert alpha.vector == vec


def test_automorphism_json_roundtrip(ctx):
    g = gg.GlobalAutomorphism(
        3,
        {Point("0"): la.LocalAutomorphism.ram(1, 3)},
        (2, 3, 1),
    )
    data = g.to_json()
    assert data == {
        "default_sigma": [2, 3, 1],
        "exceptions": {"0": {"kind": "ram", "a": 1}},
    }
    assert gg.GlobalAutomorphism.from_json(data, 3) == g


def test_subgroup_rejects_bad_generators(ctx):
    with pytest.raises(ValueError):
        gg.CyclicSubgroup(oracles.identity_automorphism(3), 3)
    g = gg.GlobalAutomorphism(3, {}, (2, 1, 3))  # order 2, p = 3
    with pytest.raises(ValueError):
        gg.CyclicSubgroup(g, 3)


def test_ram_tuple_is_a_valuation_vector_of_units():
    a, b = Point("a"), Point("b")
    with pytest.raises(ValueError, match="tuple entry at b must be nonzero mod 5"):
        gg.RamTuple(5, {a: 1, b: 10})
    tup = gg.RamTuple(5, {a: 6, b: 3})
    assert isinstance(tup, adeles.ValuationVector)
    assert tup.support == {a: 1, b: 3}
    assert tup.to_json() == {"a": 1, "b": 3}
    assert repr(tup) == "RamTuple(p=5, {a: 1, b: 3})"
    for k in range(1, 5):
        assert tup.scale(k) == gg.RamTuple(5, {a: k, b: 3 * k})
        assert tup.scale(k).ratio(tup) == k
    assert gg.RamTuple(5, {}).ratio(gg.RamTuple(5, {})) == 1


def accepted_powers(g1, g2, p, ram, split):
    """Every k in (Z/p)* for which some phi has phi g1 phi^-1 = g2^k, by
    enumerating phi: an exponent in Z/(p) at each ramified point and a
    permutation in S_p at each split exception and at the default."""
    perms = list(itertools.permutations(range(1, p + 1)))
    conjugates = set()
    for exps in itertools.product(range(p), repeat=len(ram)):
        for sigmas in itertools.product(perms, repeat=len(split) + 1):
            exceptions = {pt: la.LocalAutomorphism.ram(e, p) for pt, e in zip(ram, exps)}
            exceptions.update((pt, la.LocalAutomorphism.unram(s)) for pt, s in zip(split, sigmas))
            phi = gg.GlobalAutomorphism(p, exceptions, sigmas[-1])
            conjugates.add(phi.compose(g1).compose(oracles.automorphism_inverse(phi)))
    return {k for k in range(1, p) if g2.power(k) in conjugates}


def test_galois_equivalence_against_brute_force_conjugation():
    rng = random.Random(11)
    seen = set()
    for p, count in ((2, 15), (3, 40)):
        ctx = FieldCtx(7, p)
        for i in range(count):
            ram = sorted(Point(lbl) for lbl in rng.sample("abc", i % 3))
            exceptions = {
                pt: ls.series(ctx, rng.choice([v for v in range(-4, 5) if v % p]), [rng.randrange(1, 7), 1])
                for pt in ram
            }
            exceptions[Point("d")] = ls.series(ctx, p, [rng.randrange(1, 7)])  # unramified
            t = Idele(exceptions, ls.one(ctx, 2))
            split = [Point(rng.choice("du"))] if rng.random() < 0.7 else []

            def generator(exps):
                ex = {pt: la.LocalAutomorphism.ram(exps[pt], p) for pt in ram}
                for pt in split:
                    if rng.random() < 0.7:
                        ex[pt] = la.LocalAutomorphism.unram(la.perm_power(gg.standard_p_cycle(p), rng.randrange(1, p)))
                sigma = la.perm_power(gg.standard_p_cycle(p), rng.randrange(1, p))
                return gg.CyclicSubgroup(gg.GlobalAutomorphism(p, ex, sigma), p)

            exps1 = {pt: rng.randrange(1, p) for pt in ram}
            k = rng.randrange(1, p)
            exps2 = (
                {pt: e * k % p for pt, e in exps1.items()} if rng.random() < 0.5
                else {pt: rng.randrange(1, p) for pt in ram}
            )
            G1, G2 = generator(exps1), generator(exps2)
            accepted = accepted_powers(G1.generator, G2.generator, p, ram, split)
            verdict = bool(accepted)
            assert gg.galois_equivalent(G1, G2, t) == verdict
            assert gg.galois_equivalent(G2, G1, t) == verdict
            seen.add((p, verdict))
            if verdict:
                phi = gg.construct_conjugation(G1, G2, t, gg.Character(1, p))
                assert phi.k in accepted
                assert gg.verify_conjugation(phi, G1, G2)
                # phi is the identity at a ramified point, so g1 = g2^k there
                # fixes k: a phi that differs only in k is no conjugation
                wrong_ks = set(range(1, p)) - {phi.k} if ram else set()
                for k in wrong_ks:
                    wrong = gg.Conjugation(p, k, phi.split_perms, phi.default_perm, phi.alpha1, phi.alpha2)
                    assert not gg.verify_conjugation(wrong, G1, G2)
            else:
                with pytest.raises(NotEquivalent):
                    gg.construct_conjugation(G1, G2, t, gg.Character(1, p))
    assert seen == {(2, True), (3, True), (3, False)}


def partition(items, related):
    """The classes {j : related(i, j)} of every i, as a set of frozensets."""
    indices = range(len(items))
    return {frozenset(j for j in indices if related(items[i], items[j])) for i in indices}


def proportional(u, v, p):
    """Whether u = b v entry by entry for a unit b of Z/(p)."""
    pts = set(u.support) | set(v.support)
    return any(
        all((u.support.get(pt, 0) - b * v.support.get(pt, 0)) % p == 0 for pt in pts)
        for b in range(1, p)
    )


@pytest.mark.parametrize(
    "p,r,n_split", [(2, 1, 1), (2, 2, 1), (3, 0, 1), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 3, 0)]
)
def test_stratification_by_enumeration(p, r, n_split):
    # every p-cyclic subgroup of a unit exponent at each ramified point and
    # a p-cycle at each split exception and at the default; up to
    # conjugation they form (p - 1)^(r - 1) classes, one per ramified tuple
    # up to a unit scalar
    ctx = FieldCtx(7, p)
    ram = [Point(lbl) for lbl in "abc"[:r]]
    split = [Point(lbl) for lbl in "d"[:n_split]]
    valuations = [1, p + 1, -1]
    exceptions = {pt: ls.series(ctx, v, [2, 1]) for pt, v in zip(ram, valuations)}
    exceptions.update((pt, ls.series(ctx, p, [3])) for pt in split)
    t = Idele(exceptions, ls.one(ctx, 2))
    cycles = [s for s in itertools.permutations(range(1, p + 1)) if la.is_p_cycle(s)]
    subgroups = {}
    for exps in itertools.product(range(1, p), repeat=r):
        for sigmas in itertools.product(cycles, repeat=n_split + 1):
            ex = {pt: la.LocalAutomorphism.ram(e, p) for pt, e in zip(ram, exps)}
            ex.update((pt, la.LocalAutomorphism.unram(s)) for pt, s in zip(split, sigmas))
            g = gg.GlobalAutomorphism(p, ex, sigmas[-1])
            subgroups.setdefault(frozenset(g.power(k) for k in range(1, p)), gg.CyclicSubgroup(g, p))
    groups = list(subgroups.values())
    brute = partition(
        groups, lambda G1, G2: bool(accepted_powers(G1.generator, G2.generator, p, ram, split))
    )
    decided = partition(groups, lambda G1, G2: gg.galois_equivalent(G1, G2, t))
    assert brute == decided
    assert sum(map(len, brute)) == len(groups)  # the classes are disjoint
    assert len(brute) == ((p - 1) ** (r - 1) if r else 1)
    tuples = [[gg.ram_tuple(groups[i], t) for i in cls] for cls in brute]
    for cls, other in itertools.product(tuples, repeat=2):
        same_class = cls is other
        assert all(proportional(u, v, p) == same_class for u in cls for v in other)
    for values in itertools.product(range(1, p), repeat=r):
        unit_tuple = gg.RamTuple(p, dict(zip(ram, values)))
        assert any(proportional(unit_tuple, cls[0], p) for cls in tuples)


# ----------------------------------------------------------------------
# the description checks against the series model of ``oracles``


def random_generator(rng, p, exponents):
    """Exponent a at each ramified point, a random p-cycle at up to two
    split exceptions and at the default."""
    ex = {pt: la.LocalAutomorphism.ram(a, p) for pt, a in exponents.items()}
    for lbl in rng.sample("uv", rng.randrange(0, 3)):
        ex[Point(lbl)] = la.LocalAutomorphism.unram(oracles.random_p_cycle(p, rng))
    return gg.CyclicSubgroup(gg.GlobalAutomorphism(p, ex, oracles.random_p_cycle(p, rng)), p)


def tamper(alpha, rng):
    """alpha with one ramified exponent, one split pattern or the default
    pattern changed: a pattern to random residues, or shifted by a nonzero
    constant, which keeps it an eigenvector."""
    p = alpha.p
    ram, split, default = dict(alpha.ram_exponents), dict(alpha.split_patterns), alpha.default_pattern
    pt = rng.choice([*ram, *split, None])
    if pt in ram:
        ram[pt] = rng.choice([b for b in range(p) if b != ram[pt]])
        return gg.PrimitiveElement(p, alpha.s, ram, split, default, alpha.vector)
    old = default if pt is None else split[pt]
    if rng.random() < 0.3:
        k = rng.randrange(1, p)
        new = tuple((c + k) % p for c in old)
    else:
        new = old
        while new == old:
            new = tuple(rng.randrange(p) for _ in range(p))
    if pt is None:
        default = new
    else:
        split[pt] = new
    return gg.PrimitiveElement(p, alpha.s, ram, split, default, alpha.vector)


def description_says_eigenvector(alpha, G, chi):
    try:
        gg._check_eigenvector(alpha, G, chi)
    except CheckFailed:
        return False
    return True


def series_verify_conjugation(phi, G1, G2, t):
    """``verify_conjugation`` with phi(alpha1) = alpha2 decided on the
    series model."""
    aut = phi.automorphism()
    if aut.compose(G1.generator) != G2.generator.power(phi.k).compose(aut):
        return False
    image = oracles.as_algebra_element(phi.alpha1, t).apply(aut, t.ctx)
    return image.matches(oracles.as_algebra_element(phi.alpha2, t))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_description_checks_agree_with_the_series_model(p):
    ctx = FieldCtx({2: 7, 3: 7, 5: 11}[p], p)
    rng = random.Random(26 * p)
    verdicts = set()
    for _ in range(15):
        ram = [Point(lbl) for lbl in rng.sample("abc", rng.randrange(0, 4))]
        t = Idele(
            {
                pt: ls.series(ctx, rng.choice([v for v in range(-5, 6) if v % p]), [rng.randrange(1, ctx.ell), 1])
                for pt in ram
            },
            ls.one(ctx, 4),
        )
        exponents = {pt: rng.randrange(1, p) for pt in ram}
        k = rng.randrange(1, p)
        G1 = random_generator(rng, p, exponents)
        G2 = random_generator(rng, p, {pt: a * k % p for pt, a in exponents.items()})
        phi = gg.construct_conjugation(G1, G2, t, gg.Character(rng.randrange(1, p), p))
        tampered1, tampered2 = tamper(phi.alpha1, rng), tamper(phi.alpha2, rng)
        for alpha, G in ((phi.alpha1, G1), (phi.alpha2, G2), (tampered1, G1), (tampered2, G2)):
            chi = gg.Character(alpha.s, p)
            want = oracles.in_eigenspace(oracles.as_algebra_element(alpha, t, prec=4), G, chi, ctx)
            assert description_says_eigenvector(alpha, G, chi) == want
            verdicts.add(("eigenvector", want))
        rho = tuple(rng.sample(phi.default_perm, p))
        for alpha1, alpha2, default_perm in (
            (phi.alpha1, phi.alpha2, phi.default_perm),
            (tampered1, phi.alpha2, phi.default_perm),
            (phi.alpha1, tampered2, phi.default_perm),
            (phi.alpha1, phi.alpha2, rho),
        ):
            other = gg.Conjugation(p, phi.k, phi.split_perms, default_perm, alpha1, alpha2)
            want = series_verify_conjugation(other, G1, G2, t)
            assert gg.verify_conjugation(other, G1, G2) == want
            verdicts.add(("conjugation", want))
    assert verdicts == {(check, v) for check in ("eigenvector", "conjugation") for v in (True, False)}
