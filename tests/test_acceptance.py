"""Acceptance criteria, one test per criterion, with runtime budgets.

Each test prints a single PASS line with its runtime; every assertion is
exact (no tolerances anywhere in the package).
"""

import itertools
import random
import time

import pytest

from adelic_kummer import (
    adeles,
    global_galois as gg,
    harrison as hr,
    laurent as ls,
    local_algebra as la,
    p1_ingest as p1,
)
from adelic_kummer.adeles import Idele, Point, ValuationVector
from adelic_kummer.coeff_field import FieldCtx
from adelic_kummer.errors import IncompatibleStructure, NotEquivalent

import oracles

CTX_FOR = {2: (7, 2), 3: (7, 3), 5: (11, 5)}


def timed(budget):
    def wrap(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            assert dt < budget, f"{fn.__name__} took {dt:.2f}s, budget {budget}s"
            print(f"ACCEPTANCE {fn.__name__[5:]}: PASS ({dt:.2f}s, budget {budget}s)")

        run.__name__ = fn.__name__
        return run

    return wrap


@timed(1.0)
def test_1_superelliptic_example():
    ctx = FieldCtx(7, 3)
    f = p1.RationalFunction(ctx, ctx.one(), {ctx.elem(0): 1, ctx.elem(1): 2})
    out = p1.classify_superelliptic(f, 3)
    assert out.vec.to_json() == {"0": 1, "1": 2}
    assert [pt.label for pt in out.ram] == ["0", "1"]
    assert adeles.INFINITY not in out.vec.support


@timed(5.0)
def test_2_kummer_map_isomorphism():
    rng = random.Random(20240)
    for p, (ell, _) in CTX_FOR.items():
        ctx = FieldCtx(ell, p)
        ideles = []
        for i in range(500):
            if i % 5 == 0:
                # a constructed p-th power: lands in the kernel
                s = _random_idele(ctx, rng, prec=32, max_pts=6)
                t = adeles.idele_pow(s, p)
            else:
                t = _random_idele(ctx, rng, prec=32, max_pts=6)
            ideles.append(t)
        # homomorphism on consecutive pairs
        for t1, t2 in zip(ideles[::2], ideles[1::2]):
            lhs = adeles.valuation_vector(adeles.idele_mul(t1, t2), p)
            rhs = adeles.valuation_vector(t1, p).add(adeles.valuation_vector(t2, p))
            assert lhs == rhs
        # kernel elements admit exact p-th-power witnesses to 32 coefficients
        checked = 0
        for t in ideles:
            if not oracles.is_pth_power(t, p):
                continue
            u = adeles.pth_power_witness(t, p)
            up = adeles.idele_pow(u, p)
            for pt, s in t.exceptions.items():
                w = up.component(pt)
                assert w.prec >= 32 and s.prec >= 32
                assert ls.matches(ls.truncate(w, 32), ls.truncate(s, 32))
            assert ls.matches(up.default, t.default)
            checked += 1
        assert checked >= 100


def _random_idele(ctx, rng, prec, max_pts, labels="abcdefgh"):
    n = rng.randrange(0, max_pts + 1)
    exceptions = {}
    for lbl in rng.sample(labels, n):
        v = rng.randrange(-6, 7)
        coeffs = [rng.randrange(1, ctx.ell)] + [
            rng.randrange(ctx.ell) for _ in range(prec - 1)
        ]
        exceptions[Point(lbl)] = ls.series(ctx, v, coeffs)
    return Idele(exceptions, ls.one(ctx, prec))


@timed(10.0)
def test_3_algebra_isomorphism_explicit():
    rng = random.Random(333)
    for p, (ell, _) in CTX_FOR.items():
        ctx = FieldCtx(ell, p)
        for i in range(100):
            t1 = _random_idele(ctx, rng, prec=16, max_pts=5)
            if i % 2 == 0:
                # same profile: keep each residue class mod p nonzero-for-nonzero
                exceptions = {}
                for pt, s in t1.exceptions.items():
                    v = s.valuation()
                    if v % p == 0:
                        nv = v + p * rng.randrange(-1, 2)
                    else:
                        nv = rng.choice([r for r in range(1, p)]) + p * rng.randrange(-1, 2)
                    coeffs = [rng.randrange(1, ctx.ell)] + [
                        rng.randrange(ctx.ell) for _ in range(15)
                    ]
                    exceptions[pt] = ls.series(ctx, nv, coeffs)
                t2 = Idele(exceptions, ls.one(ctx, 16))
            else:
                t2 = _random_idele(ctx, rng, prec=16, max_pts=5)
            verdict = adeles.ram_profile(t1, p) == adeles.ram_profile(t2, p)
            if verdict:
                # assemble the componentwise isomorphism and verify exactly
                for pt in set(t1.exceptions) | set(t2.exceptions):
                    phi = la.local_isom(t1.component(pt), t2.component(pt), p, ctx)
                    image = phi.image_of_t(t2.component(pt), p)
                    assert ls.matches(
                        image, ls.truncate(t1.component(pt), image.prec)
                    )
            else:
                # the construction must break at some point
                def attempt():
                    for pt in set(t1.exceptions) | set(t2.exceptions):
                        la.local_isom(t1.component(pt), t2.component(pt), p, ctx)

                with pytest.raises(IncompatibleStructure):
                    attempt()


@timed(10.0)
def test_4_pairing_closed_form_vs_oracle():
    rng = random.Random(444)
    for p, (ell, _) in CTX_FOR.items():
        ctx = FieldCtx(ell, p)
        for _ in range(100):
            tv = rng.randrange(-6, 7)
            if tv % p == 0:
                tv += 1
            lv = rng.randrange(-6, 7)
            a = rng.randrange(p)
            t = ls.series(
                ctx, tv, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(11)]
            )
            lam = ls.series(
                ctx, lv, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(11)]
            )
            closed = la.kummer_pair(a, lv, tv, ctx)
            oracle = la.oracle_pair(a, lam, t, ctx)
            assert ctx.eq(closed, oracle)


def _ram_projection_subgroup(G, ram_points):
    """Set of projections onto the ramified components, element by element."""
    out = set()
    for k in range(G.p):
        gk = G.generator.power(k)
        out.add(tuple(gk.exceptions[pt].a if pt in gk.exceptions else 0 for pt in ram_points))
    return out


@timed(30.0)
def test_5_conjugacy_triple_agreement():
    rng = random.Random(555)
    count = 0
    for p, (ell, _) in CTX_FOR.items():
        ctx = FieldCtx(ell, p)
        for _ in range(67):
            count += 1
            n_ram = rng.randrange(1, 6)
            exceptions = {}
            for lbl in rng.sample("abcde", n_ram):
                v = rng.choice([v for v in range(-2 * p, 2 * p + 1) if v % p != 0])
                exceptions[Point(lbl)] = ls.series(
                    ctx, v, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(7)]
                )
            t = Idele(exceptions, ls.one(ctx, 8))
            ram = sorted(adeles.ram_locus(t, p))
            G1 = _transitive_subgroup(t, p, rng)
            G2 = _transitive_subgroup(t, p, rng)
            # decider 1: equality of ramified projections, element sets
            d1 = _ram_projection_subgroup(G1, ram) == _ram_projection_subgroup(G2, ram)
            # decider 2: unit-scalar orbit of the tuples
            d2 = gg.galois_equivalent(G1, G2, t)
            # decider 3: explicit construction with exact verification
            try:
                phi = gg.construct_conjugation(G1, G2, t, gg.Character(1, p))
                d3 = gg.verify_conjugation(phi, G1, G2)
            except NotEquivalent:
                d3 = False
            assert d1 == d2 == d3
    assert count >= 200


def _transitive_subgroup(t, p, rng):
    exceptions = {
        pt: la.LocalAutomorphism.ram(rng.randrange(1, p), p)
        for pt in adeles.ram_locus(t, p)
    }
    # occasionally add a split exception and a non-standard default cycle
    if rng.random() < 0.3:
        exceptions[Point("u")] = la.LocalAutomorphism.unram(oracles.random_p_cycle(p, rng))
    g = gg.GlobalAutomorphism(p, exceptions, oracles.random_p_cycle(p, rng))
    return gg.CyclicSubgroup(g, p)


@timed(10.0)
def test_6_primitive_element_contracts():
    rng = random.Random(666)
    for p, (ell, _) in CTX_FOR.items():
        ctx = FieldCtx(ell, p)
        zeta = ctx.ensure_zeta()
        for _ in range(12):
            n_ram = rng.randrange(0, 4)
            exceptions = {}
            for lbl in rng.sample("abcd", n_ram):
                v = rng.choice([v for v in range(-2 * p, 2 * p + 1) if v % p != 0])
                exceptions[Point(lbl)] = ls.series(
                    ctx, v, [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(7)]
                )
            t = Idele(exceptions, ls.one(ctx, 8))
            G = _transitive_subgroup(t, p, rng)
            s = rng.randrange(1, p)
            chi = gg.Character(s, p)
            alpha = gg.primitive_element(t, G, chi)
            # eigen property at every point
            elem = oracles.as_algebra_element(alpha, t)
            assert elem.apply(G.generator, ctx).matches(elem.scale(ctx.pow(zeta, s)))
            # alpha^p is an idele with the same ramification locus
            alpha_p = oracles.pth_power_idele(alpha, t)
            assert isinstance(alpha_p, Idele)
            assert adeles.ram_locus(alpha_p, p) == adeles.ram_locus(t, p)
            # closed-form valuations at ramified points
            tup = gg.ram_tuple(G, t)
            vec = adeles.valuation_vector(alpha_p, p)
            for pt, entry in tup.support.items():
                assert vec.support[pt] == (s * pow(entry, -1, p)) % p
            assert alpha.vector == vec
            # characteristic polynomial = T^p - alpha^p, by determinant
            for pt, b in alpha.ram_exponents.items():
                ev = la.LocalPart.monomial(b, ls.one(ctx, 8), p)
                pol = oracles.char_poly_primitive(ev, t.component(pt), p, ctx)
                assert ls.matches(pol[0], ls.neg(alpha_p.component(pt)))
                assert all(pol[k].is_zero for k in range(1, p))
                assert ls.matches(pol[p], ls.one(ctx, pol[p].prec))
            pattern = alpha.default_pattern
            ev = oracles.SplitPart(ls.constant(ctx, ctx.pow(zeta, c), 8) for c in pattern)
            pol = oracles.char_poly_primitive(ev, ls.one(ctx, 8), p, ctx)
            assert ls.matches(pol[0], ls.neg(ls.one(ctx, 8)))
            assert all(pol[k].is_zero for k in range(1, p))


@timed(5.0)
def test_7_pointwise_transitivity_vs_orbits():
    def brute_transitive(sigma):
        p = len(sigma)
        orbit = {1}
        j = 1
        for _ in range(p):
            j = sigma[j - 1]
            orbit.add(j)
        return orbit == set(range(1, p + 1))

    for p in (2, 3):
        for sigma in itertools.permutations(range(1, p + 1)):
            assert la.is_p_cycle(sigma) == brute_transitive(sigma)
    rng = random.Random(777)
    for _ in range(500):
        sigma = tuple(rng.sample(range(1, 6), 5))
        assert la.is_p_cycle(sigma) == brute_transitive(sigma)
    # ramified components: nonzero exponent iff the generated subgroup
    # {k a mod p} is all of Z/(p)
    for p in (2, 3, 5):
        for a in range(p):
            assert ({k * a % p for k in range(p)} == set(range(p))) == (a != 0)


@timed(1.0)
def test_8_stratification_count():
    classes = hr.conjugacy_classes_over([Point("x0"), Point("x1")], 3)
    assert len(classes) == 5
    # orbit-partition oracle over all 9 vectors
    orbits = {
        frozenset(((b * v0) % 3, (b * v1) % 3) for b in (1, 2))
        for v0 in range(3)
        for v1 in range(3)
    }
    assert len(orbits) == 5
    # sizes: the trivial class plus four orbits of size two
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 2, 2, 2, 2]
