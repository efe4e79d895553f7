"""Tower arithmetic: canonical roots of unity, p-th roots, field axioms."""

import json
import os
import random
import subprocess
import sys

import pytest

import adelic_kummer
from adelic_kummer.coeff_field import (
    FieldCtx,
    FieldElem,
    elem_from_text,
    elem_to_text,
    is_prime,
    multiplicative_order,
)
from adelic_kummer.errors import CheckFailed, NotARootOfUnity, ZeroInput

from oracles import reference_root_of_unity


def brute_orders(ell):
    """Multiplicative order of every nonzero residue mod ell."""
    orders = {}
    for x in range(1, ell):
        k, acc = 1, x % ell
        while acc != 1:
            acc = (acc * x) % ell
            k += 1
        orders[x] = k
    return orders


def run_child(*args):
    """Run ``python args`` on this package; a hang fails after 60 s."""
    src = os.path.dirname(os.path.dirname(adelic_kummer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_zeta_f7_p3_is_smallest_order_3_element():
    # oracle: exhaustively compute element orders in F_7*
    orders = brute_orders(7)
    order3 = sorted(x for x, o in orders.items() if o == 3)
    assert order3 == [2, 4]
    ctx = FieldCtx(7, 3)
    zeta = ctx.ensure_zeta()
    assert zeta == ctx.elem(2)
    assert ctx.eq(ctx.pow(zeta, 3), ctx.one())


def test_zeta_f2_p3_extends_to_f4():
    ctx = FieldCtx(2, 3)
    assert (2 - 1) % 3 != 0 and (4 - 1) % 3 == 0
    zeta = ctx.ensure_zeta()
    assert ctx.levels == 2
    assert zeta.level == 1 and len(zeta.coeffs) == 2
    # zeta is the step generator g, satisfying g^2 + g + 1 = 0
    assert zeta.coeffs == (0, 1)
    acc = ctx.add(ctx.add(ctx.mul(zeta, zeta), zeta), ctx.one())
    assert ctx.is_zero(acc)
    assert ctx.eq(ctx.pow(zeta, 3), ctx.one())


@pytest.mark.parametrize("ell,p", [(7, 2), (7, 3), (11, 5), (7, 5), (2, 3)])
def test_zeta_has_exact_order_p(ell, p):
    ctx = FieldCtx(ell, p)
    zeta = ctx.ensure_zeta()
    assert ctx.eq(ctx.pow(zeta, p), ctx.one())
    assert not ctx.eq(zeta, ctx.one())


def test_log_zeta_values_and_additivity():
    ctx = FieldCtx(7, 3)
    ctx.ensure_zeta()
    assert ctx.log_zeta(ctx.elem(4)) == 2
    assert ctx.log_zeta(ctx.elem(1)) == 0
    assert ctx.log_zeta(ctx.elem(2)) == 1
    with pytest.raises(NotARootOfUnity):
        ctx.log_zeta(ctx.elem(3))
    for c in range(3):
        assert ctx.log_zeta(ctx.pow(ctx.zeta, c)) == c
    for c1 in range(3):
        for c2 in range(3):
            w1, w2 = ctx.pow(ctx.zeta, c1), ctx.pow(ctx.zeta, c2)
            assert ctx.log_zeta(ctx.mul(w1, w2)) == (c1 + c2) % 3


def test_pth_root_in_base_field_matches_cube_enumeration():
    # oracle: enumerate cubes in F_7
    cubes = sorted({pow(x, 3, 7) for x in range(7)})
    assert cubes == [0, 1, 6]
    roots_of_6 = sorted(x for x in range(7) if pow(x, 3, 7) == 6)
    assert roots_of_6 == [3, 5, 6]
    ctx = FieldCtx(7, 3)
    assert ctx.nth_root(ctx.elem(6), ctx.p) == ctx.elem(3)
    assert ctx.nth_root(ctx.elem(1), ctx.p) == ctx.elem(1)


def test_pth_root_extends_tower_for_noncube():
    ctx = FieldCtx(7, 3)
    r = ctx.nth_root(ctx.elem(2), ctx.p)
    assert ctx.levels == 2
    assert r.level == 1 and len(r.coeffs) == 3
    assert ctx.eq(ctx.pow(r, 3), ctx.elem(2))
    # later roots of the same element reuse the level
    r2 = ctx.nth_root(ctx.elem(2), ctx.p)
    assert r2 == r and ctx.levels == 2


def test_pth_root_zero_rejected():
    ctx = FieldCtx(7, 3)
    with pytest.raises(ZeroInput):
        ctx.nth_root(ctx.zero(), ctx.p)


@pytest.mark.parametrize("ell,p", [(7, 2), (7, 3), (11, 5), (3, 2)])
def test_pth_root_always_exact(ell, p):
    ctx = FieldCtx(ell, p)
    rng = random.Random(1000 + ell * p)
    for _ in range(60):
        a = ctx.elem(rng.randrange(1, ell))
        r = ctx.nth_root(a, ctx.p)
        assert ctx.eq(ctx.pow(r, p), a)


def test_pth_root_canonical_and_deterministic():
    out = []
    for _ in range(2):
        ctx = FieldCtx(7, 3)
        r = ctx.nth_root(ctx.elem(2), ctx.p)
        out.append((r.level, r.coeffs, ctx.to_json()["tower"]))
    assert out[0] == out[1]


def test_nth_root_composite_order():
    # only prime orders other than the characteristic are taken
    ctx = FieldCtx(7, 3)
    for r in (1, 4, 6, ctx.ell):
        with pytest.raises(ValueError, match="not a prime"):
            ctx.nth_root(ctx.elem(2), r)
    assert ctx.levels == 1


# every (ell, p) with ell, p < 60 whose zeta level has at most 4,096
# elements, so the scan is quick
PRIMES = [n for n in range(2, 60) if is_prime(n)]
ZETA_PAIRS = [
    (ell, p)
    for ell in PRIMES
    for p in PRIMES
    if p != ell and ell ** multiplicative_order(ell, p) <= 4096
]


@pytest.mark.parametrize("ell,p", ZETA_PAIRS)
def test_zeta_matches_the_reference_scan(ell, p):
    ctx = FieldCtx(ell, p)
    zeta = ctx.ensure_zeta()
    sizes = [ctx.level_size(i) for i in range(zeta.level + 1)]
    # the lowest level whose group order p divides
    assert (sizes[-1] - 1) % p == 0
    assert all((q - 1) % p for q in sizes[:-1])
    assert zeta == reference_root_of_unity(ctx, zeta.level, p)


# (ell, p, elements whose p-th roots are taken first, prime orders r in the
# order asked); the root of unity of order r is the zeta of (ell, r), built
# on a tower the p-th roots may already have extended.  Every level reached
# has at most 4,096 elements, so the scan is quick
REFERENCE_CASES = [
    (7, 3, [], [2, 3, 19]),
    (7, 3, [2], [19, 3, 2]),
    (13, 3, [2], [3, 2, 61]),
    (11, 5, [], [2, 5, 3]),
    (2, 3, [], [3, 5, 7, 13]),
    (3, 2, [], [2, 13, 7]),
    (5, 3, [], [2, 3]),
]


@pytest.mark.parametrize("ell,p,roots,orders", REFERENCE_CASES)
def test_root_of_unity_matches_the_reference_scan(ell, p, roots, orders):
    for r in orders:
        ctx = FieldCtx(ell, r)
        for a in roots:
            ctx.nth_root(ctx.elem(a), p)
        levels = ctx.levels
        xi = ctx.ensure_zeta()
        sizes = [ctx.level_size(i) for i in range(xi.level + 1)]
        # the lowest level whose group order r divides, the tower grown
        # by at most one step
        assert (sizes[-1] - 1) % r == 0
        assert all((q - 1) % r for q in sizes[:-1])
        assert ctx.levels - levels <= 1
        assert xi == reference_root_of_unity(ctx, xi.level, r)


def tower_json(ell, p, steps):
    """``to_json`` of a tower whose steps have level-0 coefficients, given
    as digit strings, lowest degree first."""
    return {"ell": ell, "p": p, "tower": [[f"L0:[{c}]" for c in step] for step in steps]}


def test_zeta_3_23_pinned():
    ctx = FieldCtx(3, 23)
    assert elem_to_text(ctx.ensure_zeta()) == "L1:[0,0,1,0,2,0,0,0,1,0,0]"
    assert ctx.to_json() == tower_json(3, 23, ["202201200001"])


@pytest.mark.parametrize(
    "ell,p,zeta,step",
    [
        (5, 23, "L1:[0,1,2,4,1,2,4,2,2,2,0,3,4,4,1,3,4,4,0,1,2,4]", "34323204023414310423311"),
        (7, 11, "L1:[0,6,2,5,0,6,4,3,4,1]", "52125552331"),
    ],
)
def test_high_degree_zeta_pinned(ell, p, zeta, step):
    # steps of degree 22 and 10, found by the Rabin test on random candidates
    ctx = FieldCtx(ell, p)
    assert elem_to_text(ctx.ensure_zeta()) == zeta
    assert ctx.to_json() == tower_json(ell, p, [step])


def test_zeta_2_47_pinned_without_a_level_scan():
    # the level has 2^23 elements: a scan of it takes tens of seconds
    code = (
        "import json\n"
        "from adelic_kummer.coeff_field import FieldCtx\n"
        "ctx = FieldCtx(2, 47)\n"
        "print(json.dumps([repr(ctx.ensure_zeta()), ctx.to_json()]))"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    zeta, data = json.loads(proc.stdout)
    assert zeta == "L1:[0,0,0,0,0,1,1,0,0,0,1,1,1,1,1,0,0,1,0,1,1,1,1]"
    assert data == tower_json(2, 47, ["110010101101011000011101"])


def test_selftest_7_11_finishes():
    # zeta lives in a level of 7^10 elements
    proc = run_child("-m", "adelic_kummer.cli", "--ell", "7", "--p", "11", "selftest")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["failed"] == 0


@pytest.mark.parametrize("ell,p", [(7, 3), (13, 3), (11, 5), (7, 2)])
def test_zeta_does_not_depend_on_earlier_roots(ell, p):
    def run(zeta_first):
        ctx = FieldCtx(ell, p)
        zeta = ctx.ensure_zeta() if zeta_first else None
        roots = [ctx.nth_root(ctx.elem(a), p) for a in range(1, ell)]
        if not zeta_first:
            zeta = ctx.ensure_zeta()
        return zeta, roots, ctx.to_json()

    assert run(True) == run(False)


def test_unreduced_zero_is_zero():
    ctx = FieldCtx(7, 3)
    zero = FieldElem(0, (7,))
    assert ctx.eq(zero, ctx.zero()) and ctx.is_zero(zero)
    assert not ctx.is_zero(FieldElem(0, (8,)))
    with pytest.raises(ZeroDivisionError):
        ctx.inv(zero)
    with pytest.raises(ZeroInput):
        ctx.nth_root(zero, 3)
    ctx.nth_root(ctx.elem(2), 3)  # a level of degree 3
    zero1 = FieldElem(1, (7, 0, 14))
    assert ctx.eq(zero1, ctx.zero()) and ctx.is_zero(zero1)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(zero1)


def random_elem(ctx, level, rng):
    return FieldElem(
        level, tuple(rng.randrange(ctx.ell) for _ in range(ctx.abs_degree(level)))
    )


@pytest.mark.parametrize("ell,p", [(7, 3), (2, 3), (11, 5)])
def test_field_axioms_per_level(ell, p):
    ctx = FieldCtx(ell, p)
    ctx.ensure_zeta()
    if (ell - 1) % p == 0:
        powers = {pow(y, p, ell) for y in range(1, ell)}
        non_power = next(x for x in range(2, ell) if x not in powers)
        ctx.nth_root(ctx.elem(non_power), ctx.p)  # force one more level
    rng = random.Random(42)
    for level in range(ctx.levels):
        for _ in range(1000):
            a = random_elem(ctx, level, rng)
            b = random_elem(ctx, level, rng)
            c = random_elem(ctx, level, rng)
            assert ctx.eq(ctx.mul(ctx.mul(a, b), c), ctx.mul(a, ctx.mul(b, c)))
            assert ctx.eq(
                ctx.mul(a, ctx.add(b, c)), ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            )
            if not ctx.is_zero(a):
                assert ctx.eq(ctx.mul(a, ctx.inv(a)), ctx.one())


def test_tower_steps_pass_irreducibility():
    ctx = FieldCtx(7, 5)
    ctx.ensure_zeta()
    ctx.nth_root(ctx.elem(3), ctx.p)
    for i, poly in enumerate(ctx.tower_polys()):
        assert ctx.poly_is_irreducible(i, poly)


def test_embed_project_roundtrip():
    ctx = FieldCtx(7, 3)
    ctx.nth_root(ctx.elem(2), ctx.p)
    a = ctx.elem(5)
    up = ctx.embed(a, 1)
    assert up.level == 1 and ctx.eq(up, a)
    down = ctx.project(up)
    assert down == a
    rng = random.Random(7)
    b = random_elem(ctx, 1, rng)
    assert ctx.eq(ctx.embed(ctx.project(b), 1), b)


def test_elem_text_roundtrip():
    ctx = FieldCtx(7, 3)
    ctx.nth_root(ctx.elem(2), ctx.p)
    a = FieldElem(1, (3, 0, 5))
    assert elem_to_text(a) == "L1:[3,0,5]"
    assert elem_from_text("L1:[3,0,5]") == a


def test_ctx_json_roundtrip():
    ctx = FieldCtx(7, 3)
    ctx.ensure_zeta()
    ctx.nth_root(ctx.elem(2), ctx.p)
    data = ctx.to_json()
    ctx2 = FieldCtx.from_json(data)
    assert ctx2.to_json() == data
    r1 = ctx.nth_root(ctx.elem(6), ctx.p)
    r2 = ctx2.nth_root(ctx2.elem(6), ctx2.p)
    assert r1 == r2


def test_from_json_rejects_a_non_monic_step():
    # 2X^2 + 2 is irreducible over F_7, but a step is reduced as a monic one
    with pytest.raises(ValueError, match="not a monic polynomial"):
        FieldCtx.from_json({"ell": 7, "p": 3, "tower": [["L0:[2]", "L0:[0]", "L0:[2]"]]})
    with pytest.raises(ValueError, match="not a monic polynomial"):
        FieldCtx.from_json({"ell": 7, "p": 3, "tower": [[]]})


def test_irreducibility_rejects_a_coefficient_above_its_level():
    ctx = FieldCtx(7, 3)
    ctx.nth_root(ctx.elem(2), 3)
    with pytest.raises(ValueError, match="not a monic polynomial over level 0"):
        ctx.poly_is_irreducible(0, [FieldElem(1, (0, 1, 0)), ctx.one()])


def test_invalid_ctx_rejected():
    with pytest.raises(ValueError):
        FieldCtx(6, 3)
    with pytest.raises(ValueError):
        FieldCtx(7, 4)
    with pytest.raises(ValueError):
        FieldCtx(3, 3)


def test_a_wrong_root_fails_the_root_post_check(monkeypatch):
    # 19 - 1 = 3^2 * 2: the cube-root descent in F_19 reads two digits of
    # a discrete log in the Sylow 3-subgroup.  With gamma^2 = gamma^-1 in
    # place of the order-3 element gamma, the second digit of 8 = 2^3 (2
    # generates F_19^*) comes out negated, and so does the root's Sylow part
    ctx = FieldCtx(19, 3)
    sylow = FieldCtx._sylow_data

    def inverted_gamma(self, level, r):
        eta, gamma, t, s = sylow(self, level, r)
        lay = self._layouts[level]
        return eta, lay.mul(gamma, gamma), t, s

    monkeypatch.setattr(FieldCtx, "_sylow_data", inverted_gamma)
    with pytest.raises(CheckFailed, match="does not satisfy root"):
        ctx.nth_root(ctx.elem(8), 3)
