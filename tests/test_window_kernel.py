"""The packed window kernel against schoolbook references, level by level.

The references are the coefficient-by-coefficient convolution and the O(n^2)
inverse recurrence, written with public FieldCtx arithmetic.  ``power`` is
compared with the same function run on the references, and the packed root
kernel behind ``hensel_pth_root`` and ``nth_root_series`` with the series
Newton iteration w <- w - (w^p - v) / (p w^(p-1)) run on them
(``ref_hensel``), levels included.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adelic_kummer import coeff_field as cf
from adelic_kummer import laurent as ls
from adelic_kummer.coeff_field import FieldCtx, FieldElem
from adelic_kummer.errors import NotAUnit, PrecisionExhausted

# ----------------------------------------------------------------------
# references


def ref_mul(s, t):
    if s.is_zero or t.is_zero:
        return ls.zero(s.ctx)
    ctx = s.ctx
    n = min(s.prec, t.prec)
    lvl = max(c.level for c in s.coeffs + t.coeffs)
    out = [ctx.embed(ctx.zero(), lvl)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = ctx.add(out[i + j], ctx.mul(s.coeffs[i], t.coeffs[j]))
    out = tuple(ctx.embed(c, lvl) for c in out)
    return ls.LaurentSeries(ctx, s.val + t.val, out, _checked=True)


def ref_invert(s):
    ctx = s.ctx
    n = s.prec
    lvl = max(c.level for c in s.coeffs)
    coeffs = [ctx.embed(c, lvl) for c in s.coeffs]
    lead_inv = ctx.inv(coeffs[0])
    out = [lead_inv] + [ctx.embed(ctx.zero(), lvl)] * (n - 1)
    for k in range(1, n):
        acc = ctx.embed(ctx.zero(), lvl)
        for j in range(k):
            acc = ctx.add(acc, ctx.mul(out[j], coeffs[k - j]))
        out[k] = ctx.neg(ctx.mul(lead_inv, acc))
    return ls.LaurentSeries(ctx, -s.val, tuple(out), _checked=True)


def ref_add(s, t):
    if s.is_zero:
        return t
    if t.is_zero:
        return s
    ctx = s.ctx
    lo, end = min(s.val, t.val), min(s.end, t.end)
    out = [ctx.add(s.coeff_at(e), t.coeff_at(e)) for e in range(lo, end)]
    k = 0
    while k < len(out) and ctx.is_zero(out[k]):
        k += 1
    if k == len(out):
        if s.val == t.val and s.end == t.end:
            return ls.zero(ctx)
        raise PrecisionExhausted("sum cancels on the whole known window")
    return ls.LaurentSeries(ctx, lo + k, tuple(out[k:]), _checked=True)


@contextmanager
def reference_kernels():
    with mock.patch.object(ls, "mul", ref_mul), mock.patch.object(ls, "invert", ref_invert):
        yield


def ref_with_prec(s, prec):
    # pads with provisional zeros, which asserts knowledge the series may
    # not have; only valid inside Newton iteration
    if s.prec >= prec:
        return ls.truncate(s, prec)
    ctx = s.ctx
    return ls.LaurentSeries(
        ctx, s.val, s.coeffs + (ctx.zero(),) * (prec - s.prec), _checked=True
    )


def ref_hensel(u, p=None):
    """The p-th root of a unit: tower root of the leading coefficient, then
    Newton iteration on the 1 + m part, each step inverting w^(p-1), on the
    schoolbook references."""
    if u.is_zero or u.val != 0:
        raise NotAUnit("p-th root by Hensel lifting needs valuation 0")
    ctx = u.ctx
    if p is None:
        p = ctx.p
    lead = u.coeffs[0]
    r0 = ctx.nth_root(lead, p)
    if u.prec == 1:
        return ls.constant(ctx, r0, 1)
    v = ls.scale(u, ctx.inv(lead))  # 1 + m
    p_inv = ctx.inv_int(p)
    w = ls.one(ctx, 1)
    k = 1
    with reference_kernels():
        while k < u.prec:
            k = min(2 * k, u.prec)
            wk = ref_with_prec(w, k)
            vk = ls.truncate(v, k)
            # w <- w - (w^p - v) / (p w^(p-1))
            wp1 = ls.power(wk, p - 1)
            num = ls.sub(ref_mul(wp1, wk), vk)
            if num.is_zero:
                w = wk
                continue
            corr = ls.scale(ref_mul(num, ref_invert(wp1)), p_inv)
            w = ls.sub(wk, corr)
            w = ref_with_prec(w, k)
    return ls.scale(w, r0)


def same(s, t):
    """Coefficient by coefficient and level by level (FieldElem equality
    compares levels)."""
    return (s.val, s.prec, s.coeffs) == (t.val, t.prec, t.coeffs)


# ----------------------------------------------------------------------
# towers

_TOWERS = {}


def tower(name):
    """A context with a fixed tower; tests never extend it further."""
    if name not in _TOWERS:
        if name == "F7":
            ctx = FieldCtx(7, 3)
        elif name == "F7^3":
            ctx = FieldCtx(7, 3)
            ctx.nth_root(ctx.elem(2), 3)  # 2 is not a cube mod 7
        elif name == "F11^5":
            ctx = FieldCtx(11, 5)
            ctx.nth_root(ctx.elem(2), 5)
        elif name == "F2^2^3":
            ctx = FieldCtx(2, 3)
            ctx.nth_root(ctx.ensure_zeta(), 3)  # F_4* has no element of order 9
        elif name == "F3^4":
            ctx = FieldCtx(3, 5)
            ctx.ensure_zeta()
        _TOWERS[name] = ctx
    return _TOWERS[name]


TOWERS = ["F7", "F7^3", "F11^5", "F2^2^3", "F3^4"]


def test_towers_have_the_expected_degrees():
    degrees = {
        name: [tower(name).abs_degree(i) for i in range(tower(name).levels)] for name in TOWERS
    }
    assert degrees == {
        "F7": [1],
        "F7^3": [1, 3],
        "F11^5": [1, 5],
        "F2^2^3": [1, 2, 6],
        "F3^4": [1, 4],
    }


@st.composite
def elems(draw, ctx, max_level=None, nonzero=False):
    top = ctx.levels - 1 if max_level is None else max_level
    level = draw(st.integers(0, top))
    dim = ctx.abs_degree(level)
    coords = draw(st.lists(st.integers(0, ctx.ell - 1), min_size=dim, max_size=dim))
    if nonzero and not any(coords):
        coords[0] = 1
    return FieldElem(level, coords)


@st.composite
def windows(draw, ctx, max_prec=40, max_level=None):
    """A nonzero series whose coefficients mix every level up to max_level."""
    prec = draw(st.integers(1, max_prec))
    lead = draw(elems(ctx, max_level, nonzero=True))
    rest = draw(st.lists(elems(ctx, max_level), min_size=prec - 1, max_size=prec - 1))
    return ls.LaurentSeries(ctx, draw(st.integers(-5, 5)), [lead] + rest)


TOWER_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("name", TOWERS)
@TOWER_SETTINGS
@given(data=st.data())
def test_mul_matches_schoolbook(name, data):
    ctx = tower(name)
    s, t = data.draw(windows(ctx)), data.draw(windows(ctx))
    assert same(ls.mul(s, t), ref_mul(s, t))


@pytest.mark.parametrize("name", TOWERS)
@TOWER_SETTINGS
@given(data=st.data())
def test_invert_matches_recurrence(name, data):
    ctx = tower(name)
    s = data.draw(windows(ctx))
    assert same(ls.invert(s), ref_invert(s))


@pytest.mark.parametrize("name", TOWERS)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_power_matches_reference(name, data):
    ctx = tower(name)
    s = data.draw(windows(ctx, max_prec=12))
    e = data.draw(st.integers(-4, 6))
    fast = ls.power(s, e)
    with reference_kernels():
        slow = ls.power(s, e)
    assert same(fast, slow)


@pytest.mark.parametrize("name", TOWERS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hensel_pth_root_matches_reference(name, data):
    ctx = tower(name)
    levels = ctx.levels
    u = data.draw(windows(ctx, max_prec=12))
    # a p-th power leading coefficient keeps the root inside the tower
    lead = ctx.pow(u.coeffs[0], ctx.p)
    u = ls.LaurentSeries(ctx, 0, (lead,) + u.coeffs[1:])
    fast = ls.hensel_pth_root(u)
    slow = ref_hensel(u)
    assert ctx.levels == levels
    assert same(fast, slow)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_level0_power_and_root_up_to_prec_40(data):
    ctx = tower("F7")
    u = data.draw(windows(ctx, max_prec=40))
    u = ls.LaurentSeries(ctx, 0, (ctx.elem(1),) + u.coeffs[1:])
    e = data.draw(st.integers(-3, 7))
    fast = (ls.power(u, e), ls.hensel_pth_root(u))
    with reference_kernels():
        slow = (ls.power(u, e), ref_hensel(u))
    assert all(same(a, b) for a, b in zip(fast, slow))


@st.composite
def root_units(draw, ctx, p, min_prec=1, max_prec=40):
    """A unit whose leading coefficient is a p-th power, so its root stays
    inside the tower; the later coefficients mix every level and come in
    runs, some of them zeros at a drawn level."""
    prec = draw(st.integers(min_prec, max_prec))
    lead = ctx.pow(draw(elems(ctx, nonzero=True)), p)
    rest = []
    while len(rest) < prec - 1:
        run = draw(st.integers(1, prec))
        if draw(st.booleans()):
            rest += draw(st.lists(elems(ctx), min_size=run, max_size=run))
        else:
            rest += [ctx.embed(ctx.zero(), draw(st.integers(0, ctx.levels - 1)))] * run
    return ls.LaurentSeries(ctx, 0, [lead] + rest[: prec - 1])


def characteristic(name):
    return int(name.split("^")[0][1:])


@pytest.mark.parametrize(
    "name,p", [(name, p) for name in TOWERS for p in (2, 3, 5) if p != characteristic(name)]
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_root_kernel_matches_newton_reference(name, p, data):
    ctx = tower(name)
    levels = ctx.levels
    u = data.draw(root_units(ctx, p))
    fast = ls.hensel_pth_root(u, p)
    assert ctx.levels == levels
    assert same(fast, ref_hensel(u, p))


@pytest.mark.parametrize("name,p", [("F7", 3), ("F7^3", 2), ("F2^2^3", 3)])
@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_root_kernel_matches_newton_reference_at_prec_128(name, p, data):
    ctx = tower(name)
    u = data.draw(root_units(ctx, p, min_prec=128, max_prec=128))
    assert same(ls.hensel_pth_root(u, p), ref_hensel(u, p))


@pytest.mark.parametrize(
    "name,n", [(name, n) for name in TOWERS for n in (6, 9) if n % characteristic(name)]
)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_nth_root_series_matches_newton_reference(name, n, data):
    # a copy of the tower: the root of a root may need one more step
    ctx = FieldCtx.from_json(tower(name).to_json())
    s = ls.shift(data.draw(root_units(ctx, n, max_prec=24)), n * data.draw(st.integers(-2, 2)))
    fast = ls.nth_root_series(s, n)
    with mock.patch.object(ls, "hensel_pth_root", ref_hensel):
        slow = ls.nth_root_series(s, n)
    assert same(fast, slow)


def test_root_levels_follow_the_newton_windows():
    # v = 1 + x z^5 has the cube root 1 + (x/3) z^5 to precision 10: the
    # residual is exactly zero in the windows [1, 2), [2, 4) and [8, 10)
    ctx = tower("F7^3")
    zero1 = ctx.embed(ctx.zero(), 1)
    u = ls.LaurentSeries(ctx, 0, [ctx.one()] + [zero1] * 4 + [FieldElem(1, (0, 1, 0))] + [zero1] * 4)
    r = ls.hensel_pth_root(u)
    assert [c.level for c in r.coeffs] == [0, 0, 0, 0, 0, 1, 1, 1, 0, 0]
    assert ls.to_json(r)["coeffs"][4:7] == ["L0:[0]", "L1:[0,5,0]", "L1:[0,0,0]"]
    assert same(r, ref_hensel(u))
    # level-1 zeros before the first nonzero coefficient of a window leave
    # the window at level 0
    u = ls.LaurentSeries(ctx, 0, [ctx.one()] + [zero1] * 4 + [ctx.elem(2)] + [ctx.zero()] * 4)
    r = ls.hensel_pth_root(u)
    assert [c.level for c in r.coeffs] == [0] * 10
    assert same(r, ref_hensel(u))


@pytest.mark.parametrize("name", ["F7^3", "F2^2^3"])
def test_root_kernel_rejects_what_the_inverse_kernel_rejects(name):
    ctx = tower(name)
    top = ctx.levels - 1
    bad = FieldElem(top, [1] * (ctx.abs_degree(top) - 1))  # one coordinate short
    for kernel in (ctx.window_inv, lambda w: ctx.window_root(w, 5)):
        with pytest.raises(ZeroDivisionError):
            kernel((ctx.embed(ctx.zero(), top), ctx.one()))
        for window in ((bad, ctx.one()), (ctx.one(), bad), ()):
            with pytest.raises(ValueError):
                kernel(window)
    unit = FieldElem(top, [0, 1] + [0] * (ctx.abs_degree(top) - 2))  # a unit, but not 1
    with pytest.raises(ValueError):
        ctx.window_root((unit, ctx.one()), 5)
    with pytest.raises(ZeroDivisionError):
        ctx.window_root((ctx.one(), ctx.one()), ctx.ell)


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("name", ["F7", "F2^2^3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_matches_reference(name, data):
    ctx = tower(name)
    s = data.draw(windows(ctx, max_prec=10))
    if data.draw(st.booleans()):
        t = data.draw(windows(ctx, max_prec=10))
    else:
        # cancel a prefix of s: exact negatives, shorter or longer windows
        t = ls.neg(s)
        keep = data.draw(st.integers(1, s.prec))
        extra = data.draw(st.lists(elems(ctx), max_size=3))
        t = ls.LaurentSeries(ctx, t.val, t.coeffs[:keep] + tuple(extra), _checked=True)
    fast, slow = outcome(ls.add, s, t), outcome(ref_add, s, t)
    if PrecisionExhausted in (fast, slow):
        assert fast is slow
    elif slow.is_zero:
        assert fast.is_zero
    else:
        assert same(fast, slow)


def test_unequal_precisions_and_mixed_levels():
    ctx = tower("F2^2^3")
    low = ls.LaurentSeries(ctx, 1, [ctx.one()] * 9)
    mixed = ls.LaurentSeries(
        ctx, -2, [ctx.ensure_zeta(), FieldElem(2, [1, 0, 0, 1, 1, 0]), ctx.one()]
    )
    for s, t in ((low, mixed), (mixed, low)):
        prod = ls.mul(s, t)
        assert same(prod, ref_mul(s, t))
        assert prod.prec == 3 and {c.level for c in prod.coeffs} == {2}
    # a level-0 window stays at level 0
    assert {c.level for c in ls.invert(low).coeffs} == {0}


def test_wide_slots_at_ell_65537():
    ctx = FieldCtx(65537, 2)
    s = ls.series(ctx, 0, [(7919 * k * k + 65536) % 65537 for k in range(128)])
    t = ls.series(ctx, -1, [65536 - k for k in range(128)])
    assert ctx._window_layout(0).slot_width(128) > 4  # slots need more than 32 bits
    assert same(ls.mul(s, t), ref_mul(s, t))
    assert same(ls.invert(s), ref_invert(s))


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_slot_packing_roundtrip(width):
    vals = [(1 << (8 * width)) - 1, 0, 1, 12345 % (1 << (8 * width))]
    packed = cf._slots_to_int(vals, width)
    assert cf._int_to_slots(packed, len(vals), width) == vals


def test_malformed_coefficient_vector_is_rejected():
    ctx = tower("F7^3")
    bad = ls.LaurentSeries(ctx, 0, (FieldElem(1, [1, 2]), ctx.one()), _checked=True)
    with pytest.raises(ValueError):
        ls.mul(bad, bad)
