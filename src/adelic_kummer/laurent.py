"""Truncated Laurent series over the coefficient tower.

A LaurentSeries is a window of known coefficients: ``val`` is the exponent
of the leading term, ``coeffs`` holds ``prec`` consecutive coefficients
starting there, and all coefficients below ``val`` are exactly zero.  The
leading coefficient is nonzero; the exact zero series is a distinct object
(val is None, empty window) rather than a zero-filled window, so valuation
stays total on nonzero elements.

Arithmetic is exact on every retained coefficient and carries the minimum
of the operand precisions, adjusted by cancellation: when an addition
cancels leading terms the window renormalizes, and when it cancels the
whole known range without the operands being exact negatives (identical
windows), PrecisionExhausted is raised instead of fabricating a valuation.

Products and inverses go through one packed window kernel at every tower
level, ``FieldCtx.window_mul`` and ``FieldCtx.window_inv``; their result
coefficients sit at the highest level among the operand coefficients.
Hensel roots go through ``FieldCtx.window_root``, the division-free Newton
iteration for v^(-1/p) on the same packed windows.  Its coefficient levels
are those of the series Newton iteration w <- w - (w^p - v) / (p w^(p-1))
with precision doubling: w_0 is at level 0, and in each window [h, k) the
coefficients before the first nonzero one f are level-0 zeros while
w_f..w_{k-1} sit at the highest level of w_0..w_{h-1} and v_f..v_{k-1}.

All operations are pure given a FieldCtx snapshot; the single-writer rule
of coeff_field applies when a root extraction extends the tower.
"""

from __future__ import annotations

from .coeff_field import FieldCtx, FieldElem, elem_to_text, prime_factors
from .errors import (
    NotAUnit,
    PrecisionExhausted,
    ZeroInverse,
    ZeroValuation,
)

DEFAULT_PREC = 32


class LaurentSeries:
    __slots__ = ("ctx", "val", "coeffs", "prec")

    def __init__(self, ctx: FieldCtx, val, coeffs, _checked=False):
        self.ctx = ctx
        if val is None:
            self.val = None
            self.coeffs = ()
            self.prec = 0
            return
        if not _checked:  # internal callers pass a tuple of FieldElems
            coeffs = tuple(
                c if isinstance(c, FieldElem) else ctx.elem(c) for c in coeffs
            )
            if not coeffs:
                raise ValueError("empty window; use zero() for the exact zero series")
            if ctx.is_zero(coeffs[0]):
                raise ValueError("leading coefficient must be nonzero")
        self.val = val
        self.coeffs = coeffs
        self.prec = len(coeffs)

    # ------------------------------------------------------------------
    # constructors

    @property
    def is_zero(self) -> bool:
        return self.val is None

    @property
    def end(self) -> int:
        """First exponent beyond the known window."""
        return self.val + self.prec

    def coeff_at(self, exponent: int) -> FieldElem:
        """Coefficient at an exponent inside the known range (exact zero below val)."""
        if self.is_zero or exponent < self.val:
            return self.ctx.zero()
        if exponent >= self.end:
            raise IndexError(f"coefficient z^{exponent} beyond known precision")
        return self.coeffs[exponent - self.val]

    def leading(self) -> FieldElem:
        if self.is_zero:
            raise ZeroValuation("exact zero has no leading coefficient")
        return self.coeffs[0]

    def valuation(self) -> int:
        if self.is_zero:
            raise ZeroValuation("exact zero has no valuation")
        return self.val


def zero(ctx: FieldCtx) -> LaurentSeries:
    return LaurentSeries(ctx, None, ())


def series(ctx: FieldCtx, val: int, coeffs, prec: int | None = None) -> LaurentSeries:
    """Build a series from a coefficient window, renormalizing leading zeros.

    ``coeffs`` may mix ints and FieldElems; with ``prec`` set, the window is
    zero-padded (the input is taken as exact) or truncated to that length.
    """
    elems = [c if isinstance(c, FieldElem) else ctx.elem(c) for c in coeffs]
    if prec is not None:
        if len(elems) < prec:
            elems.extend(ctx.zero() for _ in range(prec - len(elems)))
        else:
            elems = elems[:prec]
    k = 0
    while k < len(elems) and ctx.is_zero(elems[k]):
        k += 1
    if k == len(elems):
        return zero(ctx)
    return LaurentSeries(ctx, val + k, tuple(elems[k:]), _checked=True)


def one(ctx: FieldCtx, prec: int = DEFAULT_PREC) -> LaurentSeries:
    return constant(ctx, ctx.one(), prec)


def constant(ctx: FieldCtx, c, prec: int = DEFAULT_PREC) -> LaurentSeries:
    if not isinstance(c, FieldElem):
        c = ctx.elem(c)
    if ctx.is_zero(c):
        return zero(ctx)
    return LaurentSeries(ctx, 0, (c,) + (ctx.zero(),) * (prec - 1), _checked=True)


def uniformizer(ctx: FieldCtx, prec: int = DEFAULT_PREC) -> LaurentSeries:
    """The local parameter z."""
    return LaurentSeries(ctx, 1, (ctx.one(),) + (ctx.zero(),) * (prec - 1), _checked=True)


# ----------------------------------------------------------------------
# ring operations


def valuation(s: LaurentSeries) -> int:
    return s.valuation()


def add(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    if s.is_zero:
        return t
    if t.is_zero:
        return s
    ctx = s.ctx
    lo, end = min(s.val, t.val), min(s.end, t.end)
    first, second = (s, t) if s.val <= t.val else (t, s)
    # below second.val only the first window contributes
    split = min(second.val, end) - lo
    out = list(first.coeffs[:split])
    out += map(ctx.add, first.coeffs[split : end - lo], second.coeffs[: end - lo - split])
    k = 0
    while k < len(out) and ctx.is_zero(out[k]):
        k += 1
    if k == len(out):
        if s.val == t.val and s.end == t.end:
            return zero(ctx)
        raise PrecisionExhausted(
            "sum cancels on the whole known window of mismatched precision"
        )
    return LaurentSeries(ctx, lo + k, tuple(out[k:]), _checked=True)


def neg(s: LaurentSeries) -> LaurentSeries:
    if s.is_zero:
        return s
    return LaurentSeries(s.ctx, s.val, tuple(map(s.ctx.neg, s.coeffs)), _checked=True)


def sub(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    return add(s, neg(t))


def mul(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    if s.is_zero or t.is_zero:
        return zero(s.ctx)
    ctx = s.ctx
    coeffs = ctx.window_mul(s.coeffs, t.coeffs, min(s.prec, t.prec))
    # leading product of nonzero field elements is nonzero
    return LaurentSeries(ctx, s.val + t.val, coeffs, _checked=True)


def scale(s: LaurentSeries, c: FieldElem) -> LaurentSeries:
    """Multiply by a coefficient-field constant."""
    ctx = s.ctx
    if s.is_zero or ctx.is_zero(c):
        return zero(ctx)
    return LaurentSeries(
        ctx, s.val, tuple(ctx.mul(c, a) for a in s.coeffs), _checked=True
    )


def shift(s: LaurentSeries, k: int) -> LaurentSeries:
    """Multiply by z^k."""
    if s.is_zero:
        return s
    return LaurentSeries(s.ctx, s.val + k, s.coeffs, _checked=True)


def invert(s: LaurentSeries) -> LaurentSeries:
    if s.is_zero:
        raise ZeroInverse("exact zero has no inverse")
    return LaurentSeries(s.ctx, -s.val, s.ctx.window_inv(s.coeffs), _checked=True)


def power(s: LaurentSeries, n: int) -> LaurentSeries:
    if n < 0:
        return power(invert(s), -n)
    if s.is_zero:
        if n == 0:
            raise ValueError("0^0 over a series ring")
        return s
    result = one(s.ctx, s.prec)
    base = s
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def divide(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    return mul(s, invert(t))


def truncate(s: LaurentSeries, prec: int) -> LaurentSeries:
    if s.is_zero or prec >= s.prec:
        return s
    if prec <= 0:
        raise ValueError("precision must be positive")
    return LaurentSeries(s.ctx, s.val, s.coeffs[:prec], _checked=True)


def matches(s: LaurentSeries, t: LaurentSeries) -> bool:
    """Agreement on the common known window (exact zero only equals itself)."""
    if s.is_zero or t.is_zero:
        return s.is_zero and t.is_zero
    if s.val != t.val:
        return False
    ctx = s.ctx
    return all(
        ctx.eq(a, b) for a, b in zip(s.coeffs, t.coeffs)
    )


# ----------------------------------------------------------------------
# roots


def hensel_pth_root(u: LaurentSeries, p: int | None = None) -> LaurentSeries:
    """The p-th root of a unit: tower root r0 of the leading coefficient
    times the root of the 1 + m part with constant term 1, lifted by the
    packed Newton kernel ``FieldCtx.window_root`` (p is prime to the
    characteristic, so convergence is quadratic)."""
    if u.is_zero or u.val != 0:
        raise NotAUnit("p-th root by Hensel lifting needs valuation 0")
    ctx = u.ctx
    if p is None:
        p = ctx.p
    lead = u.coeffs[0]
    r0 = ctx.nth_root(lead, p)
    v = scale(u, ctx.inv(lead))  # 1 + m
    w = LaurentSeries(ctx, 0, ctx.window_root(v.coeffs, p), _checked=True)
    return scale(w, r0)


def nth_root_series(s: LaurentSeries, n: int | None = None) -> LaurentSeries:
    """Root of z^val * unit with val divisible by n (default ctx.p): exact
    division of the exponent, then one Hensel root of the unit for each
    prime factor of n, counted with multiplicity."""
    if s.is_zero:
        raise ZeroInverse("exact zero has no root with a valuation")
    if n is None:
        n = s.ctx.p
    if s.val % n != 0:
        raise NotAUnit(f"valuation {s.val} is not divisible by {n}")
    root = LaurentSeries(s.ctx, 0, s.coeffs, _checked=True)
    k = n
    for r in prime_factors(n):
        while k % r == 0:
            root = hensel_pth_root(root, r)
            k //= r
    return shift(root, s.val // n)


# ----------------------------------------------------------------------
# text and JSON forms


def to_json(s: LaurentSeries) -> dict:
    if s.is_zero:
        return {"val": None, "coeffs": [], "prec": 0}
    return {
        "val": s.val,
        "coeffs": [elem_to_text(c) for c in s.coeffs],
        "prec": s.prec,
    }


def from_json(ctx: FieldCtx, data: dict) -> LaurentSeries:
    if data["val"] is None:
        return zero(ctx)
    coeffs = [ctx.elem_from_text(t) for t in data["coeffs"]]
    if len(coeffs) != data["prec"]:
        raise ValueError("prec does not match the coefficient window")
    return series(ctx, data["val"], coeffs)


def to_text(s: LaurentSeries) -> str:
    """Text sugar, e.g. "z^-2*(3 + 1*z)"; coefficient levels > 0 use L-literals."""
    if s.is_zero:
        return "0"
    ctx = s.ctx
    terms = []
    for i, c in enumerate(s.coeffs):
        if ctx.is_zero(c):
            continue
        c_txt = str(c.coeffs[0]) if c.level == 0 else elem_to_text(c)
        if i == 0:
            terms.append(c_txt)
        elif i == 1:
            terms.append(f"{c_txt}*z")
        else:
            terms.append(f"{c_txt}*z^{i}")
    body = " + ".join(terms)
    if s.val == 0:
        return f"({body})" if len(terms) > 1 else body
    return f"z^{s.val}*({body})"


def from_text(ctx: FieldCtx, text: str, prec: int = DEFAULT_PREC) -> LaurentSeries:
    """Parse the text sugar; the written terms are taken exact to ``prec``."""
    text = text.strip()
    if text == "0":
        return zero(ctx)
    val = 0
    if text.startswith("z"):
        head, _, rest = text.partition("*")
        if rest:
            val = _parse_zexp(head)
            text = rest.strip()
        else:
            return series(ctx, _parse_zexp(text), [ctx.one()], prec=prec)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    window: dict[int, FieldElem] = {}
    # split only on term separators, so exponent signs as in z^-1 survive
    normalized = text.replace(" - ", " + -")
    for piece in normalized.split("+"):
        piece = piece.strip()
        if not piece:
            continue
        negate = piece.startswith("-")
        if negate:
            piece = piece[1:].strip()
        if "*" in piece:
            c_txt, _, mono = piece.partition("*")
            coeff = _parse_coeff(ctx, c_txt.strip())
            k = _parse_zexp(mono.strip())
        elif piece.startswith("z"):
            coeff, k = ctx.one(), _parse_zexp(piece)
        else:
            coeff, k = _parse_coeff(ctx, piece), 0
        if negate:
            coeff = ctx.neg(coeff)
        window[k] = ctx.add(window.get(k, ctx.zero()), coeff)
    if not window:
        raise ValueError(f"empty series literal: {text!r}")
    lo = min(window)
    coeffs = [window.get(k, ctx.zero()) for k in range(lo, lo + prec)]
    return series(ctx, val + lo, coeffs, prec=prec)


def _parse_zexp(token: str) -> int:
    if token == "z":
        return 1
    if token.startswith("z^"):
        return int(token[2:])
    raise ValueError(f"bad z-monomial: {token!r}")


def _parse_coeff(ctx: FieldCtx, token: str) -> FieldElem:
    if token.startswith("L"):
        return ctx.elem_from_text(token)
    return ctx.elem(int(token))
