"""Arithmetic in a dynamically extending tower of finite fields.

The tower starts at the prime field F_ell and grows on demand: asking for
a primitive p-th root of unity, or for a p-th root of an element that is
not a p-th power anywhere in the current tower, appends one extension
step.  Elements remember the tower level they were created at; levels
embed upward, so values created before an extension stay valid.

Representation.  Level 0 elements are residues mod ell.  A step of degree
d over level i-1 turns level-i elements into polynomials of degree < d in
the step generator, with level-(i-1) coefficients; internally this is a
nested tuple, externally a FieldElem exposes the flat coordinate vector
over F_ell (tensor-product basis, lowest index first), whose length is
the absolute degree of the level.

Packed series windows.  ``window_mul`` and ``window_inv`` treat a window
of series coefficients as one Python int (Kronecker substitution; Harvey,
arXiv:0712.4046), so one big-int product replaces the convolution.  The
coordinate of basis monomial x1^e1 ... xL^eL (ei < di, the step degrees)
of the coefficient of z^k goes to slot k*M + sum ei * prod_{j<i} (2dj - 1),
with M = prod (2di - 1); level 0 is M = 1.  Exponent sums stay below
2di - 1, so a product of two monomials lands in the sum of their slots,
distinct exponent sums in distinct slots, and nothing carries into a
neighbouring slot.  A lower level's coordinates are a prefix of its
embedding, so mixed-level windows pack without ``embed``.  A product slot
sums at most n*D products below ell^2 (n the window length, D the absolute
degree), and reducing a slot group back to D coordinates is one more
product, with the packed columns of the table of reduced monomials (column
sums at most S), so slots are sized for n*D*(ell-1)^2*S and never overflow,
whatever ell or n.

Canonical choices.  Roots of unity and p-th roots are picked as the
lexicographically smallest candidate (on flat coordinates) at the minimal
sufficient level, which makes every construction reproducible.

Concurrency: a FieldCtx is append-only.  Tower extension must be
serialized by the caller (single writer); concurrent readers are safe on
a snapshot.  FieldElem values are immutable.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from math import gcd, prod
from operator import attrgetter

from .errors import NotARootOfUnity, ZeroInput


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(q: int, m: int) -> int:
    if gcd(q, m) != 1:
        raise ValueError(f"gcd({q}, {m}) != 1, no multiplicative order")
    k, acc = 1, q % m
    while acc != 1:
        acc = (acc * q) % m
        k += 1
    return k


class FieldElem:
    """Element of the tower at a fixed level.

    ``coeffs`` is the flat F_ell coordinate vector, lowest basis index
    first; its length equals the absolute degree of ``level``.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        self.level = level
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.level == other.level
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def __repr__(self):
        return elem_to_text(self)


def elem_to_text(a: FieldElem) -> str:
    return "L%d:[%s]" % (a.level, ",".join(str(c) for c in a.coeffs))


def elem_from_text(text: str) -> FieldElem:
    text = text.strip()
    if not text.startswith("L") or ":[" not in text or not text.endswith("]"):
        raise ValueError(f"bad field element literal: {text!r}")
    head, body = text[1:-1].split(":[", 1)
    coeffs = tuple(int(c) for c in body.split(",")) if body else ()
    return FieldElem(int(head), coeffs)


# array type codes of the slot widths, in bytes, that pack and unpack in C;
# arrays use the machine's byte order, so only little-endian machines do
_SLOT_CODES = (
    {array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}
)
_SLOT_WIDTHS = sorted(_SLOT_CODES)
_level = attrgetter("level")


def _slot_width(bound: int) -> int:
    """Slot width in bytes for slot values up to ``bound``."""
    need = (bound.bit_length() + 7) // 8
    for width in _SLOT_WIDTHS:
        if need <= width:
            return width
    return need


def _slots_to_int(vals, width: int) -> int:
    """Pack non-negative ints below 2^(8*width) into one int, slot 0 lowest."""
    code = _SLOT_CODES.get(width)
    if code is not None:
        raw = array(code, vals).tobytes()
    else:
        raw = b"".join(v.to_bytes(width, "little") for v in vals)
    return int.from_bytes(raw, "little")


def _int_to_slots(x: int, count: int, width: int, start: int = 0, stride: int = 1) -> list[int]:
    """Slots start, start + stride, ... of the ``count`` lowest slots of
    ``width`` bytes of x (x < 2^(8*width*count))."""
    raw = x.to_bytes(count * width, "little")
    code = _SLOT_CODES.get(width)
    if code is not None:
        return memoryview(raw).cast(code)[start::stride].tolist()
    return [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(start * width, len(raw), stride * width)
    ]


class _WindowLayout:
    """Packed-window slot layout of one tower level (see the module docstring).

    A window is handled as a tuple of FieldElems, as columns (one list of
    reduced ints per flat coordinate, indexed by z-power) or packed into
    one int.  At level 0 (M = 1) slot placement and reduction are the
    identity, and ``pack`` and ``reduce`` skip them.
    """

    __slots__ = (
        "level", "ell", "l0", "dims", "slots", "offsets", "monomials", "term_bound",
        "col_sum", "_table_cols", "_widths", "_reducers",
    )

    def __init__(self, level, dims, offsets, table, ell, l0):
        self.level = level
        self.ell = ell
        self.l0 = l0  # the interned level-0 elements
        self.dims = dims  # absolute degree of every level up to this one
        self.slots = len(table)  # M
        self.offsets = offsets  # slot of each flat coordinate
        self.monomials = tuple(FieldElem(level, row) for row in table)
        # one product coefficient: D products below ell^2 in every slot
        self.term_bound = dims[level] * (ell - 1) ** 2
        # _table_cols[t][m]: coordinate t of the reduced monomial of slot m
        self._table_cols = tuple(zip(*table))
        self.col_sum = max(map(sum, self._table_cols))
        self._widths: dict[int, int] = {}
        self._reducers: dict[int, tuple[int, ...]] = {}

    def slot_width(self, n: int) -> int:
        """Slot width of a product of windows of length n and its reduction."""
        width = self._widths.get(n)
        if width is None:
            width = self._widths[n] = _slot_width(n * self.term_bound * self.col_sum)
        return width

    def reducers(self, width: int) -> tuple[int, ...]:
        """The table columns packed in reverse slot order: the product of a
        slot group with reducer t holds coordinate t of the group's
        reduction in slot M - 1."""
        red = self._reducers.get(width)
        if red is None:
            red = self._reducers[width] = tuple(
                self.reverse_pack(col, width) for col in self._table_cols
            )
        return red

    def reverse_pack(self, col, width: int) -> int:
        bits, top = 8 * width, self.slots - 1
        return sum(c << (bits * (top - m)) for m, c in enumerate(col))

    def columns(self, window) -> list[list[int]]:
        ell = self.ell
        if self.slots == 1:
            return [[c.coeffs[0] % ell for c in window]]
        dim = self.dims[self.level]
        flat = [
            x % ell
            for c in window
            for x in (c.coeffs if len(c.coeffs) == dim else self._padded(c))
        ]
        return [flat[t::dim] for t in range(dim)]

    def _padded(self, c: FieldElem) -> tuple:
        # a lower level's coordinates are a prefix of its embedding
        if len(c.coeffs) != self.dims[c.level]:
            raise ValueError("coefficient vector does not match its level degree")
        return c.coeffs + (0,) * (self.dims[self.level] - len(c.coeffs))

    def pack(self, columns, width: int) -> int:
        step = self.slots
        if step == 1:
            return _slots_to_int(columns[0], width)
        vals = [0] * (len(columns[0]) * step)
        for off, col in zip(self.offsets, columns):
            vals[off::step] = col
        return _slots_to_int(vals, width)

    def reduce(self, packed: int, n: int, width: int) -> list[list[int]]:
        """Reduced columns of the first n slot groups of a packed product."""
        step, ell = self.slots, self.ell
        packed &= (1 << (8 * width * n * step)) - 1
        if step == 1:
            return [[v % ell for v in _int_to_slots(packed, n, width)]]
        # the products with each reducer, side by side in blocks of (n + 1) M slots
        block = (n + 1) * step
        shift = 8 * width * block
        side = 0
        for q in reversed(self.reducers(width)):
            side = (side << shift) | packed * q
        count = len(self.offsets) * block
        red = [v % ell for v in _int_to_slots(side, count, width, step - 1, step)]
        return [red[i : i + n] for i in range(0, count // step, n + 1)]

    def wrap(self, columns) -> tuple[FieldElem, ...]:
        if self.slots == 1:
            l0 = self.l0
            return tuple([l0[x] for x in columns[0]])
        level = self.level
        return tuple([FieldElem(level, c) for c in zip(*columns)])


class _TowerStep:
    """One extension step: a monic irreducible polynomial over the level below."""

    __slots__ = ("degree", "poly", "abs_degree")

    def __init__(self, degree, poly, abs_degree):
        self.degree = degree
        self.poly = poly  # tuple of degree+1 nested coefficients, monic
        self.abs_degree = abs_degree  # absolute degree of the new level


class FieldCtx:
    """A growing tower F_ell < F_ell^d1 < ... with distinguished mu_p and zeta."""

    def __init__(self, ell: int, p: int):
        if not is_prime(ell):
            raise ValueError(f"ell = {ell} is not prime")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if ell == p:
            raise ValueError("the rank p must differ from the characteristic ell")
        self.ell = ell
        self.p = p
        self._steps: list[_TowerStep] = []
        self._unity_cache: dict[int, FieldElem] = {}
        self._sylow_cache: dict[tuple[int, int], tuple] = {}
        self._l0 = tuple(FieldElem(0, (x,)) for x in range(ell))
        self._layouts: dict[int, _WindowLayout] = {}
        self.zeta: FieldElem | None = None

    # ------------------------------------------------------------------
    # tower geometry

    @property
    def levels(self) -> int:
        """Number of levels currently in the tower (level indices 0..levels-1)."""
        return len(self._steps) + 1

    def abs_degree(self, level: int) -> int:
        return 1 if level == 0 else self._steps[level - 1].abs_degree

    def level_size(self, level: int) -> int:
        return self.ell ** self.abs_degree(level)

    def tower_polys(self) -> list[tuple[FieldElem, ...]]:
        """Step polynomials as FieldElem coefficient tuples (low degree first)."""
        out = []
        for i, step in enumerate(self._steps):
            out.append(
                tuple(FieldElem(i, self._flatten(i, c)) for c in step.poly)
            )
        return out

    # ------------------------------------------------------------------
    # nested representation plumbing

    def _nzero(self, level):
        if level == 0:
            return 0
        d = self._steps[level - 1].degree
        below = self._nzero(level - 1)
        return tuple(below for _ in range(d))

    def _none(self, level):
        if level == 0:
            return 1
        d = self._steps[level - 1].degree
        return (self._none(level - 1),) + tuple(
            self._nzero(level - 1) for _ in range(d - 1)
        )

    def _nis_zero(self, level, a):
        if level == 0:
            return a == 0
        return all(self._nis_zero(level - 1, c) for c in a)

    def _nadd(self, level, a, b):
        if level == 0:
            return (a + b) % self.ell
        return tuple(self._nadd(level - 1, x, y) for x, y in zip(a, b))

    def _nneg(self, level, a):
        if level == 0:
            return (-a) % self.ell
        return tuple(self._nneg(level - 1, x) for x in a)

    def _nmul(self, level, a, b):
        if level == 0:
            return a * b % self.ell
        d = self._steps[level - 1].degree
        below = level - 1
        zero = self._nzero(below)
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if self._nis_zero(below, x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = self._nadd(below, prod[i + j], self._nmul(below, x, y))
        # reduce modulo the monic step polynomial
        poly = self._steps[level - 1].poly
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if self._nis_zero(below, c):
                continue
            for j in range(d):
                prod[k - d + j] = self._nadd(
                    below, prod[k - d + j], self._nneg(below, self._nmul(below, c, poly[j]))
                )
            prod[k] = zero
        return tuple(prod[:d])

    def _npow(self, level, a, e: int):
        if level == 0:
            return pow(a, e, self.ell)
        if e < 0:
            return self._npow(level, self._ninv(level, a), -e)
        result = self._none(level)
        base = a
        while e:
            if e & 1:
                result = self._nmul(level, result, base)
            base = self._nmul(level, base, base)
            e >>= 1
        return result

    def _ninv(self, level, a):
        if self._nis_zero(level, a):
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        if level == 0:
            return pow(a, self.ell - 2, self.ell)
        below = level - 1
        # extended Euclid in (level-1)[X] between a (deg < d) and the step poly
        f = list(self._steps[level - 1].poly)
        g = self._ptrim(below, list(a))
        r0, r1 = f, g
        s0, s1 = [self._nzero(below)], [self._none(below)]
        while True:
            if len(r1) == 1:
                c_inv = self._ninv(below, r1[0])
                inv = [self._nmul(below, c_inv, c) for c in s1]
                break
            q, r = self._pdivmod(below, r0, r1)
            r0, r1 = r1, self._ptrim(below, r)
            s0, s1 = s1, self._ptrim(below, self._psub(below, s0, self._pmul(below, q, s1)))
        d = self._steps[level - 1].degree
        inv = inv + [self._nzero(below)] * (d - len(inv))
        return tuple(inv[:d])

    # polynomial helpers over nested level-j coefficients ----------------

    def _ptrim(self, j, f):
        while len(f) > 1 and self._nis_zero(j, f[-1]):
            f.pop()
        return f

    def _padd(self, j, f, g):
        n = max(len(f), len(g))
        z = self._nzero(j)
        return [
            self._nadd(j, f[i] if i < len(f) else z, g[i] if i < len(g) else z)
            for i in range(n)
        ]

    def _psub(self, j, f, g):
        return self._padd(j, f, [self._nneg(j, c) for c in g])

    def _pmul(self, j, f, g):
        z = self._nzero(j)
        out = [z] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if self._nis_zero(j, x):
                continue
            for k, y in enumerate(g):
                out[i + k] = self._nadd(j, out[i + k], self._nmul(j, x, y))
        return out

    def _pdivmod(self, j, f, g):
        g = self._ptrim(j, list(g))
        lead_inv = self._ninv(j, g[-1])
        rem = list(f)
        z = self._nzero(j)
        if len(rem) < len(g):
            return [z], rem
        quo = [z] * (len(rem) - len(g) + 1)
        for k in range(len(rem) - len(g), -1, -1):
            c = self._nmul(j, rem[k + len(g) - 1], lead_inv)
            if self._nis_zero(j, c):
                continue
            quo[k] = c
            for i, gc in enumerate(g):
                rem[k + i] = self._nadd(j, rem[k + i], self._nneg(j, self._nmul(j, c, gc)))
        return quo, self._ptrim(j, rem)

    def _pmod(self, j, f, g):
        return self._pdivmod(j, f, g)[1]

    def _pgcd(self, j, f, g):
        a, b = self._ptrim(j, list(f)), self._ptrim(j, list(g))
        while not (len(b) == 1 and self._nis_zero(j, b[0])):
            a, b = b, self._pmod(j, a, b)
        # make monic
        if not self._nis_zero(j, a[-1]):
            inv = self._ninv(j, a[-1])
            a = [self._nmul(j, inv, c) for c in a]
        return a

    def _ppowmod(self, j, base, e: int, mod):
        result = [self._none(j)]
        b = self._pmod(j, list(base), mod)
        while e:
            if e & 1:
                result = self._pmod(j, self._pmul(j, result, b), mod)
            b = self._pmod(j, self._pmul(j, b, b), mod)
            e >>= 1
        return result

    def poly_is_irreducible(self, level: int, poly) -> bool:
        """Rabin test for a monic polynomial with level-``level`` coefficients.

        Checks X^(q^d) = X mod f together with gcd(X^(q^(d/r)) - X, f) = 1
        for every prime r dividing d.
        """
        f = self._ptrim(level, list(poly))
        d = len(f) - 1
        if d <= 0:
            return False
        if d == 1:
            return True
        q = self.level_size(level)
        x = [self._nzero(level), self._none(level)]
        xq = self._ppowmod(level, x, q**d, f)
        if self._ptrim(level, self._psub(level, xq, x)) != [self._nzero(level)]:
            return False
        for r in prime_factors(d):
            h = self._ppowmod(level, x, q ** (d // r), f)
            h = self._ptrim(level, self._psub(level, h, x))
            g = self._pgcd(level, h, f)
            if len(g) != 1:
                return False
        return True

    # ------------------------------------------------------------------
    # flat <-> nested

    def _unflatten(self, level, flat):
        if level == 0:
            return flat[0] % self.ell
        d = self._steps[level - 1].degree
        sub = self.abs_degree(level - 1)
        return tuple(
            self._unflatten(level - 1, flat[k * sub : (k + 1) * sub]) for k in range(d)
        )

    def _flatten(self, level, nested):
        if level == 0:
            return (nested,)
        out = []
        for c in nested:
            out.extend(self._flatten(level - 1, c))
        return tuple(out)

    def _nested(self, a: FieldElem):
        if len(a.coeffs) != self.abs_degree(a.level):
            raise ValueError("coefficient vector does not match its level degree")
        return self._unflatten(a.level, a.coeffs)

    def _wrap(self, level, nested) -> FieldElem:
        return FieldElem(level, self._flatten(level, nested))

    def _lift_nested(self, from_level, to_level, nested):
        for lvl in range(from_level + 1, to_level + 1):
            d = self._steps[lvl - 1].degree
            nested = (nested,) + tuple(self._nzero(lvl - 1) for _ in range(d - 1))
        return nested

    def _common(self, a: FieldElem, b: FieldElem):
        lvl = max(a.level, b.level)
        na = self._lift_nested(a.level, lvl, self._nested(a))
        nb = self._lift_nested(b.level, lvl, self._nested(b))
        return lvl, na, nb

    # ------------------------------------------------------------------
    # public element arithmetic

    def elem(self, x: int) -> FieldElem:
        return self._l0[x % self.ell]

    def zero(self) -> FieldElem:
        return self._l0[0]

    def one(self) -> FieldElem:
        return self._l0[1]

    def is_zero(self, a: FieldElem) -> bool:
        return all(c == 0 for c in a.coeffs)

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            return self._l0[(a.coeffs[0] + b.coeffs[0]) % self.ell]
        lvl, na, nb = self._common(a, b)
        return self._wrap(lvl, self._nadd(lvl, na, nb))

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def neg(self, a: FieldElem) -> FieldElem:
        if a.level == 0:
            return self._l0[-a.coeffs[0] % self.ell]
        return self._wrap(a.level, self._nneg(a.level, self._nested(a)))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            return self._l0[a.coeffs[0] * b.coeffs[0] % self.ell]
        lvl, na, nb = self._common(a, b)
        return self._wrap(lvl, self._nmul(lvl, na, nb))

    def inv(self, a: FieldElem) -> FieldElem:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        if a.level == 0:
            return self._l0[pow(a.coeffs[0], self.ell - 2, self.ell)]
        return self._wrap(a.level, self._ninv(a.level, self._nested(a)))

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if a.level == 0:
            return self._l0[pow(a.coeffs[0], e, self.ell)]
        return self._wrap(a.level, self._npow(a.level, self._nested(a), e))

    def eq(self, a: FieldElem, b: FieldElem) -> bool:
        if a.level == b.level:
            return a.coeffs == b.coeffs
        lvl, na, nb = self._common(a, b)
        return na == nb

    def embed(self, a: FieldElem, level: int) -> FieldElem:
        if level < a.level:
            raise ValueError("cannot embed downward; use project")
        return self._wrap(level, self._lift_nested(a.level, level, self._nested(a)))

    def project(self, a: FieldElem) -> FieldElem:
        """Equal element at the lowest level that can represent it."""
        lvl = a.level
        nested = self._nested(a)
        while lvl > 0:
            below = lvl - 1
            if all(self._nis_zero(below, c) for c in nested[1:]):
                nested = nested[0]
                lvl = below
            else:
                break
        return self._wrap(lvl, nested)

    def inv_int(self, n: int) -> FieldElem:
        """1/n in F_ell; n must be prime to ell."""
        r = n % self.ell
        if r == 0:
            raise ZeroDivisionError(f"{n} is divisible by the characteristic {self.ell}")
        return FieldElem(0, (pow(r, self.ell - 2, self.ell),))

    # ------------------------------------------------------------------
    # packed series windows

    def window_mul(self, a, b, n: int) -> tuple[FieldElem, ...]:
        """First n coefficients of the product of two coefficient windows.

        The windows are read as polynomials in z, lowest power first.  The
        result is at the highest level of any coefficient of either window.
        """
        lay = self._window_layout(max(max(map(_level, a)), max(map(_level, b))))
        width = lay.slot_width(n)
        packed = lay.pack(lay.columns(a[:n]), width) * lay.pack(lay.columns(b[:n]), width)
        return lay.wrap(lay.reduce(packed, n, width))

    def window_inv(self, a) -> tuple[FieldElem, ...]:
        """First len(a) coefficients of 1/(a[0] + a[1] z + ...), a[0] nonzero.

        Runs the recurrence w_0 = 1/a[0],
        w_k = -w_0 (w_0 a_k + ... + w_{k-1} a_1).  Each sum is read out of
        one running packed product and reduced against the monomial table
        scaled by w_0, which multiplies by w_0 in the same step.  The result
        is at the highest level in ``a``.
        """
        n = len(a)
        lay = self._window_layout(max(map(_level, a)))
        lead_inv = self.inv(a[0])
        # coordinates of lead_inv * x^m for every slot monomial (just 1 at level 0)
        scaled = lay.columns(
            self.window_mul((lead_inv,), lay.monomials, lay.slots) if lay.slots > 1 else (lead_inv,)
        )
        width = _slot_width(n * lay.term_bound * max(map(sum, scaled)))
        bits = 8 * width
        group = bits * lay.slots
        top = bits * (lay.slots - 1)
        group_mask, slot_mask = (1 << group) - 1, (1 << bits) - 1
        ell = self.ell
        out = [col[:1] for col in scaled]  # w_0 = lead_inv
        place = [
            (lay.reverse_pack(col, width), bits * off, dest)
            for col, off, dest in zip(scaled, lay.offsets, out)
        ]
        packed = lay.pack(lay.columns(a), width)
        acc = lay.pack(out, width) * packed >> group  # w_0 a, from z^1 up
        for _ in range(1, n):
            g = acc & group_mask
            wk = 0
            for q, shift, dest in place:
                x = -(g * q >> top & slot_mask) % ell
                dest.append(x)
                wk |= x << shift
            acc = (acc + wk * packed) >> group
        return lay.wrap(out)

    def _window_layout(self, level: int) -> _WindowLayout:
        """The slot layout of a level, built on first use (an idempotent fill,
        so concurrent readers stay safe)."""
        lay = self._layouts.get(level)
        if lay is None:
            degrees = [step.degree for step in self._steps[:level]]
            radices = [2 * d - 1 for d in degrees]
            offsets = []
            for t in range(self.abs_degree(level)):
                slot, scale = 0, 1
                for d, r in zip(degrees, radices):
                    t, e = divmod(t, d)
                    slot += e * scale
                    scale *= r
                offsets.append(slot)
            gens = [
                self._lift_nested(
                    i, level, (self._nzero(i - 1), self._none(i - 1)) + (self._nzero(i - 1),) * (d - 2)
                )
                for i, d in enumerate(degrees, 1)
            ]
            table = []
            for m in range(prod(radices)):
                mono = self._none(level)
                for gen, r in zip(gens, radices):
                    m, e = divmod(m, r)
                    mono = self._nmul(level, mono, self._npow(level, gen, e))
                table.append(self._flatten(level, mono))
            dims = tuple(self.abs_degree(i) for i in range(level + 1))
            lay = _WindowLayout(level, dims, tuple(offsets), table, self.ell, self._l0)
            self._layouts[level] = lay
        return lay

    # ------------------------------------------------------------------
    # enumeration and canonical choices

    def elements(self, level: int):
        """All elements of a level, in lexicographic order on flat coordinates."""
        for flat in itertools.product(range(self.ell), repeat=self.abs_degree(level)):
            yield FieldElem(level, flat)

    def _smallest(self, candidates):
        best = None
        for c in candidates:
            if best is None or c.coeffs < best.coeffs:
                best = c
        return best

    def _has_order(self, level, nested, m: int) -> bool:
        if self._nis_zero(level, nested):
            return False
        if self._npow(level, nested, m) != self._none(level):
            return False
        for r in prime_factors(m):
            if self._npow(level, nested, m // r) == self._none(level):
                return False
        return True

    def _random_irreducible(self, level: int, degree: int):
        """Monic irreducible step polynomial by seeded random trial."""
        rng = random.Random(f"tower:{self.ell}:{self.p}:{level}:{degree}")
        sub = self.abs_degree(level)
        while True:
            flat_coeffs = [
                tuple(rng.randrange(self.ell) for _ in range(sub)) for _ in range(degree)
            ]
            poly = [self._unflatten(level, fc) for fc in flat_coeffs]
            poly.append(self._none(level))
            if self._nis_zero(level, poly[0]):
                continue
            if self.poly_is_irreducible(level, poly):
                return tuple(poly)

    def _append_step(self, poly_nested):
        level = self.levels - 1
        degree = len(poly_nested) - 1
        self._steps.append(
            _TowerStep(degree, tuple(poly_nested), self.abs_degree(level) * degree)
        )
        return self.levels - 1

    def ensure_root_of_unity(self, m: int) -> FieldElem:
        """A cached element of exact multiplicative order m.

        Scans existing levels from the bottom for the first whose group
        order is divisible by m, extending the tower by one step when none
        qualifies; within that level, picks the lexicographically smallest
        element of order m.
        """
        if m == 1:
            return self.one()
        if m in self._unity_cache:
            return self._unity_cache[m]
        if m % self.ell == 0:
            raise ValueError(f"no elements of order {m} in characteristic {self.ell}")
        level = None
        for i in range(self.levels):
            if (self.level_size(i) - 1) % m == 0:
                level = i
                break
        if level is None:
            top = self.levels - 1
            deg = multiplicative_order(self.level_size(top), m)
            poly = self._random_irreducible(top, deg)
            level = self._append_step(poly)
        for cand in self.elements(level):
            if self._has_order(level, self._nested(cand), m):
                self._unity_cache[m] = cand
                return cand
        raise AssertionError("order-m element must exist once m | q - 1")

    def ensure_zeta(self) -> FieldElem:
        """The distinguished primitive p-th root of unity (cached, stable)."""
        if self.zeta is None:
            self.zeta = self.ensure_root_of_unity(self.p)
        return self.zeta

    def log_zeta(self, w: FieldElem) -> int:
        """Discrete logarithm base zeta on mu_p."""
        zeta = self.ensure_zeta()
        if not self.eq(self.pow(w, self.p), self.one()):
            raise NotARootOfUnity(f"{w!r}^{self.p} != 1")
        acc = self.one()
        for c in range(self.p):
            if self.eq(acc, w):
                return c
            acc = self.mul(acc, zeta)
        raise AssertionError("mu_p enumeration cannot miss a p-th root of unity")

    # ------------------------------------------------------------------
    # root extraction

    def _sylow_data(self, level: int, r: int):
        """(eta, gamma, t, s) with q-1 = r^s t, eta of order r^s, gamma of order r."""
        key = (level, r)
        if key in self._sylow_cache:
            return self._sylow_cache[key]
        q = self.level_size(level)
        t, s = q - 1, 0
        while t % r == 0:
            t //= r
            s += 1
        rng = random.Random(f"amm:{self.ell}:{self.p}:{level}:{r}")
        sub = self.abs_degree(level)
        one = self._none(level)
        while True:
            flat = tuple(rng.randrange(self.ell) for _ in range(sub))
            rho = self._unflatten(level, flat)
            if self._nis_zero(level, rho):
                continue
            if self._npow(level, rho, (q - 1) // r) != one:
                eta = self._npow(level, rho, t)
                break
        gamma = self._npow(level, eta, r ** (s - 1))  # order r
        self._sylow_cache[key] = (eta, gamma, t, s)
        return eta, gamma, t, s

    def _prime_root_in_level(self, level: int, nested, r: int):
        """An r-th root of ``nested`` at ``level``; requires r | q-1 and the
        r-th-power test to have passed.  Adleman-Manders-Miller descent."""
        q = self.level_size(level)
        eta, gamma, t, s = self._sylow_data(level, r)
        one = self._none(level)
        # Pohlig-Hellman digits of c with eta^c = a^t
        u = self._npow(level, nested, t)
        c = 0
        for j in range(s):
            w = self._nmul(level, u, self._npow(level, eta, (-c) % (q - 1)))
            w = self._npow(level, w, r ** (s - 1 - j))
            acc = one
            for digit in range(r):
                if acc == w:
                    c += digit * r**j
                    break
                acc = self._nmul(level, acc, gamma)
            else:
                raise AssertionError("Pohlig-Hellman digit search failed")
        if c % r != 0:
            raise AssertionError("element is not an r-th power despite passing the test")
        v = self._npow(level, eta, c // r)
        e1 = pow(r, -1, t) if t > 1 else 0
        mte = (e1 * r - 1) // t
        root = self._nmul(
            level, self._npow(level, nested, e1), self._npow(level, v, (-mte) % (q - 1))
        )
        assert self._npow(level, root, r) == nested
        return root, gamma

    def nth_root(self, a: FieldElem, n: int) -> FieldElem:
        """Canonical n-th root, extending the tower when necessary.

        Factors n into primes and extracts one prime root at a time; each
        prime root is the lexicographically smallest candidate at the
        minimal sufficient level.
        """
        if self.is_zero(a):
            raise ZeroInput("0 has no canonical root here")
        result = a
        for r in prime_factors(n):
            k = n
            count = 0
            while k % r == 0:
                k //= r
                count += 1
            for _ in range(count):
                result = self._prime_root(result, r)
        return result

    def pth_root(self, a: FieldElem) -> FieldElem:
        """Canonical p-th root of a nonzero element (p = ctx.p)."""
        if self.is_zero(a):
            raise ZeroInput("0 has no canonical p-th root")
        return self._prime_root(a, self.p)

    def _prime_root(self, a: FieldElem, r: int):
        if r % self.ell == 0:
            raise ValueError("root order divisible by the characteristic")
        for level in range(a.level, self.levels):
            q = self.level_size(level)
            nested = self._lift_nested(a.level, level, self._nested(a))
            if (q - 1) % r != 0:
                # x -> x^r is a bijection; the unique root is a^(r^-1 mod q-1)
                return self._wrap(level, self._npow(level, nested, pow(r, -1, q - 1)))
            if self._npow(level, nested, (q - 1) // r) == self._none(level):
                root, gamma = self._prime_root_in_level(level, nested, r)
                cands = []
                w = self._none(level)
                for _ in range(r):
                    cands.append(self._wrap(level, self._nmul(level, root, w)))
                    w = self._nmul(level, w, gamma)
                return self._smallest(cands)
        # not an r-th power anywhere in the tower: X^r - a is irreducible
        # over the top level (r prime), so one degree-r step suffices
        top = self.levels - 1
        a_top = self._lift_nested(a.level, top, self._nested(a))
        poly = [self._nneg(top, a_top)]
        poly.extend(self._nzero(top) for _ in range(r - 1))
        poly.append(self._none(top))
        new_level = self._append_step(tuple(poly))
        gen = (self._nzero(top), self._none(top)) + tuple(
            self._nzero(top) for _ in range(r - 2)
        )
        w_top = self._sylow_data(top, r)[1]  # an element of order r
        w = self._lift_nested(top, new_level, w_top)
        cands = []
        acc = self._none(new_level)
        for _ in range(r):
            cands.append(self._wrap(new_level, self._nmul(new_level, gen, acc)))
            acc = self._nmul(new_level, acc, w)
        return self._smallest(cands)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "p": self.p,
            "tower": [
                [elem_to_text(c) for c in poly] for poly in self.tower_polys()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FieldCtx":
        ctx = cls(data["ell"], data["p"])
        for i, poly_texts in enumerate(data["tower"]):
            coeffs = [elem_from_text(t) for t in poly_texts]
            nested = [ctx._nested(c) for c in coeffs]
            if not ctx.poly_is_irreducible(i, nested):
                raise ValueError(f"tower step {i} is not irreducible")
            ctx._append_step(tuple(nested))
        return ctx
