"""Arithmetic in a dynamically extending tower of finite fields.

The tower starts at the prime field F_ell and grows on demand: asking for
a primitive p-th root of unity, or for a p-th root of an element that is
not a p-th power anywhere in the current tower, appends one extension
step.  Elements remember the tower level they were created at; levels
embed upward, so values created before an extension stay valid.

Representation.  An element is its flat coordinate vector over F_ell,
lowest index first, whose length is the absolute degree D of its level;
the coordinate of basis monomial x1^e1 ... xL^eL (xi the generator of
step i, ei < di, the step degrees) has index e1 + d1 (e2 + d2 (...)).  A
lower level's coordinates are a prefix of its embedding, so mixed-level
operands are zero-padded prefixes.  Inside the kernel a level-0 element is
a bare int and a higher one a tuple of reduced coordinates.

One packed layout per level serves single elements and series windows.
Coordinate t goes to slot sum ei * prod_{j<i} (2dj - 1) of
M = prod (2di - 1) slots, and in a window of series coefficients the
coefficient of z^k is shifted by k*M slots (Kronecker substitution;
Harvey, arXiv:0712.4046).  Exponent sums stay below 2di - 1, so one
big-int product puts the product of two monomials in the sum of their
slots, and nothing carries into a neighbouring slot.  Column t of the
level's table of reduced monomials, packed in reverse slot order, times a
slot group holds coordinate t of the group's reduction in slot M - 1: a
field product is one big-int product and D such reducer products, and an
inverse solves the D x D multiplication matrix read by the same reducers.
Level L's table comes from level L-1's products and the step polynomial.
A product slot sums at most n*D products below ell^2 (n = 1 for an
element, the window length for a window), and a reduced slot at most S
times that (S the largest column sum of the table), so slots are sized
for n*D*(ell-1)^2*S and never overflow, whatever ell or n.

Series windows have three kernels on this layout: ``window_mul``,
``window_inv`` and ``window_root``.  The root kernel runs the
division-free Newton iteration y <- y + y (1 - v y^p) / p for
y = v^(-1/p) (Brent and Kung) on packed windows, then takes
w = v y^(p-1); its coefficient levels follow the series Newton iteration
it replaced (see ``window_root``), so root literals keep their levels.

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
from math import gcd
from operator import attrgetter, lshift

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
_coeffs = attrgetter("coeffs")


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


def _reverse_pack(col, bits: int) -> int:
    """Pack ``col`` into slots of ``bits`` bits, its first entry highest."""
    top = len(col) - 1
    return sum(c << (bits * (top - m)) for m, c in enumerate(col))


class _WindowLayout:
    """Slot layout and arithmetic kernel of one tower level above 0 (see
    the module docstring).

    The kernel's element values are tuples of D reduced coordinates.  A
    window is handled as a tuple of FieldElems, as columns (one list of
    reduced ints per flat coordinate, indexed by z-power) or packed into
    one int.
    """

    __slots__ = (
        "level", "ell", "l0", "dims", "size", "zero", "one", "slots", "offsets", "table",
        "monomials", "term_bound", "col_sum", "_table_cols", "_widths", "_reducers",
        "_shifts", "_top", "_mask", "_red", "_red_shifts", "_row_shifts",
    )

    def __init__(self, level, dims, offsets, table, ell, l0):
        self.level = level
        self.ell = ell
        self.l0 = l0  # the interned level-0 elements
        self.dims = dims  # absolute degree of every level up to this one
        dim = dims[level]
        self.size = ell**dim
        self.zero = (0,) * dim
        self.one = (1,) + (0,) * (dim - 1)
        self.slots = len(table)  # M
        self.offsets = offsets  # slot of each flat coordinate
        self.table = table  # coordinates of the reduced monomial of every slot
        self.monomials = tuple(FieldElem(level, row) for row in table)
        # one product coefficient: D products below ell^2 in every slot
        self.term_bound = dim * (ell - 1) ** 2
        # _table_cols[t][m]: coordinate t of the reduced monomial of slot m
        self._table_cols = tuple(zip(*table))
        self.col_sum = max(map(sum, self._table_cols))
        self._widths: dict[int, int] = {}
        self._reducers: dict[int, tuple[int, ...]] = {}
        # element slots of ``bits`` bits; packed 1 is the int 1 (offsets[0] = 0)
        bits = (self.term_bound * self.col_sum).bit_length()
        self._shifts = tuple(bits * off for off in offsets)
        self._top = bits * (self.slots - 1)
        self._mask = (1 << bits) - 1
        self._red = tuple(_reverse_pack(col, bits) for col in self._table_cols)
        self._red_shifts = tuple(zip(self._red, self._shifts))
        self._row_shifts = tuple(self._top - s for s in self._shifts)

    # -- elements ------------------------------------------------------

    def value(self, a: FieldElem):
        """The kernel value of a FieldElem at this level or below."""
        c = a.coeffs
        if len(c) != self.dims[a.level]:
            raise ValueError("coefficient vector does not match its level degree")
        if min(c) < 0 or max(c) >= self.ell:
            c = tuple([x % self.ell for x in c])
        return c if a.level == self.level else self.lift(c)

    def lift(self, coords):
        """The kernel value of reduced coordinates from this level or below."""
        return tuple(coords) + (0,) * (len(self.zero) - len(coords))

    def coords(self, x) -> tuple:
        return x

    def elem(self, x) -> FieldElem:
        return FieldElem(self.level, x)

    def add(self, x, y):
        ell = self.ell
        return tuple([(a + b) % ell for a, b in zip(x, y)])

    def neg(self, x):
        ell = self.ell
        return tuple([-a % ell for a in x])

    def scale(self, x, s: int):
        ell = self.ell
        return tuple([a * s % ell for a in x])

    def encode(self, x) -> int:
        return sum(map(lshift, x, self._shifts))

    def decode(self, product: int) -> tuple:
        """The reduced coordinates of a product of two encoded values."""
        top, mask, ell = self._top, self._mask, self.ell
        return tuple([(product * q >> top & mask) % ell for q in self._red])

    def _mul_encoded(self, x: int, y: int) -> int:
        product = x * y
        top, mask, ell = self._top, self._mask, self.ell
        return sum([(product * q >> top & mask) % ell << s for q, s in self._red_shifts])

    def mul(self, x, y):
        return self.decode(self.encode(x) * self.encode(y))

    def pow(self, x, e: int):
        """Square-and-multiply on encoded values."""
        if e < 0:
            x, e = self.inv(x), -e
        base, acc = self.encode(x), 1
        while e:
            if e & 1:
                acc = self._mul_encoded(acc, base)
            e >>= 1
            if e:
                base = self._mul_encoded(base, base)
        mask = self._mask
        return tuple([acc >> s & mask for s in self._shifts])

    def inv(self, x):
        """Solve x * y = 1 over F_ell.  Column j of the multiplication
        matrix of x reduces x times basis monomial j, whose encoding is x's
        shifted by that monomial's slot, so row t of the matrix is read
        from one product of x with reducer t."""
        packed = self.encode(x)
        if not packed:
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        mask, ell = self._mask, self.ell
        dim = len(self._shifts)
        rows = []
        for q in self._red:
            product = packed * q
            rows.append([(product >> s & mask) % ell for s in self._row_shifts] + [0])
        rows[0][-1] = 1
        # Gauss-Jordan elimination; a nonzero x has an invertible matrix
        for c in range(dim):
            r = c
            while not rows[r][c]:
                r += 1
            pivot = rows[r]
            rows[r] = rows[c]
            scale = pow(pivot[c], ell - 2, ell)
            pivot = rows[c] = [v * scale % ell for v in pivot]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != c:
                    rows[i] = [(v - f * w) % ell for v, w in zip(row, pivot)]
        return tuple([row[dim] for row in rows])

    # -- windows -------------------------------------------------------

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
                _reverse_pack(col, 8 * width) for col in self._table_cols
            )
        return red

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
        return self.lift(c.coeffs)

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


class _PrimeLayout(_WindowLayout):
    """Level 0, where kernel values are bare ints with builtin ``pow``."""

    __slots__ = ()

    def __init__(self, ell, l0):
        super().__init__(0, (1,), (0,), ((1,),), ell, l0)
        self.zero, self.one = 0, 1

    def value(self, a: FieldElem) -> int:
        if len(a.coeffs) != 1:
            raise ValueError("coefficient vector does not match its level degree")
        return a.coeffs[0] % self.ell

    def lift(self, coords) -> int:
        return coords[0]

    def coords(self, x) -> tuple:
        return (x,)

    def elem(self, x) -> FieldElem:
        return self.l0[x]

    def add(self, x, y):
        return (x + y) % self.ell

    def neg(self, x):
        return -x % self.ell

    def mul(self, x, y):
        return x * y % self.ell

    def pow(self, x, e: int):
        if e < 0 and not x % self.ell:
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        return pow(x, e, self.ell)

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        return pow(x, self.ell - 2, self.ell)


def _next_layout(below: _WindowLayout, poly) -> _WindowLayout:
    """The layout of the level above ``below``, whose step polynomial
    ``poly`` is monic with coefficients that are kernel values of ``below``.

    The monomial of slot m + M' e (M' the slots of ``below``) is the
    monomial of slot m below times x^e, x the new generator; x^e reduced by
    ``poly`` has d coefficients from ``below``, and each times the lower
    monomial is one product below.
    """
    d = len(poly) - 1
    zero = below.zero
    x_power = [below.one] + [zero] * (d - 1)
    powers = []
    for _ in range(2 * d - 1):
        powers.append(x_power)
        lead = x_power[-1]
        x_power = [zero] + x_power[:-1]
        if lead != zero:
            x_power = [below.add(a, below.neg(below.mul(lead, c))) for a, c in zip(x_power, poly)]
    lower = [below.lift(row) for row in below.table]
    table = tuple(
        tuple(t for c in power for t in below.coords(below.mul(mono, c)))
        for power in powers
        for mono in lower
    )
    offsets = tuple(off + below.slots * e for e in range(d) for off in below.offsets)
    dims = below.dims + (below.dims[-1] * d,)
    return _WindowLayout(below.level + 1, dims, offsets, table, below.ell, below.l0)


# polynomials in X over one level, as lists of that level's kernel values,
# lowest degree first ---------------------------------------------------


def _ptrim(K, f):
    while len(f) > 1 and f[-1] == K.zero:
        f.pop()
    return f


def _psub(K, f, g):
    z = K.zero
    return [
        K.add(f[i] if i < len(f) else z, K.neg(g[i]) if i < len(g) else z)
        for i in range(max(len(f), len(g)))
    ]


def _pmul(K, f, g):
    z = K.zero
    out = [z] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == z:
            continue
        for k, y in enumerate(g):
            out[i + k] = K.add(out[i + k], K.mul(x, y))
    return out


def _pmod(K, f, g):
    g = _ptrim(K, list(g))
    lead_inv = K.inv(g[-1])
    rem = list(f)
    for k in range(len(rem) - len(g), -1, -1):
        c = K.mul(rem[k + len(g) - 1], lead_inv)
        if c == K.zero:
            continue
        for i, gc in enumerate(g):
            rem[k + i] = K.add(rem[k + i], K.neg(K.mul(c, gc)))
    return _ptrim(K, rem)


def _pgcd(K, f, g):
    a, b = _ptrim(K, list(f)), _ptrim(K, list(g))
    while not (len(b) == 1 and b[0] == K.zero):
        a, b = b, _pmod(K, a, b)
    return a


def _ppowmod(K, base, e: int, mod):
    result = [K.one]
    b = _pmod(K, list(base), mod)
    while e:
        if e & 1:
            result = _pmod(K, _pmul(K, result, b), mod)
        b = _pmod(K, _pmul(K, b, b), mod)
        e >>= 1
    return result


def _is_irreducible(K, poly) -> bool:
    """Rabin test: X^(q^d) = X mod f together with gcd(X^(q^(d/r)) - X, f)
    = 1 for every prime r dividing d."""
    f = _ptrim(K, list(poly))
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    q = K.size
    x = [K.zero, K.one]
    if _ptrim(K, _psub(K, _ppowmod(K, x, q**d, f), x)) != [K.zero]:
        return False
    for r in prime_factors(d):
        h = _ptrim(K, _psub(K, _ppowmod(K, x, q ** (d // r), f), x))
        if len(_pgcd(K, h, f)) != 1:
            return False
    return True


def _has_order(K, x, m: int) -> bool:
    if K.pow(x, m) != K.one:
        return False
    return all(K.pow(x, m // r) != K.one for r in prime_factors(m))


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
        # step polynomials, monic, as flat coordinate tuples of the level below
        self._steps: list[tuple[tuple[int, ...], ...]] = []
        self._unity_cache: dict[int, FieldElem] = {}
        self._sylow_cache: dict[tuple[int, int], tuple] = {}
        self._l0 = tuple(FieldElem(0, (x,)) for x in range(ell))
        self._layouts: list[_WindowLayout] = [_PrimeLayout(ell, self._l0)]
        self.zeta: FieldElem | None = None

    # ------------------------------------------------------------------
    # tower geometry

    @property
    def levels(self) -> int:
        """Number of levels currently in the tower (level indices 0..levels-1)."""
        return len(self._steps) + 1

    def abs_degree(self, level: int) -> int:
        return self._layouts[level].dims[level]

    def level_size(self, level: int) -> int:
        return self.ell ** self.abs_degree(level)

    def tower_polys(self) -> list[tuple[FieldElem, ...]]:
        """Step polynomials as FieldElem coefficient tuples (low degree first)."""
        return [
            tuple(FieldElem(i, c) for c in poly) for i, poly in enumerate(self._steps)
        ]

    def poly_is_irreducible(self, level: int, poly) -> bool:
        """Rabin test for a monic polynomial whose FieldElem coefficients lie
        at ``level`` or below.

        Checks X^(q^d) = X mod f together with gcd(X^(q^(d/r)) - X, f) = 1
        for every prime r dividing d.
        """
        lay = self._layouts[level]
        return _is_irreducible(lay, [lay.value(c) for c in poly])

    # ------------------------------------------------------------------
    # public element arithmetic

    def elem(self, x: int) -> FieldElem:
        return self._l0[x % self.ell]

    def zero(self) -> FieldElem:
        return self._l0[0]

    def one(self) -> FieldElem:
        return self._l0[1]

    def elem_from_text(self, text: str) -> FieldElem:
        """Parse an ``L<k>:[...]`` literal that names a level of this tower
        and carries that level's number of coordinates, each in [0, ell)."""
        a = elem_from_text(text)
        dims = self._layouts[-1].dims
        if not (0 <= a.level < len(dims) and len(a.coeffs) == dims[a.level]):
            raise ValueError(f"{text.strip()!r} is not in the tower of absolute degrees {list(dims)}")
        if not all(0 <= c < self.ell for c in a.coeffs):
            raise ValueError(f"{text.strip()!r} has a coordinate outside [0, {self.ell})")
        return a

    def is_zero(self, a: FieldElem) -> bool:
        return all(c == 0 for c in a.coeffs)

    def _operands(self, a: FieldElem, b: FieldElem):
        lay = self._layouts[max(a.level, b.level)]
        return lay, lay.value(a), lay.value(b)

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            return self._l0[(a.coeffs[0] + b.coeffs[0]) % self.ell]
        lay, x, y = self._operands(a, b)
        return lay.elem(lay.add(x, y))

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def neg(self, a: FieldElem) -> FieldElem:
        if a.level == 0:
            return self._l0[-a.coeffs[0] % self.ell]
        lay = self._layouts[a.level]
        return lay.elem(lay.neg(lay.value(a)))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            return self._l0[a.coeffs[0] * b.coeffs[0] % self.ell]
        if a.level == 0 or b.level == 0:
            # an F_ell scalar times the coordinates of the other operand
            scalar, a = (a, b) if a.level == 0 else (b, a)
            lay = self._layouts[a.level]
            return lay.elem(lay.scale(lay.value(a), self._layouts[0].value(scalar)))
        lay, x, y = self._operands(a, b)
        return lay.elem(lay.mul(x, y))

    def inv(self, a: FieldElem) -> FieldElem:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in the coefficient tower")
        if a.level == 0:
            return self._l0[pow(a.coeffs[0], self.ell - 2, self.ell)]
        lay = self._layouts[a.level]
        return lay.elem(lay.inv(lay.value(a)))

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if a.level == 0:
            return self._l0[self._layouts[0].pow(a.coeffs[0], e)]
        lay = self._layouts[a.level]
        return lay.elem(lay.pow(lay.value(a), e))

    def eq(self, a: FieldElem, b: FieldElem) -> bool:
        """Equality of values: coordinates are read mod ell, as by every
        arithmetic op, and a lower level embeds as a zero-padded prefix."""
        if a.level == b.level and a.coeffs == b.coeffs:
            return True
        _, x, y = self._operands(a, b)
        return x == y

    def embed(self, a: FieldElem, level: int) -> FieldElem:
        if level < a.level:
            raise ValueError("cannot embed downward; use project")
        lay = self._layouts[level]
        return lay.elem(lay.value(a))

    def project(self, a: FieldElem) -> FieldElem:
        """Equal element at the lowest level that can represent it."""
        lay = self._layouts[a.level]
        flat = lay.coords(lay.value(a))
        lvl = a.level
        while lvl > 0 and not any(flat[lay.dims[lvl - 1] :]):
            lvl -= 1
        low = self._layouts[lvl]
        return low.elem(low.lift(flat[: lay.dims[lvl]]))

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
        lay = self._layouts[max(max(map(_level, a)), max(map(_level, b)))]
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
        lay = self._layouts[max(map(_level, a))]
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
            (_reverse_pack(col, bits), bits * off, dest)
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

    def window_root(self, v, p: int) -> tuple[FieldElem, ...]:
        """First len(v) coefficients of the p-th root w of 1 + v[1] z + ...
        with w_0 = 1; v[0] must be 1 and p prime to ell.

        Runs the division-free Newton iteration y <- y + y (1 - v y^p) / p
        for y = v^(-1/p) (Brent and Kung, JACM 1978), doubling the known
        precision h -> k each step, then takes w = v y^(p-1).  Values are
        packed at the highest level in ``v``.  y has no terms in [h, k), so
        there the correction is -v y^(p+1) / p: a step reads its k - h new
        coefficients out of one packed product with -v/p, packed once, and
        appends them to y.

        The result reproduces the levels of the Newton iteration
        w <- w - (w^p - v) / (p w^(p-1)) on series: w_0 is at level 0, and
        in each window [h, k) the coefficients before the first nonzero one
        f are level-0 zeros and w_f..w_{k-1} are at the highest level of
        w_0..w_{h-1} and v_f..v_{k-1}.
        """
        n = len(v)
        levels = [c.level for c in v]
        lay = self._layouts[max(levels)]
        cols = lay.columns(v)
        lead = [col[0] for col in cols]
        if lead != [1] + [0] * (len(cols) - 1):
            if not any(lead):
                raise ZeroDivisionError("inverse of zero in the coefficient tower")
            raise ValueError("a root window must start with the coefficient 1")
        ell = self.ell
        neg_inv_p = -self.inv_int(p).coeffs[0] % ell
        width = lay.slot_width(n)
        group = 8 * width * lay.slots
        pack, reduce = lay.pack, lay.reduce

        def power(x: int, e: int, m: int) -> int:
            """x^e mod z^m on packed reduced values (the packed 1 is 1)."""
            acc = 1
            while e and x != 1:
                if e & 1:
                    acc = x if acc == 1 else pack(reduce(acc * x, m, width), width)
                e >>= 1
                if e:
                    x = pack(reduce(x * x, m, width), width)
            return acc

        packed_v = pack(cols, width)
        scaled_v = pack([[x * neg_inv_p % ell for x in col] for col in cols], width)
        y, h = 1, 1
        while h < n:
            k = min(2 * h, n)
            new = reduce(power(y, p + 1, k) * scaled_v >> group * h, k - h, width)
            y |= pack(new, width) << group * h
            h = k
        w = reduce(power(y, p - 1, n) * packed_v, n, width)

        dims, l0 = lay.dims, self._l0
        out = [l0[1]]
        top, h = 0, 1
        while h < n:
            k = min(2 * h, n)
            f = next((j for j in range(h, k) if any(col[j] for col in w)), k)
            out += [l0[0]] * (f - h)
            if f < k:
                top = max(top, *levels[f:k])
                out += self._layouts[top].wrap([col[f:k] for col in w[: dims[top]]])
            h = k
        return tuple(out)

    def _window_layout(self, level: int) -> _WindowLayout:
        """The slot layout and kernel of a level."""
        return self._layouts[level]

    # ------------------------------------------------------------------
    # enumeration and canonical choices

    def elements(self, level: int):
        """All elements of a level, in lexicographic order on flat coordinates."""
        for flat in itertools.product(range(self.ell), repeat=self.abs_degree(level)):
            yield FieldElem(level, flat)

    def _random_irreducible(self, level: int, degree: int):
        """Monic irreducible step polynomial by seeded random trial."""
        rng = random.Random(f"tower:{self.ell}:{self.p}:{level}:{degree}")
        lay = self._layouts[level]
        sub = self.abs_degree(level)
        while True:
            poly = [
                lay.lift(tuple(rng.randrange(self.ell) for _ in range(sub))) for _ in range(degree)
            ]
            poly.append(lay.one)
            if poly[0] == lay.zero:
                continue
            if _is_irreducible(lay, poly):
                return poly

    def _append_step(self, poly):
        """Extend the tower by a monic irreducible polynomial whose
        coefficients are kernel values of the top level."""
        below = self._layouts[-1]
        self._steps.append(tuple(below.coords(c) for c in poly))
        self._layouts.append(_next_layout(below, poly))
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
        lay = self._layouts[level]
        for cand in self.elements(level):
            if _has_order(lay, lay.value(cand), m):
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
        lay = self._layouts[level]
        q = lay.size
        t, s = q - 1, 0
        while t % r == 0:
            t //= r
            s += 1
        rng = random.Random(f"amm:{self.ell}:{self.p}:{level}:{r}")
        sub = self.abs_degree(level)
        while True:
            rho = lay.lift(tuple(rng.randrange(self.ell) for _ in range(sub)))
            if rho == lay.zero:
                continue
            if lay.pow(rho, (q - 1) // r) != lay.one:
                eta = lay.pow(rho, t)
                break
        gamma = lay.pow(eta, r ** (s - 1))  # order r
        self._sylow_cache[key] = (eta, gamma, t, s)
        return eta, gamma, t, s

    def _prime_root_in_level(self, level: int, x, r: int):
        """An r-th root of the kernel value ``x`` at ``level``; requires
        r | q-1 and the r-th-power test to have passed.
        Adleman-Manders-Miller descent."""
        lay = self._layouts[level]
        q = lay.size
        eta, gamma, t, s = self._sylow_data(level, r)
        # Pohlig-Hellman digits of c with eta^c = a^t
        u = lay.pow(x, t)
        c = 0
        for j in range(s):
            w = lay.mul(u, lay.pow(eta, (-c) % (q - 1)))
            w = lay.pow(w, r ** (s - 1 - j))
            acc = lay.one
            for digit in range(r):
                if acc == w:
                    c += digit * r**j
                    break
                acc = lay.mul(acc, gamma)
            else:
                raise AssertionError("Pohlig-Hellman digit search failed")
        if c % r != 0:
            raise AssertionError("element is not an r-th power despite passing the test")
        v = lay.pow(eta, c // r)
        e1 = pow(r, -1, t) if t > 1 else 0
        mte = (e1 * r - 1) // t
        root = lay.mul(lay.pow(x, e1), lay.pow(v, (-mte) % (q - 1)))
        assert lay.pow(root, r) == x
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

    def _prime_root(self, a: FieldElem, r: int):
        if r % self.ell == 0:
            raise ValueError("root order divisible by the characteristic")
        for level in range(a.level, self.levels):
            lay = self._layouts[level]
            q = lay.size
            x = lay.value(a)
            if (q - 1) % r != 0:
                # x -> x^r is a bijection; the unique root is a^(r^-1 mod q-1)
                return lay.elem(lay.pow(x, pow(r, -1, q - 1)))
            if lay.pow(x, (q - 1) // r) == lay.one:
                root, gamma = self._prime_root_in_level(level, x, r)
                cands = []
                w = lay.one
                for _ in range(r):
                    cands.append(lay.elem(lay.mul(root, w)))
                    w = lay.mul(w, gamma)
                return min(cands, key=_coeffs)
        # not an r-th power anywhere in the tower: X^r - a is irreducible
        # over the top level (r prime), so one degree-r step suffices
        top = self._layouts[-1]
        poly = [top.neg(top.value(a))] + [top.zero] * (r - 1) + [top.one]
        lay = self._layouts[self._append_step(poly)]
        gen = lay.lift((0,) * top.dims[-1] + (1,))  # the new generator X
        w = lay.lift(top.coords(self._sylow_data(top.level, r)[1]))  # an element of order r
        cands = []
        acc = lay.one
        for _ in range(r):
            cands.append(lay.elem(lay.mul(gen, acc)))
            acc = lay.mul(acc, w)
        return min(cands, key=_coeffs)

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
            coeffs = [ctx.elem_from_text(t) for t in poly_texts]
            if not ctx.poly_is_irreducible(i, coeffs):
                raise ValueError(f"tower step {i} is not irreducible")
            lay = ctx._layouts[i]
            ctx._append_step([lay.value(c) for c in coeffs])
        return ctx
