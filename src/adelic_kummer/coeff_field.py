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
The same construction over a candidate step polynomial f gives the layout
of the ring K[X]/(f), in which the Rabin irreducibility test runs.
A product slot sums at most n*D products below ell^2 (n = 1 for an
element, the window length for a window), and a reduced slot at most S
times that (S the largest column sum of the table), so slots are sized
for n*D*(ell-1)^2*S and never overflow, whatever ell or n.

Series windows have four kernels on this layout: ``window_mul``,
``window_inv``, ``window_binomial`` (the powers (a + b z)^e of linear
factors) and ``window_root``.  The product kernel first drops the
trailing zero coefficients of both windows, since most series products
multiply constants or short windows padded to the precision.  A single
remaining coefficient, at level 0 or against another single one, is
multiplied into the other window one element product at a time;
otherwise only the trimmed windows are packed, and only the slot groups
their product can fill are reduced.  The root kernel runs the
division-free Newton iteration y <- y + y (1 - v y^p) / p for
y = v^(-1/p) (Brent and Kung) on packed windows, then takes
w = v y^(p-1); its coefficient levels follow the series Newton iteration
it replaced (see ``window_root``), so root literals keep their levels.

Canonical choices.  Every root has prime order: zeta is a primitive p-th
root of unity, and ``nth_root`` takes r-th roots for a prime r other than
ell.  Each is picked as the lexicographically smallest candidate (on flat
coordinates) at the minimal sufficient level, which makes every
construction reproducible.  The candidates are one root times the powers
of the order-r element of the level's seeded Sylow generator.

Concurrency: a FieldCtx is append-only.  Tower extension must be
serialized by the caller (single writer); concurrent readers are safe on
a snapshot.  FieldElem values are immutable.
"""

from __future__ import annotations

import random
import sys
from array import array
from contextlib import suppress
from math import comb, gcd
from operator import attrgetter, lshift

from .errors import CheckFailed, NotARootOfUnity, ZeroInput


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


def _trim(window, zeros):
    """``window`` without its trailing zero coefficients, but never empty.
    ``zeros[level]`` is the zero coordinate vector of each level, so a zero
    of the wrong length is kept, and checked where it is read."""
    k = len(window)
    while k > 1 and window[k - 1].coeffs == zeros[window[k - 1].level]:
        k -= 1
    return window[:k]


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
        "level", "ell", "l0", "dims", "zeros", "size", "zero", "one", "slots", "offsets", "table",
        "monomials", "term_bound", "col_sum", "_table_cols", "_widths", "_reducers",
        "_shifts", "_top", "_mask", "_red", "_red_shifts", "_row_shifts",
    )

    def __init__(self, level, dims, offsets, table, ell, l0):
        self.level = level
        self.ell = ell
        self.l0 = l0  # the interned level-0 elements
        self.dims = dims  # absolute degree of every level up to this one
        self.zeros = tuple((0,) * d for d in dims)  # zero coordinates of each level
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
        from one product of x with reducer t.  Raises ZeroDivisionError on
        zero and on the zero divisors of K[X]/(f), f reducible (Rabin test)."""
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
        # Gauss-Jordan elimination; a column without a pivot is a non-unit
        for c in range(dim):
            r = c
            while r < dim and not rows[r][c]:
                r += 1
            if r == dim:
                raise ZeroDivisionError("inverse of a non-unit")
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
            try:
                return [[x % ell for (x,) in map(_coeffs, window)]]
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
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

    def scale(self, x, s: int):
        return x * s % self.ell

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


def _is_irreducible(K, poly) -> bool:
    """Rabin test for a monic f = ``poly`` of degree d over K, in R = K[X]/(f)
    on the layout of a step by f: X^(q^d) = X, and X^(q^(d/r)) - X is a unit
    of R (prime to f) for every prime r dividing d."""
    d = len(poly) - 1
    if d <= 1:
        return d == 1
    R = _next_layout(K, poly)
    x = R.lift((0,) * K.dims[-1] + (1,))
    q = K.size
    if R.pow(x, q**d) != x:
        return False
    try:
        for r in prime_factors(d):
            R.inv(R.add(R.pow(x, q ** (d // r)), R.neg(x)))
    except ZeroDivisionError:
        return False
    return True


def _least_in_coset(K, x, g, n: int) -> FieldElem:
    """The lexicographically smallest x g^k, k < n, for kernel values of K."""
    least = acc = x
    for _ in range(n - 1):
        acc = K.mul(acc, g)
        least = min(least, acc)
    return K.elem(least)


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
        """Rabin test for a monic polynomial f, given by its FieldElem
        coefficients (lowest degree first), which lie at ``level`` or below;
        raises ValueError for any other polynomial.

        Checks X^(q^d) = X mod f together with gcd(X^(q^(d/r)) - X, f) = 1
        for every prime r dividing d, in K[X]/(f) on the packed layout.
        """
        lay = self._layouts[level]
        coeffs = [lay.value(c) for c in poly if c.level <= level]
        if len(coeffs) < len(poly) or coeffs[-1:] != [lay.one]:
            raise ValueError(f"not a monic polynomial over level {level}")
        return _is_irreducible(lay, coeffs)

    # ------------------------------------------------------------------
    # public element arithmetic

    def elem(self, x: int) -> FieldElem:
        return self._l0[x % self.ell]

    def zero(self) -> FieldElem:
        return self._l0[0]

    def one(self) -> FieldElem:
        return self._l0[1]

    def elem_from_text(self, text: str) -> FieldElem:
        """Parse a bare integer, read mod ell, or an ``L<k>:[...]`` literal of
        a level of this tower with that level's coordinates, each in [0, ell)."""
        if not text.strip().startswith("L"):
            with suppress(ValueError):
                return self.elem(int(text))
        a = elem_from_text(text)
        dims = self._layouts[-1].dims
        if not (0 <= a.level < len(dims) and len(a.coeffs) == dims[a.level]):
            raise ValueError(f"{text.strip()!r} is not in the tower of absolute degrees {list(dims)}")
        if not all(0 <= c < self.ell for c in a.coeffs):
            raise ValueError(f"{text.strip()!r} has a coordinate outside [0, {self.ell})")
        return a

    def is_zero(self, a: FieldElem) -> bool:
        """Whether ``a`` is zero, reading its coordinates mod ell as ``eq`` does."""
        ell = self.ell
        return not any([c % ell for c in a.coeffs])

    def _operands(self, a: FieldElem, b: FieldElem):
        lay = self._layouts[max(a.level, b.level)]
        return lay, lay.value(a), lay.value(b)

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            try:
                (x,) = a.coeffs
                (y,) = b.coeffs
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
            return self._l0[(x + y) % self.ell]
        lay, x, y = self._operands(a, b)
        return lay.elem(lay.add(x, y))

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def neg(self, a: FieldElem) -> FieldElem:
        if a.level == 0:
            try:
                (x,) = a.coeffs
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
            return self._l0[-x % self.ell]
        lay = self._layouts[a.level]
        return lay.elem(lay.neg(lay.value(a)))

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        if a.level == 0 and b.level == 0:
            try:
                (x,) = a.coeffs
                (y,) = b.coeffs
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
            return self._l0[x * y % self.ell]
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
            try:
                (x,) = a.coeffs
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
            return self._l0[pow(x, self.ell - 2, self.ell)]
        lay = self._layouts[a.level]
        return lay.elem(lay.inv(lay.value(a)))

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if a.level == 0:
            try:
                (x,) = a.coeffs
            except ValueError:
                raise ValueError("coefficient vector does not match its level degree") from None
            return self._l0[self._layouts[0].pow(x, e)]
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

        The windows are read as polynomials in z, lowest power first, and
        lose their trailing zero coefficients first.  If one of them is then
        a single coefficient c, at level 0 or against another single
        coefficient, the product is c times each coefficient of the other,
        one element product each.  Otherwise only the trimmed windows, of
        lengths ka and kb, are packed, and only the min(n, ka + kb - 1)
        slot groups the product can fill are reduced.  The rest of the n
        coefficients are zeros.  Every result coefficient, padding included,
        is at the highest level of any coefficient of either full window.
        """
        lay = self._layouts[max(max(map(_level, a)), max(map(_level, b)))]
        a, b = _trim(a[:n], lay.zeros), _trim(b[:n], lay.zeros)
        if len(b) < len(a):
            a, b = b, a
        if len(a) == 1 and (len(b) == 1 or not lay.level):
            x, value, mul, elem = lay.value(a[0]), lay.value, lay.mul, lay.elem
            out = tuple([elem(mul(x, value(c))) for c in b])
        else:
            # a slot sums at most len(a) coefficient products
            width = lay.slot_width(len(a))
            packed = lay.pack(lay.columns(a), width) * lay.pack(lay.columns(b), width)
            out = lay.wrap(lay.reduce(packed, min(n, len(a) + len(b) - 1), width))
        if len(out) < n:
            out += (lay.elem(lay.zero),) * (n - len(out))
        return out

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

    def window_binomial(self, a: FieldElem, b: FieldElem, e: int, n: int) -> tuple[FieldElem, ...]:
        """First n coefficients of (a + b z)^e, a nonzero: C(e, k) a^e (b/a)^k
        for k < n, with C(e, k) = (-1)^k C(k - e - 1, k) when e < 0.  The
        result is at the highest level of the window (a, b) cut to n
        coefficients, as a power of that window would be."""
        if n == 1:
            b = self.zero()
        lay = self._layouts[max(a.level, b.level)]
        x = lay.value(a)
        ratio, term = lay.mul(lay.value(b), lay.inv(x)), lay.pow(x, e)
        terms = n if e < 0 else min(n, e + 1)  # C(e, k) = 0 for k > e >= 0
        out = []
        for k in range(terms):
            c = comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
            out.append(lay.elem(lay.scale(term, c % self.ell)))
            term = lay.mul(term, ratio)
        return tuple(out) + (lay.elem(lay.zero),) * (n - terms)

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

    # ------------------------------------------------------------------
    # canonical choices

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
            if poly[0] != lay.zero and _is_irreducible(lay, poly):
                return poly

    def _append_step(self, poly):
        """Extend the tower by a monic irreducible polynomial whose
        coefficients are kernel values of the top level."""
        below = self._layouts[-1]
        self._steps.append(tuple(below.coords(c) for c in poly))
        self._layouts.append(_next_layout(below, poly))
        return self.levels - 1

    def ensure_zeta(self) -> FieldElem:
        """The distinguished primitive p-th root of unity (cached, stable).

        At the lowest level with p | q - 1, extending the tower by one step
        of degree ord_p(q) when none qualifies, the elements of order p are
        the powers gamma^k, 0 < k < p, of the order-p element gamma of the
        level's Sylow data; the lexicographically smallest is returned.
        """
        if self.zeta is None:
            p = self.p
            level = next((i for i in range(self.levels) if (self.level_size(i) - 1) % p == 0), None)
            if level is None:
                top = self.levels - 1
                poly = self._random_irreducible(top, multiplicative_order(self.level_size(top), p))
                level = self._append_step(poly)
            gamma = self._sylow_data(level, p)[1]
            self.zeta = _least_in_coset(self._layouts[level], gamma, gamma, p - 1)
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
        raise CheckFailed("mu_p enumeration cannot miss a p-th root of unity")

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
                raise CheckFailed("Pohlig-Hellman digit search failed")
        if c % r != 0:
            raise CheckFailed("element is not an r-th power despite passing the test")
        v = lay.pow(eta, c // r)
        e1 = pow(r, -1, t) if t > 1 else 0
        mte = (e1 * r - 1) // t
        root = lay.mul(lay.pow(x, e1), lay.pow(v, (-mte) % (q - 1)))
        if lay.pow(root, r) != x:
            raise CheckFailed(f"the computed root does not satisfy root^{r} = x")
        return root, gamma

    def nth_root(self, a: FieldElem, r: int) -> FieldElem:
        """Canonical r-th root for a prime r other than ell, extending the
        tower when necessary: the lexicographically smallest root at the
        lowest level that holds one.  Raises ValueError for any other r.
        """
        if r == self.ell or not is_prime(r):
            raise ValueError(f"root order {r} is not a prime other than the characteristic {self.ell}")
        if self.is_zero(a):
            raise ZeroInput("0 has no canonical root here")
        for level in range(a.level, self.levels):
            lay = self._layouts[level]
            q = lay.size
            x = lay.value(a)
            if (q - 1) % r != 0:
                # x -> x^r is a bijection; the unique root is a^(r^-1 mod q-1)
                return lay.elem(lay.pow(x, pow(r, -1, q - 1)))
            if lay.pow(x, (q - 1) // r) == lay.one:
                return _least_in_coset(lay, *self._prime_root_in_level(level, x, r), r)
        # not an r-th power anywhere in the tower: X^r - a is irreducible
        # over the top level (r prime), so one degree-r step suffices
        top = self._layouts[-1]
        poly = [top.neg(top.value(a))] + [top.zero] * (r - 1) + [top.one]
        lay = self._layouts[self._append_step(poly)]
        gen = lay.lift((0,) * top.dims[-1] + (1,))  # the new generator X
        w = lay.lift(top.coords(self._sylow_data(top.level, r)[1]))  # an element of order r
        return _least_in_coset(lay, gen, w, r)

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
