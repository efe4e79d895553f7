"""Reference arithmetic for checking results, written apart from the program.

Nothing here calls into ``adelic_kummer``: field elements arrive as
``(level, flat coordinates)`` pairs and the tower as the step polynomials
of ``FieldCtx.to_json()``, in the program's documented flat basis (block
``k`` of a level holds the coefficient of the step generator to the
``k``-th power).  Series are ``(val, [coefficient, ...])`` windows with the
product window rule of the program: the shorter operand window wins.
"""

from __future__ import annotations


def parse_literal(text: str):
    """``L<k>:[c0,c1,...]`` -> (k, tuple of ints)."""
    head, body = text.strip()[1:-1].split(":[", 1)
    return int(head), tuple(int(c) for c in body.split(",")) if body else ()


class FieldTower:
    """The coefficient tower, rebuilt from its JSON form."""

    def __init__(self, ell: int, tower_json):
        self.ell = ell
        self.dims = [1]  # absolute degree per level
        self.steps = []  # (degree, monic poly as flat coefficient tuples)
        for level, poly_texts in enumerate(tower_json):
            coeffs = [self.embed(parse_literal(t), level) for t in poly_texts]
            self.steps.append((len(coeffs) - 1, coeffs))
            self.dims.append(self.dims[-1] * (len(coeffs) - 1))

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def embed(self, elem, level=None):
        """Flat coordinates of ``elem`` at ``level`` (default: the top)."""
        lvl, flat = elem
        size = self.dims[self.top if level is None else level]
        if len(flat) > size:
            raise ValueError(f"L{lvl} element has {len(flat)} coordinates, level holds {size}")
        return tuple(flat) + (0,) * (size - len(flat))

    def zero(self, level):
        return (0,) * self.dims[level]

    def one(self, level):
        return (1,) + (0,) * (self.dims[level] - 1)

    def add(self, a, b):
        ell = self.ell
        return tuple((x + y) % ell for x, y in zip(a, b))

    def sub(self, a, b):
        ell = self.ell
        return tuple((x - y) % ell for x, y in zip(a, b))

    def mul(self, level, a, b):
        if level == 0:
            return (a[0] * b[0] % self.ell,)
        degree, poly = self.steps[level - 1]
        sub = self.dims[level - 1]
        xs = [a[k * sub : (k + 1) * sub] for k in range(degree)]
        ys = [b[k * sub : (k + 1) * sub] for k in range(degree)]
        zero = self.zero(level - 1)
        prod = [zero] * (2 * degree - 1)
        for i, x in enumerate(xs):
            if not any(x):
                continue
            for j, y in enumerate(ys):
                prod[i + j] = self.add(prod[i + j], self.mul(level - 1, x, y))
        for k in range(2 * degree - 2, degree - 1, -1):
            c = prod[k]
            if any(c):
                for j in range(degree):
                    prod[k - degree + j] = self.sub(
                        prod[k - degree + j], self.mul(level - 1, c, poly[j])
                    )
        out = ()
        for block in prod[:degree]:
            out += block
        return out

    def pow(self, level, a, e: int):
        out = self.one(level)
        for _ in range(e):
            out = self.mul(level, out, a)
        return out


# ----------------------------------------------------------------------
# series over the top level of a tower


def series_mul(tower: FieldTower, a, b):
    (va, ca), (vb, cb) = a, b
    n = min(len(ca), len(cb))
    top = tower.top
    out = [tower.zero(top)] * n
    for i in range(n):
        if not any(ca[i]):
            continue
        for j in range(n - i):
            out[i + j] = tower.add(out[i + j], tower.mul(top, ca[i], cb[j]))
    return va + vb, out


def series_pow(tower: FieldTower, a, e: int):
    out = a
    for _ in range(e - 1):
        out = series_mul(tower, out, a)
    return out


def same_window(a, b, length=None) -> bool:
    """Equal valuation and equal coefficients on the first ``length``
    coefficients (default: both whole windows, which must be equally long)."""
    (va, ca), (vb, cb) = a, b
    if length is None:
        return va == vb and list(ca) == list(cb)
    return va == vb and len(ca) >= length and len(cb) >= length and list(ca[:length]) == list(cb[:length])


# ----------------------------------------------------------------------
# level-0 series as plain int lists


def int_series_mul(ell: int, a, b):
    (va, ca), (vb, cb) = a, b
    n = min(len(ca), len(cb))
    out = [0] * n
    for i in range(n):
        x = ca[i]
        if x:
            for j in range(n - i):
                out[i + j] += x * cb[j]
    return va + vb, [c % ell for c in out]


def int_series_pow(ell: int, a, e: int):
    out = a
    for _ in range(e - 1):
        out = int_series_mul(ell, out, a)
    return out
