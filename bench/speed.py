"""Machine-speed probe.

The machines this benchmark runs on are shared, and their speed for
pure-Python work drifts by 10-30% within seconds.  The probe times a fixed
pure-Python kernel, in small slices interleaved with the measured work, and
reports how fast the machine ran relative to ``NOMINAL_CALL_S``.  Timings
multiplied by ``factor`` are what the same work would have taken on a
machine where one kernel call takes exactly ``NOMINAL_CALL_S``; this
removes most of the drift while leaving the program's own speed untouched.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_CALL_S = 50e-6


class _Elem:
    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        self.level = level
        self.coeffs = tuple(coeffs)


def _mul(a, b):
    """Product in F_7[x]/(x^3 - 2) on coefficient triples."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        (a0 * b0 + 2 * (a1 * b2 + a2 * b1)) % 7,
        (a0 * b1 + a1 * b0 + 2 * a2 * b2) % 7,
        (a0 * b2 + a1 * b1 + a2 * b0) % 7,
    )


def kernel():
    """A fixed run of small-field products over freshly built objects: the
    same mix of calls, attribute reads, tuple building and small-int
    arithmetic as the program's own kernels, so both slow down alike."""
    elems = [_Elem(1, (i % 7, i * 3 % 7, 1)) for i in range(12)]
    acc = (1, 0, 0)
    for e in elems:
        for f in elems[:6]:
            acc = _mul(acc, _mul(e.coeffs, f.coeffs))
    return acc


class SpeedProbe:
    SHARE = 0.05  # probe time as a share of the work just timed

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def run(self, calls):
        """Time ``calls`` kernel calls; return their speed factor."""
        t0 = perf_counter()
        for _ in range(calls):
            kernel()
        dt = perf_counter() - t0
        self.calls += calls
        self.seconds += dt
        return calls * NOMINAL_CALL_S / dt

    def after(self, busy_s):
        """Probe for about ``SHARE`` of the time just spent working."""
        self.run(max(1, round(self.SHARE * busy_s / NOMINAL_CALL_S)))

    @property
    def factor(self) -> float:
        """Nominal over measured kernel time, over every probe so far."""
        return self.calls * NOMINAL_CALL_S / self.seconds
