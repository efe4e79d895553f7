"""Span tracing installed from outside the program.

``Tracer.install`` replaces the public functions of each layer module, and
the public methods of the classes those modules define, with wrappers that
record one span per call: name, start, end, parent span and op id.  Module
attributes are patched in every module of the package that binds the same
function object, so calls through module globals (``ls.mul`` inside
``ls.power``, ``prime_factors`` imported into ``laurent``) are caught too.
``Tracer.disable`` puts the originals back and ``Tracer.enable`` the
wrappers again, so traced and untraced calls can alternate cheaply.

Two kinds of call are not timed:

* ``FieldCtx`` arithmetic on level-0 operands (``add``, ``mul``, ``inv``,
  ``pow`` and the like) costs well under a microsecond, less than a timing
  wrapper, so those calls are only counted.  The same calls above level 0
  are timed.
* accessors that do no arithmetic (``LaurentSeries.coeff_at``,
  ``Adele.component`` and the like, listed in ``UNWRAPPED``) are left alone;
  their time is part of the caller's self time.

At levels >= 1 ``laurent`` calls the private ``FieldCtx._n*`` kernels
directly, so that field work is part of ``laurent`` self time.

Spans are kept in flat ``array`` columns while the run lasts and written
out once at the end by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter

LAYERS = (
    "coeff_field",
    "laurent",
    "adeles",
    "local_algebra",
    "global_galois",
    "harrison",
    "p1_ingest",
    "cli",
)

UNWRAPPED = {
    "coeff_field.FieldCtx.elem",
    "coeff_field.FieldCtx.zero",
    "coeff_field.FieldCtx.one",
    "coeff_field.FieldCtx.is_zero",
    "coeff_field.FieldCtx.abs_degree",
    "coeff_field.FieldCtx.level_size",
    "laurent.LaurentSeries.coeff_at",
    "laurent.LaurentSeries.leading",
    "laurent.LaurentSeries.valuation",
    "adeles.Adele.component",
    "adeles.Adele.support",
    "global_galois.GlobalAutomorphism.local_at",
    "global_galois.AlgebraElement.part_at",
    "global_galois.Conjugation.perm_at",
}

# FieldCtx methods whose FieldElem arguments decide between counting
# (all at level 0) and timing (any above level 0).
LEVEL_SPLIT = {"add", "sub", "neg", "mul", "inv", "div", "pow", "eq", "embed", "project"}
BINARY = {"add", "sub", "mul", "div", "eq"}

# FieldCtx methods that can append tower levels; they never call each other.
EXTENDING = {"ensure_root_of_unity", "nth_root", "pth_root"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: dict[str, int] = {}  # untimed calls by name
        self.field_mul_ext = 0
        self.field_mul_total = 0
        self.ls_mul_ext = 0
        self.ls_mul_total = 0
        self.ls_mul_prec = 0
        self.tower_extensions = 0
        self.max_abs_degree = 1
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    # span recording

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, name, fn):
        nid = self._name_id(name)
        stack = self.stack
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends = self.start_col, self.end_col
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return wrapper

    def _level_split(self, name, fn):
        timed = self._timed(name, fn)
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        if name.endswith(".mul"):

            @functools.wraps(fn)
            def wrapper(ctx, a, b):
                tracer.field_mul_total += 1
                if a.level or b.level:
                    tracer.field_mul_ext += 1
                    return timed(ctx, a, b)
                counts[name] += 1
                return fn(ctx, a, b)

        elif name.rsplit(".", 1)[1] in BINARY:

            @functools.wraps(fn)
            def wrapper(ctx, a, b):
                if a.level or b.level:
                    return timed(ctx, a, b)
                counts[name] += 1
                return fn(ctx, a, b)

        else:

            @functools.wraps(fn)
            def wrapper(ctx, a, *rest):
                if a.level:
                    return timed(ctx, a, *rest)
                counts[name] += 1
                return fn(ctx, a, *rest)

        return wrapper

    def _extending(self, name, fn):
        timed = self._timed(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            before = ctx.levels
            try:
                return timed(ctx, *args, **kwargs)
            finally:
                tracer.tower_extensions += ctx.levels - before
                tracer.max_abs_degree = max(
                    tracer.max_abs_degree, ctx.abs_degree(ctx.levels - 1)
                )

        return wrapper

    def _series_mul(self, name, fn):
        timed = self._timed(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(s, t):
            if not (s.is_zero or t.is_zero):
                tracer.ls_mul_total += 1
                tracer.ls_mul_prec += min(s.prec, t.prec)
                tracer.ls_mul_ext += any(c.level for c in s.coeffs) or any(
                    c.level for c in t.coeffs
                )
            return timed(s, t)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self, package):
        """Build the wrappers for ``package``; ``enable`` switches them on."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    replaced[id(value)] = self._wrap_function(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._patches.append((mod, attr, value, replaced[id(value)]))

    def _wrap_function(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counted(name, fn)
        if name == "laurent.mul":
            return self._series_mul(name, fn)
        return self._timed(name, fn)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._timed(name, raw.__func__))
            elif not inspect.isfunction(raw):
                continue
            elif inspect.isgeneratorfunction(raw):
                wrapped = self._counted(name, raw)
            elif cls.__name__ == "FieldCtx" and attr in LEVEL_SPLIT:
                wrapped = self._level_split(name, raw)
            elif cls.__name__ == "FieldCtx" and attr in EXTENDING:
                wrapped = self._extending(name, raw)
            else:
                wrapped = self._timed(name, raw)
            self._patches.append((cls, attr, raw, wrapped))

    def enable(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def disable(self):
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # analysis and output

    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def aggregate(self):
        """Per-name call counts and self time in seconds, and the summed
        duration of the spans that have no parent."""
        n = len(self.name_col)
        child = [0.0] * n
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        top = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_col):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        by_name = {
            name: {"calls": calls[k], "self_s": self_s[k]}
            for k, name in enumerate(self.names)
        }
        for name, count in self.counts.items():
            entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += count
        return by_name, top

    def write(self, path):
        """One JSON header line, then the raw span columns in header order."""
        header = {
            "names": self.names,
            "spans": self.span_count,
            "columns": [
                ["name", "i"],
                ["parent", "i"],
                ["op", "i"],
                ["start", "d"],
                ["end", "d"],
            ],
            "untimed_calls": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (
                self.name_col,
                self.parent_col,
                self.op_col,
                self.start_col,
                self.end_col,
            ):
                col.tofile(fh)
