"""Spans around the engine's public functions, for the traced run.

A span is installed by rebinding a function's name in every ``nambu_forge``
module that holds it, so calls from inside the engine are seen as well as the
benchmark's own.  Each span records its name, start, end, parent span and op
id; spans stay in memory and are written out once the run ends.  Per span the
tracer also keeps the call count, the self time (span time minus the time its
child spans cover) and the number of calls that raised.  Constructions of
``fractions.Fraction`` are counted by wrapping ``Fraction.__new__``.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns


def _star_kind(s, *_, **__):
    return "star.star_mul." + s.kind


# (module, function, span name or name-from-arguments, repeat key or None).
# The repeat key says which calls count as "already seen in the run".
TARGETS = (
    ("poly", "poisson_power", "poly.poisson_power", None),
    ("factor", "factorize", "factor.factorize", lambda f, *_, **__: f),
    ("factor", "poly_divide_exact", "factor.poly_divide_exact", None),
    ("star", "star_mul", _star_kind, lambda s, f, g, *_, **__: (s, f, g)),
    ("zariski", "eval_T", "zariski.eval_T", lambda factors, s, *_, **__: (tuple(factors), s)),
    ("zariski", "zelem_from_poly", "zariski.zelem_from_poly", None),
    ("zariski", "z_mul_nu", "zariski.z_mul_nu", None),
    ("zariski", "a_mul_nu", "zariski.a_mul_nu", None),
    ("zariski", "quantum_nambu", "zariski.quantum_nambu", None),
    ("sun", "sun_lift", "sun.sun_lift", None),
    ("sun", "sun_closed_form", "sun.sun_closed_form", None),
    ("sun", "apply_equivalence", "sun.apply_equivalence", None),
    ("sun", "weak_trivializer", "sun.weak_trivializer", None),
    ("cli", "main", "cli.main", None),
    ("expr", "parse_expr", "expr.parse_expr", None),
    ("expr", "render", "expr.render", None),
    ("weyl", "ho_spectrum", "weyl.ho_spectrum", None),
    ("weyl", "weyl_quantize", "weyl.weyl_quantize", None),
    ("nambu", "check_fi", "nambu.check_fi", None),
    ("nambu", "evolve", "nambu.evolve", None),
)

SPAN_NAMES = tuple(
    name
    for _, _, span, _ in TARGETS
    for name in (
        [f"star.star_mul.{k}" for k in ("moyal", "partial_moyal", "standard_ordering", "su2")]
        if callable(span) else [span]
    )
)
REPEAT_SPANS = ("factor.factorize", "zariski.eval_T", "star.star_mul")
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list = [OP_SPAN]
        self.name_ids: dict = {OP_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list = []  # [span index, child ns] of the open spans
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.errors: dict = {}
        self.seen: dict = {name: set() for name in REPEAT_SPANS}
        self.repeats: dict = {name: 0 for name in REPEAT_SPANS}
        self.fraction_new = 0
        self.op_id = -1
        self.absent: list = []
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [idx, 0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: int, t1: int, failed: bool) -> None:
        self.stack.pop()
        dur = t1 - t0
        self.span_start[frame[0]] = t0
        self.span_end[frame[0]] = t1
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]
        if failed:
            self.errors[name] = self.errors.get(name, 0) + 1

    def op(self, fn, *args):
        """Run one benchmark op inside a root span with a fresh op id."""
        self.op_id += 1
        return self._call(OP_SPAN, fn, args, {})

    def _call(self, name: str, fn, args, kwargs):
        frame = self._open(name)
        failed = True
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self._close(frame, name, t0, perf_counter_ns(), failed)

    def _wrap(self, fn, span, key):
        tracer = self
        family = span if isinstance(span, str) else "star.star_mul"

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(*args, **kwargs)
            if key is not None:
                h = hash(key(*args, **kwargs))
                seen = tracer.seen[family]
                if h in seen:
                    tracer.repeats[family] += 1
                else:
                    seen.add(h)
            return tracer._call(name, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every ``nambu_forge`` module.  The target
        modules are imported first, so that a module the engine imports late
        is traced too."""
        homes = {}
        for mod_name, _, _, _ in TARGETS:
            try:
                homes[mod_name] = importlib.import_module(f"nambu_forge.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "nambu_forge"]
        for mod_name, fn_name, span, key in TARGETS:
            fn = getattr(homes.get(mod_name), fn_name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(fn, span, key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, fn))

        original_new = Fraction.__new__
        tracer = self

        def counting_new(cls, *args, **kwargs):
            tracer.fraction_new += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = counting_new
        self._restore.append((Fraction, "__new__", original_new))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; a span that never ran reports zero calls."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
            out[f"{name}.errors"] = self.errors.get(name, 0)
        for family in REPEAT_SPANS:
            if family == "star.star_mul":
                total = sum(v for k, v in self.calls.items() if k.startswith("star.star_mul."))
            else:
                total = self.calls.get(family, 0)
            out[f"{family}.repeat_ratio"] = self.repeats[family] / total if total else 0.0
        out["poly.fraction_new"] = self.fraction_new
        return out

    def write(self, path) -> int:
        """Write every span as a gzipped TSV; returns the number of spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
        return len(self.span_start)
