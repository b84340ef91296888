"""Engine-side workload definitions, run inside the workload process.

``build(doc)`` parses the generated input text and builds the product
objects (this is the set-up that ``setup_s`` times) and returns a
``Workload``: a list of checks plus the oracle checks that run after the
timed phase.  A check takes ``op`` (which times one call into the engine's
public API and counts it as an op) and returns whether its exactness check
held.  Which calls count as ops is fixed per workload here.

Engine functions are looked up on their module at call time, so that the
traced run's spans (installed by rebinding module attributes) see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

from nambu_forge import factor as factor_mod
from nambu_forge import star as star_mod
from nambu_forge import sun as sun_mod
from nambu_forge import zariski as zmod
from nambu_forge.expr import parse_expr, render
from nambu_forge.poly import qp_space, su2_space

import cli_calls

SU2_ORACLE_SAMPLES = 4


@dataclass
class Workload:
    checks: list
    # after the timed phase: () -> descriptions of failed oracle checks
    verify: callable = lambda: []
    # after the timed phase: () -> JSON-able results for the parent to check
    results: callable = lambda: None


def _star_assoc(doc: dict) -> Workload:
    products = {
        "moyal": star_mod.moyal_product(qp_space()),
        "partial_moyal": star_mod.partial_moyal_product(zmod.zariski_space(3)),
        "standard_ordering": star_mod.standard_ordering_product(qp_space()),
        "su2": star_mod.su2_product(),
    }
    su2_firsts: list = []  # (f, g, f*g) of the su2 checks, for the oracle

    def make(check: dict):
        product = products[check["product"]]
        f, g, h = (parse_expr(t, product.space) for t in check["operands"])

        def run(op) -> bool:
            star_mul = star_mod.star_mul
            fg = op(star_mul, product, f, g)
            lhs = op(star_mul, product, fg, h)
            gh = op(star_mul, product, g, h)
            rhs = op(star_mul, product, f, gh)
            if product.kind == "su2":
                su2_firsts.append((f, g, fg))
            return (lhs - rhs).is_zero()

        return run

    def verify() -> list:
        if not su2_firsts:
            return []
        step = max(1, len(su2_firsts) // SU2_ORACLE_SAMPLES)
        failures = []
        for f, g, fg in su2_firsts[::step][:SU2_ORACLE_SAMPLES]:
            if star_mod.su2_star_via_lift(f, g) != fg:
                failures.append(f"su2 product of {render(f)} and {render(g)} disagrees with the R^6 lift")
        return failures

    return Workload([make(c) for c in doc["checks"]], verify=verify)


def _factor_roundtrip(doc: dict) -> Workload:
    space = zmod.zariski_space(3)
    polys = [parse_expr(t, space) for t in doc["products"]]
    got: list = []

    def make(f):
        def run(op) -> bool:
            got.append(op(factor_mod.factorize, f))
            return True  # checked by the parent, after the phase

        return run

    def results() -> list:
        return [
            {"input": render(f), "unit": str(fac.unit),
             "factors": [[[[list(e), str(c)] for e, c in g.terms.items()], m]
                         for g, m in fac.factors]}
            for f, fac in zip(polys, got)
        ]

    return Workload([make(f) for f in polys], results=results)


def _taylor_bracket(doc: dict) -> Workload:
    space = zmod.zariski_space(3)
    star = zmod.zariski_star(3)
    pool = [parse_expr(t, space) for t in doc["pool"]]

    def jimage(indices):
        mono = zmod.ZMonomial([pool[i] for i in indices], trusted=True)
        return zmod.jmap(zmod.ZElem.basis(mono), space)

    def make(check: dict):
        kind, operands = check["kind"], check["operands"]

        def run(op) -> bool:
            xs = [jimage(ix) for ix in operands]
            if kind == "commutative-associative":
                a, b, c = xs
                ab = op(zmod.a_mul_nu, a, b, star)
                ba = op(zmod.a_mul_nu, b, a, star)
                ab_c = op(zmod.a_mul_nu, ab, c, star)
                bc = op(zmod.a_mul_nu, b, c, star)
                a_bc = op(zmod.a_mul_nu, a, bc, star)
                return (ab - ba).is_zero() and (ab_c - a_bc).is_zero()
            qn = zmod.quantum_nambu
            if kind == "antisymmetric":
                a, b, c = xs
                abc = op(qn, a, b, c, star)
                bac = op(qn, b, a, c, star)
                aac = op(qn, a, a, c, star)
                return (abc + bac).is_zero() and aac.is_zero()
            lhs = op(qn, xs[0], xs[1], op(qn, xs[2], xs[3], xs[4], star), star)
            rhs = zmod.TaylorElem.zero(space)
            for k in range(3):
                args = xs[2:]
                args[k] = op(qn, xs[0], xs[1], xs[2 + k], star)
                rhs = rhs + op(qn, args[0], args[1], args[2], star)
            return (lhs - rhs).is_zero()

        return run

    return Workload([make(c) for c in doc["checks"]])


def _sun_su2(doc: dict) -> Workload:
    space = su2_space()
    sp = sun_mod.sun_su2()

    def make(check: dict):
        kind = check["kind"]
        xs = [parse_expr(t, space) for t in check["operands"]]

        def run(op) -> bool:
            if kind == "closed-form":
                lhs = op(sun_mod.sun_mul, sp, xs[0], xs[1])
                rhs = op(sun_mod.sun_closed_form, xs[0], xs[1])
                return (lhs - rhs).is_zero()
            if kind == "fundamental-identity":
                return op(sun_mod.fi_residual_sun, sp, xs).is_zero()
            if kind == "weak-leibniz":
                return op(sun_mod.weak_leibniz_residual, sp, *xs, check["axis"]).is_zero()
            s = op(sun_mod.weak_trivializer, 3)
            residual = op(sun_mod.apply_equivalence, s, "B", sun_mod.USUAL_PRODUCT, sp,
                          xs[0], xs[1], 6)
            return residual.is_zero()

        return run

    return Workload([make(c) for c in doc["checks"]])


def _cli_mix(doc: dict, in_process: bool) -> Workload:
    """One op per CLI call.  Untraced, each call is a fresh process; the
    traced run calls ``cli.main(argv)`` in this process instead."""
    from nambu_forge import cli

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def in_process_call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def subprocess_call(argv):
        proc = subprocess.run([sys.executable, "-m", "nambu_forge.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    call = in_process_call
    if not in_process:
        call = subprocess_call
        # the CLI processes inherit this, so they run on the CPU whose speed
        # this process measures between calls (see child.py)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def make(index: int, mode: str):
        argv = cli_calls.argv_for(index, mode)

        def run(op) -> bool:
            code, out = op(call, argv)
            return code == 0 and cli_calls.check_output(index, mode, out)

        return run

    return Workload([make(i, mode) for i, mode in doc["order"]])


def build(doc: dict, in_process_cli: bool = False) -> Workload:
    name = doc["workload"]
    if name == "cli-mix":
        return _cli_mix(doc, in_process_cli)
    return {
        "star-assoc": _star_assoc,
        "factor-roundtrip": _factor_roundtrip,
        "taylor-bracket": _taylor_bracket,
        "sun-su2": _sun_su2,
    }[name](doc)
