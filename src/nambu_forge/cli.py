"""Command-line front end.

Every subcommand maps to one operation family; output is canonical text by
default or a JSON envelope with ``--json``.  Exit codes: 0 success, 1 domain
error, 2 usage error.  Options resolve as flags > environment variables
(NAMBU_FORGE_*) > config file (key=value lines) > defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import factor as factor_mod
from . import nambu as nambu_mod
from . import star as star_mod
from . import sun as sun_mod
from . import zariski as zariski_mod
from .errors import InvalidArgumentError, NambuForgeError
from .expr import parse_expr, render
from .poly import NuObject, Poly, VarSpace, qp_space, su2_space

ENV_PREFIX = "NAMBU_FORGE_"
DEFAULTS = {"nu_order": 8, "t_order": 6, "seed": 0, "degree_bound": 12}


def load_schema() -> dict:
    from importlib import resources  # only the schema needs it; keep it out of start-up

    with resources.files("nambu_forge").joinpath("schema.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """A config file or environment value that cannot be used."""


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path!r}: not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    file_values = _read_config_file(path) if path else {}
    for key, default in DEFAULTS.items():
        value = getattr(args, key, None)
        source = None
        if value is None:
            env = os.environ.get(ENV_PREFIX + key.upper())
            if env is not None:
                value, source = env, ENV_PREFIX + key.upper()
            elif key in file_values:
                value, source = file_values[key], f"{key} in config file {path!r}"
        if value is not None:
            try:
                cfg[key] = type(default)(value)
            except ValueError:
                raise ConfigError(f"{source} must be an integer, got {value!r}") from None
    vars_opt = getattr(args, "vars", None) or os.environ.get(ENV_PREFIX + "VARS") or file_values.get("vars")
    cfg["vars"] = vars_opt
    return cfg


def _space_from_names(names: str, paired: bool) -> VarSpace:
    parts = tuple(s.strip() for s in names.split(",") if s.strip())
    pairs = tuple((2 * i, 2 * i + 1) for i in range(len(parts) // 2)) if paired else ()
    return VarSpace(parts, pairs)


def _default_space(product: str, vars_opt, paired: bool) -> VarSpace:
    if vars_opt:
        return _space_from_names(vars_opt, paired)
    if product in ("moyal", "standard"):
        return qp_space()
    if product == "su2":
        return su2_space()
    return zariski_mod.zariski_space(3)


def _star_product(name: str, space: VarSpace):
    if name == "moyal":
        return star_mod.moyal_product(space)
    if name == "partial":
        return star_mod.partial_moyal_product(space)
    if name == "standard":
        return star_mod.standard_ordering_product(space)
    if name == "su2":
        return star_mod.su2_product()
    raise InvalidArgumentError(f"unknown star product {name!r}")


def _rand_poly(space: VarSpace, degree: int, rng: random.Random) -> Poly:
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = [rng.randint(0, degree) for _ in range(space.nvars)]
        while sum(e) > degree:
            e[e.index(max(e))] -= 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(e)] = Fraction(c)
    return Poly(space, terms)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (text_lines, data_dict)


def _cmd_factor(args, cfg):
    space = _space_from_names(cfg["vars"], False) if cfg["vars"] else zariski_mod.zariski_space(3)
    value = parse_expr(args.expr, space)
    if not isinstance(value, Poly):
        raise InvalidArgumentError("factor expects a plain polynomial")
    fac = factor_mod.factorize(value, cfg["degree_bound"])
    pieces = [str(fac.unit)]
    for g, m in fac.factors:
        pieces.append(f"({g})" + (f"^{m}" if m > 1 else ""))
    text = " * ".join(pieces)
    data = {
        "input": render(value),
        "unit": str(fac.unit),
        "factors": [{"poly": str(g), "multiplicity": m} for g, m in fac.factors],
    }
    return [text], data


def _cmd_star(args, cfg):
    space = _default_space(args.product, cfg["vars"], paired=True)
    product = _star_product(args.product, space)
    if args.exp is not None:
        h = parse_expr(args.exp, product.space)
        if not isinstance(h, Poly):
            raise InvalidArgumentError("the exponential argument must be a plain polynomial")
        series = star_mod.star_exponential(product, h, cfg["t_order"])
        lines = [f"t^{r}: {render(series.coefficient(r))}" for r in range(series.truncation_order + 1)]
        data = {
            "product": args.product,
            "t_order": series.truncation_order,
            "coefficients": [render(c) for c in series.coeffs],
        }
        return lines, data
    if len(args.exprs) != 2:
        raise InvalidArgumentError("star needs exactly two expressions")
    f = parse_expr(args.exprs[0], product.space)
    g = parse_expr(args.exprs[1], product.space)
    op = star_mod.star_commutator if args.commutator else star_mod.star_mul
    result = op(product, f, g)
    text = render(result)
    return [text], {"product": args.product, "result": text,
                    "operation": "commutator" if args.commutator else "mul"}


def _bracket_by_name(name: str):
    for kind, make in (("canonical", nambu_mod.canonical_bracket),
                       ("linear", nambu_mod.linear_bracket)):
        order = name[len(kind):]
        if name.startswith(kind) and order.isascii() and order.isdigit():
            return make(int(order))
    raise InvalidArgumentError(f"unknown --bracket {name!r} (use canonicalN or linearN)")


def _cmd_nambu(args, cfg):
    bracket = _bracket_by_name(args.bracket)
    fs = [parse_expr(e, bracket.space) for e in args.exprs]
    if not all(isinstance(f, Poly) for f in fs):
        raise InvalidArgumentError("bracket arguments must be plain polynomials")
    result = nambu_mod.bracket_eval(bracket, fs)
    text = render(result)
    return [text], {"bracket": args.bracket, "result": text}


def _cmd_check_fi(args, cfg):
    bracket = _bracket_by_name(args.bracket)
    if args.degree < 0:
        raise InvalidArgumentError(f"--degree must be at least 0, got {args.degree}")
    trials = args.trials
    if trials < 1:
        raise InvalidArgumentError(f"--trials must be at least 1, got {trials}")
    arity = 2 * bracket.order - 1
    passes = 0
    for t in range(trials):
        rng = random.Random(cfg["seed"] * 1_000_003 + t)
        fs = [_rand_poly(bracket.space, args.degree, rng) for _ in range(arity)]
        passes += nambu_mod.check_fi(bracket, fs).is_zero()
    ok = passes == trials
    text = f"{'PASS' if ok else 'FAIL'} residual={'0' if ok else 'nonzero'} ({passes}/{trials})"
    data = {"bracket": args.bracket, "trials": trials, "passes": passes, "all_zero": ok}
    return [text], data, (0 if ok else 1)


_ZARISKI_ARITY = {"mul": 2, "cmul": 2, "power": 1, "delta": 1, "jmap": 1,
                  "amul": 2, "qnambu": 3, "frobenius": 0}


def _cmd_zariski(args, cfg):
    n = args.dim
    space = zariski_mod.zariski_space(n)
    star = zariski_mod.zariski_star(n)
    op = args.op
    need = _ZARISKI_ARITY[op]
    if len(args.exprs) < need:
        raise InvalidArgumentError(f"zariski {op} needs {need} expression(s)")

    def parse_z(src: str):
        return parse_expr(src, space, space)

    if op == "frobenius":
        witness = zariski_mod.frobenius_counterexample_search(args.max_degree, space)
        if witness is None:
            text = f"not-found (degree bound {args.max_degree})"
            return [text], {"found": False, "max_degree": args.max_degree}
        data = {
            "found": True,
            "u": str(witness.u),
            "axes": [witness.i, witness.j],
            "lhs": render(witness.lhs),
            "rhs": render(witness.rhs),
        }
        lines = [
            f"witness: {witness.u}",
            f"delta_{witness.i} delta_{witness.j}: {render(witness.lhs)}",
            f"delta_{witness.j} delta_{witness.i}: {render(witness.rhs)}",
        ]
        return lines, data
    if op == "mul":
        a, b = (_to_znu_value(parse_z(e)) for e in args.exprs[:2])
        result = zariski_mod.z_mul_nu(a, b, star)
        text = render(result)
        return [text], {"op": op, "result": text}
    if op == "cmul":
        a, b = (_to_znu_value(parse_z(e)) for e in args.exprs[:2])
        result = zariski_mod.znu_mul_classical(a, b)
        text = render(result)
        return [text], {"op": op, "result": text}
    if op == "power":
        a = _to_znu_value(parse_z(args.exprs[0]))
        result = zariski_mod.znu_power_nu(a, args.power, star)
        text = render(result)
        return [text], {"op": op, "m": args.power, "result": text}
    if op == "delta":
        a = _to_znu_value(parse_z(args.exprs[0])).classical()
        result = zariski_mod.delta(args.axis, a)
        text = render(result)
        return [text], {"op": op, "axis": args.axis, "result": text}
    if op == "jmap":
        a = _to_znu_value(parse_z(args.exprs[0])).classical()
        result = zariski_mod.jmap(a, space)
        text = render(result)
        return [text], {"op": op, "result": text}
    if op == "amul":
        a, b = (_to_taylor_value(parse_z(e), space) for e in args.exprs[:2])
        result = zariski_mod.a_mul_nu(a, b, star)
        text = render(result)
        return [text], {"op": op, "result": text}
    if op == "qnambu":
        xs = [_to_taylor_value(parse_z(e), space) for e in args.exprs[:3]]
        result = zariski_mod.quantum_nambu(xs[0], xs[1], xs[2], star)
        text = render(result)
        return [text], {"op": op, "result": text}
    raise InvalidArgumentError(f"unknown zariski operation {op!r}")


def _to_znu_value(value) -> zariski_mod.ZNu:
    if isinstance(value, zariski_mod.ZNu):
        return value
    if isinstance(value, zariski_mod.ZElem):
        return zariski_mod.ZNu.from_zelem(value)
    if isinstance(value, Poly):
        return zariski_mod.ZNu.from_zelem(zariski_mod.zelem_from_poly(value))
    raise InvalidArgumentError("expected a Zariski-algebra element")


def _to_taylor_value(value, space) -> zariski_mod.TaylorElem:
    if isinstance(value, zariski_mod.TaylorElem):
        return value
    return zariski_mod.jmap(_to_znu_value(value).classical(), space)


def _sun_product_by_name(name: str):
    if name == "su2":
        return sun_mod.sun_su2()
    if name == "ms":
        return sun_mod.sun_moyal_standard()
    raise InvalidArgumentError(f"unknown sun product {name!r} (use su2 or ms)")


def _cmd_sun(args, cfg):
    sp = _sun_product_by_name(args.product)
    if args.exp is not None:
        h = parse_expr(args.exp, sp.space)
        if not isinstance(h, Poly):
            raise InvalidArgumentError("the exponential argument must be a plain polynomial")
        series = sun_mod.sun_exponential(sp, h, cfg["t_order"])
        lines = [f"t^{r}: {render(series.coefficient(r))}" for r in range(series.truncation_order + 1)]
        return lines, {"product": args.product, "t_order": series.truncation_order,
                       "coefficients": [render(c) for c in series.coeffs]}
    if len(args.exprs) != 2:
        raise InvalidArgumentError("sun needs exactly two expressions")
    f = parse_expr(args.exprs[0], sp.space)
    g = parse_expr(args.exprs[1], sp.space)
    if not (isinstance(f, (Poly, NuObject)) and isinstance(g, (Poly, NuObject))):
        raise InvalidArgumentError("sun operands must be polynomials or nu-polynomials")
    text = render(sun_mod.sun_mul(sp, f, g))
    return [text], {"product": args.product, "result": text}


def _cmd_equiv(args, cfg):
    space = su2_space()

    def product_by_name(name):
        if name == "usual":
            return sun_mod.USUAL_PRODUCT
        if name == "su2":
            return sun_mod.sun_su2()
        raise InvalidArgumentError(f"equiv compares the usual and su2 products on su(2)*, not {name!r}")

    p1 = product_by_name(args.left)
    p2 = product_by_name(args.right)
    if args.s == "identity":
        series = sun_mod.identity_series(space)
    elif args.s == "weak-trivializer":
        series = sun_mod.weak_trivializer(max(1, cfg["nu_order"] // 2), space)
    else:
        raise InvalidArgumentError(f"unknown intertwiner {args.s!r}")
    f = parse_expr(args.exprs[0], space)
    g = parse_expr(args.exprs[1], space)
    if not (isinstance(f, Poly) and isinstance(g, Poly)):
        raise InvalidArgumentError("equivalence checks take plain polynomials")
    residual = sun_mod.apply_equivalence(series, args.mode, p1, p2, f, g, cfg["nu_order"])
    text = render(residual)
    zero = residual.is_zero()
    lines = [f"residual: {text}", "equivalent to this order" if zero else "not equivalent"]
    return lines, {"mode": args.mode, "left": args.left, "right": args.right,
                   "s": args.s, "nu_order": cfg["nu_order"], "residual": text, "zero": zero}


def _cmd_spectrum(args, cfg):
    from . import weyl as weyl_mod  # numpy is imported only for this command

    trunc = weyl_mod.FockTruncation(args.dim, args.hbar)
    if args.deviation:
        space = qp_space()
        f = parse_expr(args.deviation[0], space)
        g = parse_expr(args.deviation[1], space)
        if not (isinstance(f, Poly) and isinstance(g, Poly)):
            raise InvalidArgumentError("deviation check takes plain polynomials")
        band = args.band or args.dim // 2
        dev = weyl_mod.star_vs_operator(f, g, trunc, band)
        text = f"star-vs-operator deviation: {dev:.3e}"
        return [text], {"deviation": dev, "dim": args.dim, "hbar": args.hbar, "band": band}
    values = weyl_mod.ho_spectrum(trunc, args.levels)
    lines = [f"E_{n} = {v!r}" for n, v in enumerate(values)]
    return lines, {"dim": args.dim, "hbar": args.hbar, "eigenvalues": values}


def _numbers(option: str, text: str, kind) -> tuple:
    try:
        return tuple(kind(s) for s in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"{option} takes comma-separated numbers, got {text!r}") from None


def _cmd_evolve(args, cfg):
    if args.system == "euler":
        inertia = _numbers("--inertia", args.inertia, Fraction)
        state = _numbers("--state", args.state, float) if args.state else (1.0, 1.0, 1.0)
        dyn = nambu_mod.euler_top_dynamics(inertia, state, args.step)
    elif args.system == "nahm":
        state = _numbers("--state", args.state, float) if args.state else (0.2, 0.3, 0.4)
        dyn = nambu_mod.nahm_dynamics(state, args.step)
    else:
        raise InvalidArgumentError(f"unknown system {args.system!r}")
    result = nambu_mod.evolve(dyn, args.horizon, args.step)
    if args.csv:
        csv_text = result.to_csv(dyn.bracket.space.names)
        if args.csv == "-":
            sys.stdout.write(csv_text)
        else:
            try:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    fh.write(csv_text)
            except OSError as exc:
                raise InvalidArgumentError(
                    f"--csv cannot write {args.csv!r}: {exc.strerror}"
                ) from None
    report = result.report()
    lines = [
        f"steps: {report['steps']}",
        "max relative drift: " + ", ".join(f"H{k+1}={v:.3e}" for k, v in enumerate(report["max_relative_drift"])),
        f"divergence identically zero: {report['divergence_zero']}",
    ]
    data = dict(report)
    data["system"] = args.system
    if args.csv and args.csv != "-":
        data["csv"] = args.csv
    return lines, data


def _cmd_coeffs(args, cfg):
    if args.a:
        n, r = args.a
        rec = sun_mod.a_recursion(n, r)
        if n >= 2 * r:
            closed = sun_mod.a_closed_form(n, r)
            agree = rec == closed
            closed_text = str(closed)
        else:
            closed, agree, closed_text = None, None, "undefined (needs n >= 2r)"
        text = f"a({n},{r}): recursion={rec} closed-form={closed_text} agree={agree}"
        return [text], {"n": n, "r": r, "recursion": str(rec),
                        "closed_form": None if closed is None else str(closed), "agree": agree}
    n_max, r_max = args.table
    table = sun_mod.sun_coefficients(n_max, r_max)
    lines = []
    for (n, r), val in sorted(table.closed.items()):
        lines.append(f"a({n},{r}) = {table.recursion[(n, r)]}")
    lines.append(f"tables agree: {table.agree()}")
    data = {
        "n_max": n_max,
        "r_max": r_max,
        "agree": table.agree(),
        "values": {f"{n},{r}": str(v) for (n, r), v in sorted(table.recursion.items()) if n >= 2 * r},
    }
    return lines, data


# ---------------------------------------------------------------------------
# argument parsing


def _common_options() -> argparse.ArgumentParser:
    # SUPPRESS keeps the subparser from overwriting values the main parser
    # already placed in the namespace
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")
    common.add_argument("--config", help="path to a key=value config file")
    common.add_argument("--vars", help="comma-separated variable names")
    common.add_argument("--nu-order", dest="nu_order", type=int, help="truncation order in nu")
    common.add_argument("--t-order", dest="t_order", type=int, help="truncation order in t")
    common.add_argument("--seed", type=int, help="seed for randomized checkers")
    common.add_argument("--degree-bound", dest="degree_bound", type=int,
                        help="total-degree bound for factorization")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="nambu-forge",
        description="Exact Nambu brackets, star and sun products, and Zariski quantization.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("factor", help="factor a polynomial into irreducibles")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_factor)

    p = add_parser("star", help="star products, commutators, exponentials")
    p.add_argument("--product", default="moyal", choices=["moyal", "partial", "standard", "su2"])
    p.add_argument("--commutator", action="store_true")
    p.add_argument("--exp", help="star exponential of this Hamiltonian")
    p.add_argument("exprs", nargs="*")
    p.set_defaults(handler=_cmd_star)

    p = add_parser("nambu", help="evaluate a Nambu bracket")
    p.add_argument("--bracket", default="canonical3")
    p.add_argument("exprs", nargs="+")
    p.set_defaults(handler=_cmd_nambu)

    p = add_parser("check-fi", help="randomized Fundamental Identity check")
    p.add_argument("--bracket", default="canonical3")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=_cmd_check_fi)

    p = add_parser("zariski", help="operations in the Zariski algebra")
    p.add_argument("op", choices=["mul", "cmul", "power", "delta", "jmap", "amul", "qnambu", "frobenius"])
    p.add_argument("exprs", nargs="*")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--axis", type=int, default=1)
    p.add_argument("--power", type=int, default=2)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=4)
    p.set_defaults(handler=_cmd_zariski)

    p = add_parser("sun", help="sun products and exponentials")
    p.add_argument("--product", default="su2", choices=["su2", "ms"])
    p.add_argument("--exp", help="sun exponential of this Hamiltonian")
    p.add_argument("exprs", nargs="*")
    p.set_defaults(handler=_cmd_sun)

    p = add_parser("equiv", help="equivalence / triviality residuals")
    p.add_argument("--mode", choices=["A", "B"], required=True)
    p.add_argument("--left", default="usual")
    p.add_argument("--right", default="su2")
    p.add_argument("--s", default="identity", help="identity or weak-trivializer")
    p.add_argument("exprs", nargs=2)
    p.set_defaults(handler=_cmd_equiv)

    p = add_parser("spectrum", help="harmonic-oscillator spectrum and Weyl checks")
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--band", type=int)
    p.add_argument("--deviation", nargs=2, metavar=("F", "G"))
    p.set_defaults(handler=_cmd_spectrum)

    p = add_parser("evolve", help="integrate Nambu dynamics with RK4")
    p.add_argument("--system", choices=["euler", "nahm"], default="euler")
    p.add_argument("--inertia", default="1,2,3")
    p.add_argument("--state")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--csv", help="write the trajectory CSV here ('-' for stdout)")
    p.set_defaults(handler=_cmd_evolve)

    p = add_parser("coeffs", help="sun-product coefficient tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", nargs=2, type=int, metavar=("N", "R"))
    group.add_argument("--table", nargs=2, type=int, metavar=("NMAX", "RMAX"))
    p.set_defaults(handler=_cmd_coeffs)

    return parser


def _expand_stdin(args: argparse.Namespace) -> None:
    """Replace '-' expression arguments with text read from stdin (once)."""
    content = None

    def sub(value):
        nonlocal content
        if value == "-":
            if content is None:
                content = sys.stdin.read().strip()
            return content
        return value

    for attr in ("expr", "exp"):
        if getattr(args, attr, None) is not None:
            setattr(args, attr, sub(getattr(args, attr)))
    for attr in ("exprs", "deviation"):
        values = getattr(args, attr, None)
        if values:
            setattr(args, attr, [sub(v) for v in values])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        parser.error(str(exc))
    _expand_stdin(args)
    try:
        code = _run(args, cfg)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say, a pipe into head); stdout goes
        # to devnull so that the flush at interpreter exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args, cfg) -> int:
    command = args.command
    try:
        result = args.handler(args, cfg)
    except NambuForgeError as exc:
        return _emit_error(args, command, f"{command}.{exc.code}", str(exc))
    if len(result) == 3:
        lines, data, code = result
    else:
        lines, data = result
        code = 0
    if getattr(args, "json", False):
        doc = {"tool": "nambu-forge", "command": command, "status": "ok", "data": data}
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(args, command: str, code: str, message: str) -> int:
    if getattr(args, "json", False):
        doc = {
            "tool": "nambu-forge",
            "command": command,
            "status": "error",
            "error": {"code": code, "message": message},
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"error[{code}]: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
