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
from .errors import InvalidArgumentError, NambuForgeError, ResourceLimitError
from .expr import parse_expr
from .poly import NuObject, Poly, VarSpace, qp_space, su2_space

ENV_PREFIX = "NAMBU_FORGE_"
DEFAULTS = {"nu_order": 8, "t_order": 6, "seed": 0, "degree_bound": factor_mod.DEFAULT_DEGREE_BOUND}


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


# star --product name -> (default space, constructor on a space); --vars
# replaces the default space, and su2 ignores it
_STAR_PRODUCTS = {
    "moyal": (qp_space, star_mod.moyal_product),
    "partial": (zariski_mod.zariski_space, star_mod.partial_moyal_product),
    "standard": (qp_space, star_mod.standard_ordering_product),
    "su2": (su2_space, lambda space: star_mod.su2_product()),
}


# check-fi bounds.  _rand_poly lowers an exponent one unit per pass, and a
# trial's cost grows with the degree until its 2-4 terms stop colliding: on a
# 2-vCPU x86_64 host, 1000 canonical3 trials take 1.0 s at degree 2, 6.7 s
# at degree 16 and 8.4 s at degree 100
CHECK_FI_DEGREE_BOUND = 100
CHECK_FI_TRIAL_BOUND = 1000


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
        "input": str(value),
        "unit": str(fac.unit),
        "factors": [{"poly": str(g), "multiplicity": m} for g, m in fac.factors],
    }
    return [text], data


def _exponential(exponential, product, args, cfg):
    """Text lines and JSON data of exponential(product, h, t_order), the
    t-series of the --exp Hamiltonian h."""
    h = parse_expr(args.exp, product.space)
    if not isinstance(h, Poly):
        raise InvalidArgumentError("the exponential argument must be a plain polynomial")
    series = exponential(product, h, cfg["t_order"])
    lines = [f"t^{r}: {c}" for r, c in enumerate(series.coeffs)]
    return lines, {"product": args.product, "t_order": series.truncation_order,
                   "coefficients": [str(c) for c in series.coeffs]}


def _cmd_star(args, cfg):
    default_space, make = _STAR_PRODUCTS[args.product]
    product = make(_space_from_names(cfg["vars"], True) if cfg["vars"] else default_space())
    if args.exp is not None:
        return _exponential(star_mod.star_exponential, product, args, cfg)
    if len(args.exprs) != 2:
        raise InvalidArgumentError("star needs exactly two expressions")
    f, g = (parse_expr(e, product.space) for e in args.exprs)
    op = star_mod.star_commutator if args.commutator else star_mod.star_mul
    text = str(op(product, f, g))
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
    text = str(nambu_mod.bracket_eval(bracket, fs))
    return [text], {"bracket": args.bracket, "result": text}


def _cmd_check_fi(args, cfg):
    bracket = _bracket_by_name(args.bracket)
    if args.degree < 0:
        raise InvalidArgumentError(f"--degree must be at least 0, got {args.degree}")
    if args.degree > CHECK_FI_DEGREE_BOUND:
        raise ResourceLimitError(
            f"--degree {args.degree} is over the check-fi degree bound {CHECK_FI_DEGREE_BOUND}"
        )
    trials = args.trials
    if trials < 1:
        raise InvalidArgumentError(f"--trials must be at least 1, got {trials}")
    if trials > CHECK_FI_TRIAL_BOUND:
        raise ResourceLimitError(
            f"--trials {trials} is over the check-fi trial bound {CHECK_FI_TRIAL_BOUND}"
        )
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


# zariski op -> (operand kind, arity, option, operation).  An operand is
# parsed and taken as a ZNu ("znu"), as its nu^0 part ("classical") or as the
# J-image of that part unless it already is a TaylorElem ("taylor").  An
# option (JSON key, argument name) is passed to the operation after the
# operands and reported in the JSON data.
_ZARISKI_OPS = {
    "mul": ("znu", 2, None, lambda star, a, b: zariski_mod.z_mul_nu(a, b, star)),
    "cmul": ("znu", 2, None, lambda star, a, b: zariski_mod.znu_mul_classical(a, b)),
    "power": ("znu", 1, ("m", "power"), lambda star, a, m: zariski_mod.znu_power_nu(a, m, star)),
    "delta": ("classical", 1, ("axis", "axis"), lambda star, a, i: zariski_mod.delta(i, a)),
    "jmap": ("classical", 1, None, lambda star, a: zariski_mod.jmap(a, star.space)),
    "amul": ("taylor", 2, None, lambda star, a, b: zariski_mod.a_mul_nu(a, b, star)),
    "qnambu": ("taylor", 3, None, lambda star, a, b, c: zariski_mod.quantum_nambu(a, b, c, star)),
}


def _zariski_operand(kind: str, value, space: VarSpace):
    if kind == "taylor" and isinstance(value, zariski_mod.TaylorElem):
        return value
    x = zariski_mod._as_znu(value)
    if kind == "znu":
        return x
    return x.classical() if kind == "classical" else zariski_mod.jmap(x.classical(), space)


def _cmd_zariski(args, cfg):
    space = zariski_mod.zariski_space(args.dim)
    star = zariski_mod.zariski_star(args.dim)
    if args.op == "frobenius":
        witness = zariski_mod.frobenius_counterexample_search(args.max_degree, space)
        if witness is None:
            text = f"not-found (degree bound {args.max_degree})"
            return [text], {"found": False, "max_degree": args.max_degree}
        data = {
            "found": True,
            "u": str(witness.u),
            "axes": [witness.i, witness.j],
            "lhs": str(witness.lhs),
            "rhs": str(witness.rhs),
        }
        lines = [
            f"witness: {witness.u}",
            f"delta_{witness.i} delta_{witness.j}: {witness.lhs}",
            f"delta_{witness.j} delta_{witness.i}: {witness.rhs}",
        ]
        return lines, data
    kind, arity, option, operation = _ZARISKI_OPS[args.op]
    if len(args.exprs) != arity:
        exactly = "exactly " if len(args.exprs) > arity else ""
        raise InvalidArgumentError(f"zariski {args.op} needs {exactly}{arity} expression(s)")
    operands = [_zariski_operand(kind, parse_expr(e, space, space), space) for e in args.exprs]
    data = {"op": args.op}
    if option:
        key, name = option
        data[key] = getattr(args, name)
        operands.append(data[key])
    data["result"] = text = str(operation(star, *operands))
    return [text], data


def _cmd_sun(args, cfg):
    sp = sun_mod.sun_su2() if args.product == "su2" else sun_mod.sun_moyal_standard()
    if args.exp is not None:
        return _exponential(sun_mod.sun_exponential, sp, args, cfg)
    if len(args.exprs) != 2:
        raise InvalidArgumentError("sun needs exactly two expressions")
    f, g = (parse_expr(e, sp.space) for e in args.exprs)
    if not (isinstance(f, (Poly, NuObject)) and isinstance(g, (Poly, NuObject))):
        raise InvalidArgumentError("sun operands must be polynomials or nu-polynomials")
    text = str(sun_mod.sun_mul(sp, f, g))
    return [text], {"product": args.product, "result": text}


def _cmd_equiv(args, cfg):
    space = su2_space()
    products = {"usual": sun_mod.USUAL_PRODUCT, "su2": sun_mod.sun_su2()}
    for name in (args.left, args.right):
        if name not in products:
            raise InvalidArgumentError(f"equiv compares the usual and su2 products on su(2)*, not {name!r}")
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
    residual = sun_mod.apply_equivalence(series, args.mode, products[args.left], products[args.right],
                                         f, g, cfg["nu_order"])
    text = str(residual)
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

    def add_parser(name, handler, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    def add_exprs(p, nargs="*"):
        # main appends the expressions that follow an option (see there)
        p.add_argument("exprs", nargs=nargs)
        p.set_defaults(trailing_exprs=True)

    p = add_parser("factor", _cmd_factor, "factor a polynomial into irreducibles")
    p.add_argument("expr")

    p = add_parser("star", _cmd_star, "star products, commutators, exponentials")
    p.add_argument("--product", default="moyal", choices=list(_STAR_PRODUCTS))
    p.add_argument("--commutator", action="store_true")
    p.add_argument("--exp", help="star exponential of this Hamiltonian")
    add_exprs(p)

    p = add_parser("nambu", _cmd_nambu, "evaluate a Nambu bracket")
    p.add_argument("--bracket", default="canonical3")
    add_exprs(p, "+")

    p = add_parser("check-fi", _cmd_check_fi, "randomized Fundamental Identity check")
    p.add_argument("--bracket", default="canonical3")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)

    p = add_parser("zariski", _cmd_zariski, "operations in the Zariski algebra")
    p.add_argument("op", choices=[*_ZARISKI_OPS, "frobenius"])
    add_exprs(p)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--axis", type=int, default=1)
    p.add_argument("--power", type=int, default=2)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=4)

    p = add_parser("sun", _cmd_sun, "sun products and exponentials")
    p.add_argument("--product", default="su2", choices=["su2", "ms"])
    p.add_argument("--exp", help="sun exponential of this Hamiltonian")
    add_exprs(p)

    p = add_parser("equiv", _cmd_equiv, "equivalence / triviality residuals")
    p.add_argument("--mode", choices=["A", "B"], required=True)
    p.add_argument("--left", default="usual")
    p.add_argument("--right", default="su2")
    p.add_argument("--s", default="identity", help="identity or weak-trivializer")
    p.add_argument("exprs", nargs=2)

    p = add_parser("spectrum", _cmd_spectrum, "harmonic-oscillator spectrum and Weyl checks")
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--band", type=int)
    p.add_argument("--deviation", nargs=2, metavar=("F", "G"))

    p = add_parser("evolve", _cmd_evolve, "integrate Nambu dynamics with RK4")
    p.add_argument("--system", choices=["euler", "nahm"], default="euler")
    p.add_argument("--inertia", default="1,2,3")
    p.add_argument("--state")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--csv", help="write the trajectory CSV here ('-' for stdout)")

    p = add_parser("coeffs", _cmd_coeffs, "sun-product coefficient tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", nargs=2, type=int, metavar=("N", "R"))
    group.add_argument("--table", nargs=2, type=int, metavar=("NMAX", "RMAX"))

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


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """parse_args, except that expressions may also follow options.

    argparse fills a subcommand's positionals together at the first of them,
    so an expression given after an option (``zariski power --power 3 EXPR``)
    comes back unparsed; such leftovers are appended to the expressions.
    """
    args, extra = parser.parse_known_args(argv)
    if extra:
        if not getattr(args, "trailing_exprs", False) or any(a.startswith("-") and a != "-" for a in extra):
            parser.error("unrecognized arguments: " + " ".join(extra))
        args.exprs += extra
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
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


def _envelope(command: str, status: str, **body) -> str:
    """The JSON document of one call: ``data`` when ok, ``error`` otherwise."""
    return json.dumps({"tool": "nambu-forge", "command": command, "status": status, **body},
                      sort_keys=True)


def _run(args, cfg) -> int:
    command = args.command
    try:
        lines, data, *code = args.handler(args, cfg)
    except NambuForgeError as exc:
        error = {"code": f"{command}.{exc.code}", "message": str(exc)}
        if getattr(args, "json", False):
            print(_envelope(command, "error", error=error))
        else:
            print(f"error[{error['code']}]: {error['message']}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(_envelope(command, "ok", data=data))
    else:
        for line in lines:
            print(line)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
