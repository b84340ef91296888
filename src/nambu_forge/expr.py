"""Expression parser for polynomials, nu-objects and Zariski-algebra
elements, inverse to the canonical renderers.

Grammar (whitespace insensitive)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' ['-'] uint)?
    atom     := rational | var | 'nu' | 'Z' '[' polylist ']'
              | 'J' '(' expr ')' | '(' expr ')'
    polylist := (expr (';' expr)*)?
    rational := uint ['/' uint]
    uint     := [0-9]+

Variables come from the active space; ``y1``, ``y2``, ... and ``Z[...]`` and
``J(...)`` atoms switch the evaluation into the Zariski algebra.  A signed
exponent is accepted only on ``nu`` so Laurent objects round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import ExprSyntaxError, InvalidArgumentError, ResourceLimitError
from .poly import NuObject, Poly, VarSpace, _add_rows, _mul_into, zariski_space

__all__ = ["parse_expr", "render"]


# the most term products the '*' and '^' of one parse may form, counted before
# each is formed (a power's k products at once, at least the base's size
# each).  A product of poly-context maps counts len(a) * len(b); one unit
# takes about 2.2 us on a 2-vCPU x86_64 host: (3*x1+2*x2-x3+1)^30 (163,680)
# takes 0.21 s, x1^500000 1.1 s, while (x1+x2+x3+1)^60 (2.4 million) ran
# 14-15 s before this bound.  A Taylor product (Zariski context) counts
# TAYLOR_UNIT_WEIGHT times the product of the operands' entry counts, at
# least 1 each: one entry pair takes 20-25 us there (y1^50000 1.2 s,
# y1^20000*Z[x1] 0.46 s, 300-entry operands times each other 11-22 us), so a
# parse at the bound costs about 1 s in either context: y1^41666 1.0 s
PARSE_TERM_BOUND = 500_000
TAYLOR_UNIT_WEIGHT = 12

# the most '(', 'J(' and 'Z[' one parse may have open at once: five or six
# Python frames each, so at most 600 of the default recursion limit of 1000
# (x1 inside 300 pairs of parentheses overflowed it before this bound)
PARSE_DEPTH_BOUND = 100

# one token after optional whitespace: uint (ASCII digits only), ident,
# symbol, or any other character, which is an error
_IDENT = r"[^\W\d_]\w*"
_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({_IDENT})|([-+*^()\[\];/])|(\S))")
_KINDS = (None, "uint", "ident", None, None)
_X3 = zariski_space(3)  # the default space of both contexts, built once


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text, at = m[group], m.start(group)
        if group == 4:
            raise ExprSyntaxError(f"unexpected character {text!r}", at)
        tokens.append((_KINDS[group] or text, text, at))
    tokens.append(("end", "", len(src)))
    return tokens


def _int(tok) -> int:
    try:
        return int(tok[1])
    except ValueError:  # over the interpreter's limit on integer string length
        raise ExprSyntaxError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None


def _add_terms(acc: dict, terms: dict, sign: int) -> None:
    """acc += sign * terms in place.  An entry that cancels is removed, so a
    later term with its key goes to the end: the order a sum of Polys gives."""
    for e, c in terms.items():
        c = acc.get(e, 0) + c if sign > 0 else acc.get(e, 0) - c
        if c:
            acc[e] = c
        else:
            del acc[e]


def _nu_value(space: VarSpace, terms: dict):
    """The Poly, or the NuObject if a nu power other than 0 occurs, of a term
    map keyed by exponent + (nu power,); int coefficients build no Fraction."""
    rows: dict = {}
    for e, c in terms.items():
        rows.setdefault(e[-1], {})[e[:-1]] = c
    if rows.keys() <= {0}:
        return Poly(space, rows.get(0, {}))
    return NuObject(space, {k: Poly(space, row) for k, row in rows.items()})


class _Parser:
    """Recursive-descent parser producing values in one of two algebras.

    In poly context a value is one sparse map keyed by exponent + (nu power,)
    with int coefficients (Fractions only from a/b literals), the layout
    poly._mul_into multiplies; sums are added into one map in place.  In the
    Zariski algebra a value is a TaylorElem; the integer rows of a sum's terms
    are added over their common denominator into one row map and one
    TaylorElem is built from it at the end.  The
    zariski module is imported only for text in the Zariski algebra."""

    def __init__(self, src: str, space: VarSpace, zspace: VarSpace):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space = space
        self.zspace = zspace
        self.one = (0,) * (space.nvars + 1)
        self.zone = (0,) * (zspace.nvars + 1)
        self.products = 0
        self.depth = 0
        idents = {v for k, v, _ in self.tokens if k == "ident"}
        self.zariski_mode = "Z" in idents or "J" in idents or any(map(self._is_yvar, idents))
        if self.zariski_mode:
            from . import zariski

            self.zariski = zariski

    def _is_yvar(self, name: str) -> bool:
        """Whether name is a y-variable: y1, y2, ... of the Zariski space,
        unless the active space declares a variable of that name."""
        if len(name) < 2 or name[0] != "y" or not name[1:].isdigit() or name in self.space.names:
            return False
        return 1 <= int(name[1:]) <= self.zspace.nvars

    # -- token plumbing ----------------------------------------------------
    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- value helpers -----------------------------------------------------
    def _taylor(self, key: tuple, z, in_a: bool):
        """The TaylorElem of one ZElem z at key y-exponent + (nu power,)."""
        return self.zariski.TaylorElem(self.zspace, {key: z}, in_a=in_a)

    def _const(self, c, poly_ctx: bool):
        if poly_ctx:
            return {self.one: c} if c else {}
        return self._taylor(self.zone, self.zariski.ZElem.unit(c), True)

    def _nu(self, power: int, poly_ctx: bool):
        if poly_ctx:
            return {self.one[:-1] + (power,): 1}
        if power < 0:
            raise ExprSyntaxError("negative nu powers are not defined here", self.peek()[2])
        return self._taylor(self.zone[:-1] + (power,), self.zariski.ZElem.unit(), True)

    def _count(self, work: int, ahead: int = 0) -> None:
        """Count work products about to be formed and ahead more to follow."""
        self.products += work
        if self.products + ahead > PARSE_TERM_BOUND:
            raise ResourceLimitError(f"parse of {self.products + ahead} term products is over "
                                     f"the parse term bound {PARSE_TERM_BOUND}")

    def _inner(self, poly_ctx: bool):
        """An expr inside one more open '(', 'J(' or 'Z['."""
        self.depth += 1
        if self.depth > PARSE_DEPTH_BOUND:
            raise ResourceLimitError(f"brackets nested {self.depth} deep are over the parse depth "
                                     f"bound {PARSE_DEPTH_BOUND}")
        value = self.expr(poly_ctx)
        self.depth -= 1
        return value

    def _times(self, a: dict, b: dict) -> dict:
        self._count(len(a) * len(b))
        row: dict = {}
        _mul_into(row, a, b)
        return {e: c for e, c in row.items() if c}

    def _mul(self, a, b):
        if isinstance(a, dict):
            return self._times(a, b)
        self._count(TAYLOR_UNIT_WEIGHT * max(1, _size(a)) * max(1, _size(b)))
        return a * b

    def _pow(self, a, k: int):
        # negative exponents are intercepted at the factor level (nu only)
        poly_ctx = isinstance(a, dict)
        out = self._const(1, poly_ctx)
        size = _size(a)
        # each of the k products counts at least size
        self._count(0, k * size * (1 if poly_ctx else TAYLOR_UNIT_WEIGHT))
        for _ in range(k):
            out = self._mul(out, a)
            if not size:
                break  # a zero base stays zero
        return out

    # -- grammar -----------------------------------------------------------
    def parse(self):
        poly_ctx = not self.zariski_mode
        value = self.expr(poly_ctx)
        self.expect("end")
        return value

    def expr(self, poly_ctx: bool):
        negate = False
        if self.peek()[0] == "-":
            self.next()
            negate = True
        value = self.term(poly_ctx)
        if poly_ctx:
            if negate:
                value = {e: -c for e, c in value.items()}
            while self.peek()[0] in ("+", "-"):
                sign = 1 if self.next()[0] == "+" else -1
                _add_terms(value, self.term(poly_ctx), sign)  # every term is a fresh map
            return value
        if self.peek()[0] not in ("+", "-"):
            return value.scale(-1) if negate else value
        parts = [(-1 if negate else 1, value)]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            parts.append((sign, self.term(poly_ctx)))
        d = lcm(*(v.den for _, v in parts))
        rows: dict = {}
        for sign, v in parts:
            _add_rows(rows, v.rows, sign * (d // v.den))
        return self.zariski.TaylorElem._of(self.zspace, rows, d, all(v.in_a for _, v in parts))

    def term(self, poly_ctx: bool):
        value = self.factor(poly_ctx)
        while self.peek()[0] == "*":
            self.next()
            value = self._mul(value, self.factor(poly_ctx))
        return value

    def factor(self, poly_ctx: bool):
        base_tok = self.peek()
        value = self.atom(poly_ctx)
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            k = _int(self.expect("uint")) * sign
            if sign < 0:
                # only nu itself may carry a Laurent power
                if not (base_tok[0] == "ident" and base_tok[1] == "nu"):
                    raise ExprSyntaxError("negative exponent is allowed on nu only", base_tok[2])
                return self._nu(k, poly_ctx)
            value = self._pow(value, k)
        return value

    def atom(self, poly_ctx: bool):
        tok = self.next()
        kind, text, at = tok
        if kind == "uint":
            num = _int(tok)
            if self.peek()[0] == "/":
                self.next()
                den = _int(self.expect("uint"))
                if den == 0:
                    raise ExprSyntaxError("zero denominator", at)
                return self._const(Fraction(num, den), poly_ctx)
            return self._const(num, poly_ctx)
        if kind == "(":
            value = self._inner(poly_ctx)
            self.expect(")")
            return value
        if kind == "ident":
            if text == "nu":
                return self._nu(1, poly_ctx)
            if text in ("Z", "J"):
                if poly_ctx:  # only inside Z[...]
                    raise ExprSyntaxError("expected a polynomial", at)
                return self._zmonomial(at) if text == "Z" else self._jatom(at)
            if not poly_ctx and self._is_yvar(text):
                e = list(self.zone)
                e[int(text[1:]) - 1] = 1
                return self._taylor(tuple(e), self.zariski.ZElem.unit(), False)
            if poly_ctx:
                try:
                    idx = self.space.index(text)
                except InvalidArgumentError as exc:
                    raise ExprSyntaxError(str(exc), at) from None
                e = list(self.one)
                e[idx] = 1
                return {tuple(e): 1}
            raise ExprSyntaxError(
                f"variable {text!r} is not allowed outside Z[...] here", at
            )
        raise ExprSyntaxError(f"unexpected token {text!r}", at)

    def _zmonomial(self, at: int):
        self.expect("[")
        factors = []
        if self.peek()[0] != "]":
            while True:
                factors.append(_demote_poly(self.space, self._inner(poly_ctx=True), at))
                if self.peek()[0] == ";":
                    self.next()
                    continue
                break
        self.expect("]")
        z = self.zariski
        try:
            mono = z.zmonomial(factors)
        except InvalidArgumentError as exc:
            raise ExprSyntaxError(str(exc), at) from None
        return self._taylor(self.zone, z.ZElem.basis(mono), False)

    def _jatom(self, at: int):
        self.expect("(")
        value = self._inner(poly_ctx=False)
        self.expect(")")
        return self.zariski.jmap(_demote_zelem(value, at), self.zspace)


def _size(value) -> int:
    """Terms of a poly-context map, or (y-exponent, nu power, Z-monomial)
    entries of a TaylorElem."""
    if isinstance(value, dict):
        return len(value)
    return sum(map(len, value.rows.values()))


def _demote_poly(space: VarSpace, terms: dict, at: int) -> Poly:
    value = _nu_value(space, terms)
    if isinstance(value, NuObject):
        raise ExprSyntaxError("nu is not allowed inside Z[...]", at)
    return value


def _y_free(value) -> bool:
    """Whether a TaylorElem has no y content."""
    return not any(any(k[:-1]) for k in value.rows)


def _demote_zelem(value, at: int):
    """The ZElem of a Zariski-context value with no y and no nu content."""
    if not _y_free(value):
        raise ExprSyntaxError("J(...) takes a plain Zariski element", at)
    const = value.y_constant()
    if const.rows.keys() - {(0,)}:
        raise ExprSyntaxError("J(...) takes a nu-free Zariski element", at)
    return const.classical()


def is_variable_name(name: str) -> bool:
    """Whether an expression can name a variable called ``name``: an
    identifier token that the grammar does not read as nu, Z or J."""
    return re.fullmatch(_IDENT, name) is not None and name not in ("nu", "Z", "J")


def parse_expr(src: str, space: VarSpace = None, zspace: VarSpace = None):
    """Parse text into the most specific value it denotes.

    Returns a Poly, NuObject, ZElem, ZNu or TaylorElem.  ``space`` is the
    active variable space for plain polynomials (default x1..x3); ``zspace``
    is the coordinate space of the Zariski algebra.
    """
    space = _X3 if space is None else space
    zspace = _X3 if zspace is None else zspace
    value = _Parser(src, space, zspace).parse()
    if isinstance(value, dict):
        return _nu_value(space, value)
    # TaylorElem: demote when it carries no y content / no nu content
    if _y_free(value):
        znu = value.y_constant()
        if znu.rows.keys() <= {(0,)}:
            return znu.classical()
        return znu
    return value


def render(value) -> str:
    """Canonical text for any value parse_expr can return: its ``str``."""
    if not isinstance(value, (Poly, NuObject)):
        from .zariski import TaylorElem, ZElem, ZNu

        if not isinstance(value, (ZElem, ZNu, TaylorElem)):
            raise InvalidArgumentError(f"cannot render {type(value).__name__}")
    return str(value)
