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

from .errors import ExprSyntaxError, InvalidArgumentError, ResourceLimitError
from .poly import NuObject, Poly, VarSpace, _mul_into
from .zariski import (
    TaylorElem,
    ZElem,
    ZNu,
    jmap,
    taylor_mul_classical,
    zariski_space,
    zmonomial,
)

__all__ = ["parse_expr", "render"]


# the most term products the '*' and '^' of one parse may form, counted before
# each product is formed.  One product takes 2-3 us on a 2-vCPU x86_64 host:
# the 163,680 products of (3*x1+2*x2-x3+1)^30 take 0.32 s and the 500,000
# one-term products of x1^500000 about 1.3 s, while (x1+x2+x3+1)^60 (2.4
# million) ran 14-15 s and (q+p+1)^400 (32 million) over 25 s before this
# bound refused them
PARSE_TERM_BOUND = 500_000

# one token after optional whitespace: uint (ASCII digits only), ident,
# symbol, or any other character, which is an error
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([^\W\d_]\w*)|([-+*^()\[\];/])|(\S))")
_KINDS = (None, "uint", "ident", None, None)
_X3 = zariski_space(3)


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
    map keyed by exponent + (nu power,); one Fraction per int coefficient."""
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
    Zariski algebra a value is a TaylorElem."""

    def __init__(self, src: str, space: VarSpace, zspace: VarSpace):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space = space
        self.zspace = zspace
        self.one = (0,) * (space.nvars + 1)
        self.products = 0
        idents = {v for k, v, _ in self.tokens if k == "ident"}
        self.zariski_mode = "Z" in idents or "J" in idents or any(map(self._is_yvar, idents))

    def _is_yvar(self, name: str) -> bool:
        if len(name) < 2 or name[0] != "y" or not name[1:].isdigit():
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
    def _const(self, c, poly_ctx: bool):
        if poly_ctx:
            return {self.one: c} if c else {}
        return TaylorElem(
            self.zspace,
            {(0,) * self.zspace.nvars: ZNu.from_zelem(ZElem.unit(c))},
            in_a=True,
        )

    def _nu(self, power: int, poly_ctx: bool):
        if poly_ctx:
            return {self.one[:-1] + (power,): 1}
        if power < 0:
            raise ExprSyntaxError("negative nu powers are not defined here", self.peek()[2])
        return TaylorElem(
            self.zspace,
            {(0,) * self.zspace.nvars: ZNu({power: ZElem.unit()})},
            in_a=True,
        )

    def _times(self, a: dict, b: dict) -> dict:
        self.products += len(a) * len(b)
        if self.products > PARSE_TERM_BOUND:
            raise ResourceLimitError(
                f"parse of {self.products} term products is over the parse term bound "
                f"{PARSE_TERM_BOUND}"
            )
        row: dict = {}
        _mul_into(row, a, b, 1)
        if len(a) == 1 or len(b) == 1:
            return row  # the keys are distinct and no product is zero
        return {e: c for e, c in row.items() if c}

    def _mul(self, a, b):
        if isinstance(a, dict):
            return self._times(a, b)
        return taylor_mul_classical(a, b)

    def _pow(self, a, k: int):
        # negative exponents are intercepted at the factor level (nu only)
        out = self._const(1, isinstance(a, dict))
        for _ in range(k):
            out = self._mul(out, a)
            if isinstance(out, dict) and not out:
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
        if negate:
            value = {e: -c for e, c in value.items()} if poly_ctx else value.scale(-1)
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            rhs = self.term(poly_ctx)
            if poly_ctx:
                _add_terms(value, rhs, sign)  # every term is a fresh map
            else:
                value = value + rhs if sign > 0 else value - rhs
        return value

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
            value = self.expr(poly_ctx)
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
                e = [0] * self.zspace.nvars
                e[int(text[1:]) - 1] = 1
                return TaylorElem(
                    self.zspace, {tuple(e): ZNu.from_zelem(ZElem.unit())}, in_a=False
                )
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
                factors.append(_demote_poly(self.space, self.expr(poly_ctx=True), at))
                if self.peek()[0] == ";":
                    self.next()
                    continue
                break
        self.expect("]")
        try:
            mono = zmonomial(factors)
        except InvalidArgumentError as exc:
            raise ExprSyntaxError(str(exc), at) from None
        return TaylorElem(
            self.zspace,
            {(0,) * self.zspace.nvars: ZNu.from_zelem(ZElem.basis(mono))},
            in_a=False,
        )

    def _jatom(self, at: int):
        self.expect("(")
        value = self.expr(poly_ctx=False)
        self.expect(")")
        z = _demote_zelem(value, at)
        return jmap(z, self.zspace)


def _demote_poly(space: VarSpace, terms: dict, at: int) -> Poly:
    value = _nu_value(space, terms)
    if isinstance(value, NuObject):
        raise ExprSyntaxError("nu is not allowed inside Z[...]", at)
    return value


def _demote_zelem(value, at: int) -> ZElem:
    if not isinstance(value, TaylorElem):
        raise ExprSyntaxError("expected a Zariski element", at)
    const = value.y_constant()
    if list(value.terms) not in ([], [(0,) * value.space.nvars]):
        raise ExprSyntaxError("J(...) takes a plain Zariski element", at)
    if set(const.coeffs) - {0}:
        raise ExprSyntaxError("J(...) takes a nu-free Zariski element", at)
    return const.classical()


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
    yzero = (0,) * value.space.nvars
    if list(value.terms) in ([], [yzero]):
        znu = value.y_constant()
        if set(znu.coeffs) <= {0}:
            return znu.classical()
        return znu
    return value


def render(value) -> str:
    """Canonical text for any value parse_expr can return: its ``str``."""
    if not isinstance(value, (Poly, NuObject, ZElem, ZNu, TaylorElem)):
        raise InvalidArgumentError(f"cannot render {type(value).__name__}")
    return str(value)
