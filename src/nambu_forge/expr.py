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

Variables come from the active space; ``y1``, ``y2``, ... and ``Z[...]`` and
``J(...)`` atoms switch the evaluation into the Zariski algebra.  A signed
exponent is accepted only on ``nu`` so Laurent objects round-trip.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, InvalidArgumentError
from .poly import NuObject, Poly, VarSpace
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


_SYMBOLS = set("+-*^()[];/")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("uint", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser producing values in one of two algebras."""

    def __init__(self, src: str, space: VarSpace, zspace: VarSpace):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space = space
        self.zspace = zspace
        self.zariski_mode = any(
            (k == "ident" and (v == "Z" or v == "J" or self._is_yvar(v)))
            for k, v, _ in self.tokens
        )

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
    def _const(self, c: Fraction, poly_ctx: bool):
        if poly_ctx:
            return NuObject.from_poly(Poly.const(self.space, c))
        return TaylorElem(
            self.zspace,
            {(0,) * self.zspace.nvars: ZNu.from_zelem(ZElem.unit(c))},
            in_a=True,
        )

    def _nu(self, power: int, poly_ctx: bool):
        if poly_ctx:
            return NuObject(self.space, {power: Poly.const(self.space, 1)})
        if power < 0:
            raise ExprSyntaxError("negative nu powers are not defined here", self.peek()[2])
        return TaylorElem(
            self.zspace,
            {(0,) * self.zspace.nvars: ZNu({power: ZElem.unit()})},
            in_a=True,
        )

    def _mul(self, a, b):
        if isinstance(a, NuObject):
            return a * b
        return taylor_mul_classical(a, b)

    def _pow(self, a, k: int):
        # negative exponents are intercepted at the factor level (nu only)
        if isinstance(a, NuObject):
            out = NuObject.one(self.space)
            for _ in range(k):
                out = out * a
            return out
        out = self._const(Fraction(1), poly_ctx=False)
        for _ in range(k):
            out = taylor_mul_classical(out, a)
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
            value = -value if isinstance(value, NuObject) else value.scale(-1)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term(poly_ctx)
            if op == "+":
                value = value + rhs
            else:
                value = value - rhs
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
            k = int(self.expect("uint")[1]) * sign
            if sign < 0:
                # only nu itself may carry a Laurent power
                if not (base_tok[0] == "ident" and base_tok[1] == "nu"):
                    raise ExprSyntaxError("negative exponent is allowed on nu only", base_tok[2])
                return self._nu(k, poly_ctx)
            value = self._pow(value, k)
        return value

    def atom(self, poly_ctx: bool):
        kind, text, at = self.next()
        if kind == "uint":
            num = int(text)
            if self.peek()[0] == "/":
                self.next()
                den = int(self.expect("uint")[1])
                if den == 0:
                    raise ExprSyntaxError("zero denominator", at)
                return self._const(Fraction(num, den), poly_ctx)
            return self._const(Fraction(num), poly_ctx)
        if kind == "(":
            value = self.expr(poly_ctx)
            self.expect(")")
            return value
        if kind == "ident":
            if text == "nu":
                return self._nu(1, poly_ctx)
            if text == "Z":
                return self._zmonomial(at)
            if text == "J":
                return self._jatom(at)
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
                return NuObject.from_poly(Poly.variable(self.space, idx))
            raise ExprSyntaxError(
                f"variable {text!r} is not allowed outside Z[...] here", at
            )
        raise ExprSyntaxError(f"unexpected token {text!r}", at)

    def _zmonomial(self, at: int):
        self.expect("[")
        factors = []
        if self.peek()[0] != "]":
            while True:
                inner = self.expr(poly_ctx=True)
                poly = _demote_poly(inner, at)
                factors.append(poly)
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


def _demote_poly(value, at: int) -> Poly:
    if not isinstance(value, NuObject):
        raise ExprSyntaxError("expected a polynomial", at)
    if set(value.coeffs) - {0}:
        raise ExprSyntaxError("nu is not allowed inside Z[...]", at)
    return value.classical()


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
    if space is None:
        space = zariski_space(3)
    if zspace is None:
        zspace = zariski_space(3)
    value = _Parser(src, space, zspace).parse()
    if isinstance(value, NuObject):
        if set(value.coeffs) <= {0}:
            return value.classical()
        return value
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
