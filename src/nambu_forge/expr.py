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
from math import ceil, log2
from operator import add

from .errors import ExprSyntaxError, InvalidArgumentError, ResourceLimitError
from .poly import NuObject, Poly, VarSpace, _mul_into, zariski_space

__all__ = ["parse_expr", "render"]


# the most term products the '*' and '^' of one parse may form, counted before
# each is formed (a power's k products at once, at least the base's size
# each), in both contexts alike: a product counts len(a) * len(b).  One unit
# takes 0.7-9 us on a 2-vCPU x86_64 host in either context, the more the
# larger its Fractions: at the bound (x1+x2+x3+1)^40 takes 0.33 s, and
# (1/3*x1 + 2/7*x2)^706 and (1/3*y1 + 2/7*Z[x2])^706 4.4 s each, while
# (x1+x2+x3+1)^60 (2.4 million) ran 14-15 s before this bound.  A product
# with a one-term operand counts the same but is one pass over the other
# map, and a power of a one-term base counts its k products but is one
# step: x1^500000 takes 20 us (0.67 s as k products), and Z[x1]^41666
# 0.03 s (132.6 s as k unions).  A Z-monomial of n factors to the k counts
# k * max(1, n), the factors it builds: counted as k,
# Z[x1 + 0; ...; x1 + 99]^50000 built 5 million factors in 0.5 s and 55 MB
PARSE_TERM_BOUND = 500_000

# the most bits, k*log2(|num|*den) rounded up, that the numerators and
# denominators of the coefficients of the one-term bases of one parse, each
# raised to its power k, may have together, counted before each c ** k is
# formed.  At the bound a power takes 6-100 ms on a 2-vCPU x86_64 host
# (256^262144 6 ms, (3/2)^811289 44 ms, a 4300-digit base to the 146th
# 93 ms), and each doubling of the bound costs two to three times that;
# (3/2)^500000 (1.3 million bits) takes 0.02 s.  Formed one product at a
# time, 3/2^200000 (0.5 million) took 25 s, and 20 powers of a 430-digit
# base, each under the bound, took 63.5 s multiplied together
COEFF_POWER_BIT_BOUND = 2 ** 21

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

    In both a value is one sparse map {key: coefficient} with int
    coefficients (Fractions only from a/b literals and J-images), the layout
    poly._mul_into multiplies; sums are added into one map in place.  In
    poly context a key is exponent + (nu power,).  In the Zariski algebra it
    is (Z-monomial,) + y-exponent + (nu power,): Z-monomials add by union and
    scale by repetition, so the same arithmetic and the same counts form
    Taylor products and powers, and parse() builds one TaylorElem at the
    end.  The context is parser state: ``unit``, the unit key of the one or
    the other, which Z[...] sets to the poly context's around its factors.
    ``in_a`` tracks membership in the Taylor subalgebra: a y or
    Z[...] atom clears it, a closed J(...) or a zeroth power restores it.
    The zariski module is imported only for text in the Zariski algebra."""

    def __init__(self, src: str, space: VarSpace):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.space = space
        self.one = (0,) * (space.nvars + 1)
        self.unit = self.one
        self.products = 0
        self.bits = 0
        self.depth = 0
        self.in_a = True
        idents = {v for k, v, _ in self.tokens if k == "ident"}
        self.zariski_mode = "Z" in idents or "J" in idents or any(map(self._is_yvar, idents))
        if self.zariski_mode:
            from . import zariski

            self.zariski = zariski
            self.zone = self.unit = (zariski._Z_UNIT,) + (0,) * (space.nvars + 1)

    def _is_yvar(self, name: str) -> bool:
        """Whether name is a y-variable: y1, y2, ..., one per variable of the
        active space, unless that space declares a variable of that name."""
        if len(name) < 2 or name[0] != "y" or not name[1:].isdigit() or name in self.space.names:
            return False
        return 1 <= int(name[1:]) <= self.space.nvars

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
    def _const(self, c):
        return {self.unit: c} if c else {}

    def _nu(self, power: int):
        if power < 0 and self.unit is not self.one:
            raise ExprSyntaxError("negative nu powers are not defined here", self.peek()[2])
        return {self.unit[:-1] + (power,): 1}

    def _count(self, work: int, ahead: int = 0) -> None:
        """Count work products about to be formed and ahead more to follow."""
        self.products += work
        if self.products + ahead > PARSE_TERM_BOUND:
            raise ResourceLimitError.over(f"parse of {self.products + ahead} term products",
                                          "parse term", PARSE_TERM_BOUND)

    def _inner(self):
        """An expr inside one more open '(', 'J(' or 'Z['."""
        self.depth += 1
        if self.depth > PARSE_DEPTH_BOUND:
            raise ResourceLimitError.over(f"bracket nesting of depth {self.depth}", "parse depth",
                                          PARSE_DEPTH_BOUND)
        value = self.expr()
        self.depth -= 1
        return value

    def _mul(self, a: dict, b: dict) -> dict:
        self._count(len(a) * len(b))
        if len(b) == 1:
            a, b = b, a  # keys and coefficients commute; keep the other map's order
        if len(a) == 1:
            # one term times a map: its key shift is injective and the
            # coefficients are exact and nonzero, so no entry collides or cancels
            (e1, c1), = a.items()
            return {tuple(map(add, e1, e)): c1 * c for e, c in b.items()}
        row: dict = {}
        _mul_into(row, a, b)
        return {e: c for e, c in row.items() if c}

    def _pow(self, a: dict, k: int) -> dict:
        # negative exponents are intercepted at the factor level (nu only)
        # each of the k products counts at least len(a)
        self._count(0, k * len(a))
        if len(a) == 1 and k:
            # the k one-term products in one step: a key entry times k is its
            # k-fold sum (a Z-monomial's k-fold union, counted by its factors)
            (e, c), = a.items()
            self._count(k if self.unit is self.one else k * max(1, len(e[0].factors)))
            self.bits += ceil(k * (log2(abs(c.numerator)) + log2(c.denominator)))
            if self.bits > COEFF_POWER_BIT_BOUND:
                raise ResourceLimitError.over(f"coefficient power of {self.bits} bits",
                                              "coefficient power bit", COEFF_POWER_BIT_BOUND)
            return {tuple(x * k for x in e): c ** k}
        out = self._const(1)
        for _ in range(k):
            out = self._mul(out, a)
            if not a:
                break  # a zero base stays zero
        return out

    # -- grammar -----------------------------------------------------------
    def parse(self):
        value = self.expr()
        self.expect("end")
        if not self.zariski_mode:
            return value
        rows: dict = {}
        for key, c in value.items():
            rows.setdefault(key[1:], {})[key[0]] = c
        z = self.zariski
        return z.TaylorElem(self.space, {k: z.ZElem(row) for k, row in rows.items()}, self.in_a)

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.next()
        value = self.term()
        if negate:
            value = {e: -c for e, c in value.items()}
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            _add_terms(value, self.term(), sign)  # every term is a fresh map
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.next()
            value = self._mul(value, self.factor())
        return value

    def factor(self):
        base_tok = self.peek()
        in_a = self.in_a
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            negative = self.peek()[0] == "-"
            if negative:
                self.next()
            k = _int(self.expect("uint"))
            if negative:
                # only nu itself may carry a Laurent power
                if not (base_tok[0] == "ident" and base_tok[1] == "nu"):
                    raise ExprSyntaxError("negative exponent is allowed on nu only", base_tok[2])
                return self._nu(-k)
            if not k:
                self.in_a = in_a  # the power is 1, whatever its base
            value = self._pow(value, k)
        return value

    def atom(self):
        tok = self.next()
        kind, text, at = tok
        if kind == "uint":
            num = _int(tok)
            if self.peek()[0] == "/":
                self.next()
                den = _int(self.expect("uint"))
                if den == 0:
                    raise ExprSyntaxError("zero denominator", at)
                return self._const(Fraction(num, den))
            return self._const(num)
        if kind == "(":
            value = self._inner()
            self.expect(")")
            return value
        if kind == "ident":
            if text == "nu":
                return self._nu(1)
            if self.unit is self.one:  # the poly context
                if text in ("Z", "J"):  # only inside Z[...]
                    raise ExprSyntaxError("expected a polynomial", at)
                try:
                    idx = self.space.index(text)
                except InvalidArgumentError as exc:
                    raise ExprSyntaxError(str(exc), at) from None
            elif text in ("Z", "J"):
                return self._zmonomial(at) if text == "Z" else self._jatom(at)
            elif self._is_yvar(text):
                self.in_a = False
                idx = int(text[1:])
            else:
                raise ExprSyntaxError(f"variable {text!r} is not allowed outside Z[...] here", at)
            e = list(self.unit)
            e[idx] = 1
            return {tuple(e): 1}
        raise ExprSyntaxError(f"unexpected token {text!r}", at)

    def _zmonomial(self, at: int):
        """Z[...]: its factors are read in the poly context."""
        self.expect("[")
        self.unit = self.one
        factors = []
        if self.peek()[0] != "]":
            while True:
                factor = _nu_value(self.space, self._inner())
                if isinstance(factor, NuObject):
                    raise ExprSyntaxError("nu is not allowed inside Z[...]", at)
                factors.append(factor)
                if self.peek()[0] != ";":
                    break
                self.next()
        self.expect("]")
        self.unit = self.zone
        try:
            mono = self.zariski.zmonomial(factors)
        except InvalidArgumentError as exc:
            raise ExprSyntaxError(str(exc), at) from None
        self.in_a = False
        return {(mono,) + self.zone[1:]: 1}

    def _jatom(self, at: int):
        """J(...) of a plain Zariski element: c / d times the cached integer
        J-image (rows, d) of each of its Z-monomials, flattened."""
        self.expect("(")
        in_a = self.in_a
        value = self._inner()
        self.expect(")")
        self.in_a = in_a
        if any(any(key[1:-1]) for key in value):
            raise ExprSyntaxError("J(...) takes a plain Zariski element", at)
        if any(key[-1] for key in value):
            raise ExprSyntaxError("J(...) takes a nu-free Zariski element", at)
        out: dict = {}
        for key, c in value.items():
            rows, d = self.zariski._jmap_image(key[0], self.space)
            c = Fraction(c, d) if d > 1 else c  # int text builds no Fraction
            _add_terms(out, {(m,) + k: n * c for k, row in rows.items() for m, n in row.items()}, 1)
        return out


def is_variable_name(name: str) -> bool:
    """Whether an expression can name a variable called ``name``: an
    identifier token that the grammar does not read as nu, Z or J."""
    return re.fullmatch(_IDENT, name) is not None and name not in ("nu", "Z", "J")


def parse_expr(src: str, space: VarSpace = None):
    """Parse text into the most specific value it denotes.

    Returns a Poly, NuObject, ZElem, ZNu or TaylorElem.  ``space`` is the
    active variable space (default x1..x3), of the plain polynomials and of
    the Zariski algebra alike: the factors of Z[...] and J(...) live on it,
    and it has one y-variable per variable.
    """
    space = _X3 if space is None else space
    value = _Parser(src, space).parse()
    if isinstance(value, dict):
        return _nu_value(space, value)
    # TaylorElem: demote when it carries no y content / no nu content
    if any(any(k[:-1]) for k in value.rows):
        return value
    znu = value.y_constant()
    return znu.classical() if znu.rows.keys() <= {(0,)} else znu


def render(value) -> str:
    """Canonical text for any value parse_expr can return: its ``str``."""
    if not isinstance(value, (Poly, NuObject)):
        from .zariski import TaylorElem, ZElem, ZNu

        if not isinstance(value, (ZElem, ZNu, TaylorElem)):
            raise InvalidArgumentError(f"cannot render {type(value).__name__}")
    return str(value)
