"""Parser / printer round-trips and error reporting."""

import random
from fractions import Fraction

import pytest

from nambu_forge import expr
from nambu_forge.errors import ExprSyntaxError, InvalidArgumentError, ResourceLimitError
from nambu_forge.expr import parse_expr, render
from nambu_forge.poly import NuObject, Poly, qp_space, su2_space
from nambu_forge.zariski import (
    TaylorElem,
    ZElem,
    ZNu,
    jmap,
    zariski_space,
    zelem_from_poly,
    zmonomial,
)

from conftest import random_poly

SP = zariski_space(3)
QP = qp_space()


def test_parse_poly():
    v = parse_expr("x1^2 - x2^2")
    assert isinstance(v, Poly)
    assert len(v.terms) == 2


def test_parse_nuobject():
    v = parse_expr("3/2*x1*x2 + nu*x3")
    assert isinstance(v, NuObject)
    assert v.coefficient(1) == Poly.variable(SP, 2)
    assert v.coefficient(0) == Poly.variable(SP, 0) * Poly.variable(SP, 1) * Fraction(3, 2)


def test_parse_zmonomial():
    v = parse_expr("Z[x1^2+x2^2; x1]")
    assert isinstance(v, ZElem)
    x1 = Poly.variable(SP, 0)
    H = x1 * x1 + Poly.variable(SP, 1) ** 2
    assert v == ZElem.basis(zmonomial([H, x1]))


def test_parse_j_atom():
    v = parse_expr("J(Z[x1])")
    assert isinstance(v, TaylorElem) and v.in_a
    assert v == jmap(zelem_from_poly(Poly.variable(SP, 0)))


def test_fixed_points():
    cases = [
        "0",
        "1",
        "-3/2",
        "-x2 + 2",
        "x1^2 - x2^2",
        "3/2*x1^2*x2 - x3",
        "q*p + nu",
        "nu^2*q - 1/2",
        "1/8*nu^-2*q^4 + 1/8",
        "Z[x1] + 2*Z[]",
        "Z[x1; x1] - 3/4*Z[x2]",
        "nu^2*Z[x1] + Z[x2]",
        "Z[x1; x2] + y2*Z[x1] + y1*Z[x2] + y1*y2*Z[]",
    ]
    for text in cases:
        space = QP if ("q" in text or "p" in text.replace("p]", "")) else SP
        once = render(parse_expr(text, space))
        twice = render(parse_expr(once, space))
        assert once == twice, text


def test_round_trip_random_values(rng):
    for _ in range(200):
        f = random_poly(SP, rng, degree=3, terms=4)
        text = render(f)
        assert render(parse_expr(text, SP)) == text
    for _ in range(100):
        x = NuObject(
            QP,
            {
                0: random_poly(QP, rng, degree=2, terms=3),
                rng.randint(1, 3): random_poly(QP, rng, degree=2, terms=2),
            },
        )
        text = render(x)
        assert render(parse_expr(text, QP)) == text


def test_parse_whitespace_insensitive():
    a = parse_expr("x1^2-x2 * x3")
    b = parse_expr("  x1 ^ 2 - x2*x3 ")
    assert a == b


def test_errors_carry_positions():
    cases = ["x1 +", "q*w", "Z[x1^2-1]", "1/0", "x1^-2", "(x1", "Z[x1;]", "^2",
             # digits are ASCII: these were int() tracebacks or read as 3*x1
             "x1^\u00b2", "x1 + \u2460", "\u0663*x1",
             # a Zariski atom inside Z[...] ended in a TypeError traceback
             "Z[x1*Z[x2]]", "Z[x1 + Z[x2]]",
             # over the interpreter's limit on integer string length
             "1" * 5000, "x1^" + "1" * 5000]
    for bad in cases:
        space = QP if ("q" in bad or "w" in bad) else SP
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(bad, space)
        assert err.value.position >= 0


def test_unknown_variable_lists_space():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("q + zz", QP)
    assert "q, p" in str(err.value)


def test_znu_parse():
    v = parse_expr("nu*Z[x1] + Z[x2]")
    assert isinstance(v, ZNu)
    assert v.coefficient(1) == zelem_from_poly(Poly.variable(SP, 0))


def test_render_is_str_on_parsed_values_only():
    for text in ["x1^2 - x2", "nu*x1 + 1", "Z[x1]", "nu*Z[x1] + Z[]", "J(Z[x1])"]:
        value = parse_expr(text)
        assert render(value) == str(value)
    for value in (3, "x1", None):
        with pytest.raises(InvalidArgumentError, match=f"cannot render {type(value).__name__}"):
            render(value)


def test_parse_term_bound(monkeypatch):
    monkeypatch.setattr(expr, "PARSE_TERM_BOUND", 12)
    assert parse_expr("(x1 + x2 + 1)^2") == parse_expr("x1^2 + 2*x1*x2 + x2^2 + 2*x1 + 2*x2 + 1")
    # 3 + 9 products for the square, then 6 more: refused before forming them
    with pytest.raises(ResourceLimitError, match="parse of 18 term products is over the parse term bound 12"):
        parse_expr("(x1 + x2 + 1)^2*x1")
    assert parse_expr("0^1000000000").is_zero()  # a zero base forms no products


def test_integer_input_builds_one_fraction_per_output_term(monkeypatch):
    text = "(x1 + 2*x2 - 3)^3 - 4*x3*(x1 - x2) + nu^2*x1*x3 - nu^-1"
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(1)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    value = parse_expr(text)
    monkeypatch.undo()
    assert len(built) == sum(len(p.terms) for p in value.coeffs.values()) == 14


class _Oracle:
    """Random expression text over a space and the value it denotes, built
    with Poly/NuObject operators.  The generator follows the grammar: an
    expr is an optionally negated first term and signed terms, a term is
    factors joined by '*', a factor an atom with an optional power."""

    def __init__(self, space, rng):
        self.space, self.rng = space, rng

    def const(self, c):
        return NuObject.from_poly(Poly.const(self.space, c))

    def expr(self, depth: int):
        rng = self.rng
        negate = rng.random() < 0.3
        text, value = self.term(depth)
        if negate:
            text, value = "-" + text, -value
        for _ in range(rng.randint(0, 2)):
            t, v = self.term(depth)
            if rng.random() < 0.5:
                text, value = f"{text} + {t}", value + v
            else:
                text, value = f"{text} - {t}", value - v
        return text, value

    def term(self, depth: int):
        text, value = self.factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            t, v = self.factor(depth)
            text, value = f"{text}*{t}", value * v
        return text, value

    def factor(self, depth: int):
        rng = self.rng
        if rng.random() < 0.15:
            k = rng.choice([-3, -2, -1, 2, 3])
            return f"nu^{k}", NuObject(self.space, {k: Poly.const(self.space, 1)})
        text, value = self.atom(depth)
        if rng.random() < 0.25:
            k = rng.randint(0, 3)
            power = self.const(1)
            for _ in range(k):
                power = power * value
            return f"{text}^{k}", power
        return text, value

    def atom(self, depth: int):
        rng = self.rng
        roll = rng.random()
        if depth > 0 and roll < 0.25:
            text, value = self.expr(depth - 1)
            return f"({text})", value
        if roll < 0.5:
            num, den = rng.randint(0, 9), rng.choice([1, 1, 2, 3, 4, 7])
            if den == 1:
                return str(num), self.const(num)
            return f"{num}/{den}", self.const(Fraction(num, den))
        if roll < 0.6:
            return "nu", NuObject(self.space, {1: Poly.const(self.space, 1)})
        i = rng.randrange(self.space.nvars)
        return self.space.names[i], NuObject.from_poly(Poly.variable(self.space, i))


@pytest.mark.parametrize("space", [QP, su2_space(), SP], ids=["qp", "su2", "x1-x3"])
def test_parse_matches_operator_oracle(space):
    rng = random.Random(20261019)
    oracle = _Oracle(space, rng)
    for _ in range(300):
        text, want = oracle.expr(depth=2)
        got = parse_expr(text, space)
        assert got == want, text
        assert isinstance(got, NuObject) == bool(set(want.coeffs) - {0}), text
