"""Parser / printer round-trips and error reporting."""

import random
from fractions import Fraction

import pytest

from nambu_forge.errors import ExprSyntaxError, InvalidArgumentError
from nambu_forge.expr import parse_expr, render
from nambu_forge.poly import NuObject, Poly, qp_space
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
    cases = ["x1 +", "q*w", "Z[x1^2-1]", "1/0", "x1^-2", "(x1", "Z[x1;]", "^2"]
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
