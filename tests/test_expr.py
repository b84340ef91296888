"""Parser / printer round-trips and error reporting."""

import random
import time
from fractions import Fraction

import pytest

from nambu_forge import expr
from nambu_forge.errors import ExprSyntaxError, InvalidArgumentError, ResourceLimitError
from nambu_forge.expr import parse_expr, render
from nambu_forge.poly import NuObject, Poly, _mul_into, qp_space, su2_space
from nambu_forge.zariski import (
    TaylorElem,
    ZElem,
    ZMonomial,
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
    for _ in range(60):
        x = _random_taylor(rng)
        text = render(x)
        back = parse_expr(text)
        assert isinstance(back, TaylorElem) and back == x and render(back) == text


def _random_taylor(rng) -> TaylorElem:
    """A TaylorElem over several y-exponents, the first not 0, and nu powers
    0-2, with fractional coefficients and unit Z-monomials (raw y terms)."""
    terms = {}
    for i in range(rng.randint(1, 5)):
        y = tuple(rng.randint(0, 2) for _ in range(3))
        if i == 0 and not any(y):
            y = (1, 0, 0)
        c = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        z = ZElem.unit() if rng.random() < 0.3 else zelem_from_poly(random_poly(SP, rng, terms=2))
        terms[y + (rng.randint(0, 2),)] = z.scale(c)
    return TaylorElem(SP, terms)


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


def test_zariski_text_lives_on_the_active_space():
    # y1..yn, Z[...] and J(...) on R^4: the value and its factors live on
    # the one active space
    sp4 = zariski_space(4)
    x4 = Poly.variable(sp4, 3)
    z4 = zelem_from_poly(x4)
    v = parse_expr("Z[x4]*y1", sp4)
    assert isinstance(v, TaylorElem) and v.space == sp4
    assert v == TaylorElem(sp4, {(1, 0, 0, 0, 0): z4})
    w = parse_expr("J(Z[x4])", sp4)
    assert w.space == sp4 and w.in_a
    assert w == jmap(z4, sp4)
    assert str(w) == "Z[x4] + y4*Z[]"
    # one y-variable per variable of the active space
    assert parse_expr("y4", sp4).space == sp4
    with pytest.raises(ExprSyntaxError, match="unknown variable 'y3'; expected one of q, p"):
        parse_expr("y3", QP)
    assert parse_expr("y2", QP).space == QP


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


@pytest.mark.parametrize("text, message", [
    ("x1^500001", "parse of 500001 term products is over the parse term bound 500000"),
    ("2^300000 - 2^300000", "parse of 600000 term products is over the parse term bound 500000"),
])
def test_one_term_powers_keep_their_term_count(text, message):
    # a one-term power is formed in one step but counts its k products
    with pytest.raises(ResourceLimitError) as err:
        parse_expr(text)
    assert str(err.value) == message


def test_coefficient_power_bit_bound():
    bound = expr.COEFF_POWER_BIT_BOUND
    k = bound // 8  # 256^k has 8k bits
    h = k // 2
    assert parse_expr(f"256^{k}") == Poly.const(SP, 2 ** bound)
    assert parse_expr(f"(-1/256)^{k}*x1") == Poly.variable(SP, 0) * Fraction(1, 2 ** bound)
    # the powers of one parse share the bound, in both contexts
    assert parse_expr(f"256^{h}*y1*256^{h}") == parse_expr("y1") * 2 ** bound
    for text in (f"256^{k + 1}", f"(1/256*x2)^{k + 1}", f"256^{h}*x1*256^{h + 1}",
                 f"(256*Z[x1])^{h} - 256^{h + 1}*y2"):
        with pytest.raises(ResourceLimitError) as err:
            parse_expr(text)
        assert str(err.value) == (f"coefficient power of {bound + 8} bits is over the "
                                  f"coefficient power bit bound {bound}")


def test_one_term_zariski_power_in_one_step():
    # each factor repeated k times in place; as k unions of a growing factor
    # tuple this took 132.6 s on a 2-vCPU x86_64 host
    start = time.perf_counter()
    value = parse_expr("Z[x1]^41666")
    assert time.perf_counter() - start < 10.0
    (mono, c), = value.terms.items()
    assert c == 1 and mono.factors == (Poly.variable(SP, 0),) * 41666


def test_one_term_zariski_power_counts_its_factors(monkeypatch):
    # Z[...]^k builds k copies of each of its n factors, so it counts k * n,
    # refused before the factor tuple is built; counted as k, 100 factors to
    # the 50000th built 5 million factors in 0.5 s and 55 MB
    def no_union(mono, k):
        raise AssertionError(f"a {k}-fold union was built before the term count")

    ten = "; ".join(f"x1 + {i}" for i in range(10))
    monkeypatch.setattr(ZMonomial, "__mul__", no_union)
    with pytest.raises(ResourceLimitError) as err:
        parse_expr(f"Z[{ten}]^50001")
    assert str(err.value) == "parse of 500010 term products is over the parse term bound 500000"
    monkeypatch.undo()
    hundred = [Poly.variable(SP, 0) + i for i in range(100)]
    value = parse_expr("Z[" + "; ".join(map(str, hundred)) + "]^500")
    (mono, c), = value.terms.items()
    assert c == 1 and mono == zmonomial(hundred * 500)
    # the unit Z[], with no factors, counts k as before
    assert parse_expr("Z[]^500000") == parse_expr("Z[]")


def test_fraction_power_in_one_step():
    # 3/2^200000 reads as (3/2)^200000: 517,000 bits, formed by one c ** k
    want = Poly.const(SP, Fraction(3, 2) ** 200000)
    assert parse_expr("(3/2)^200000") == parse_expr("3/2^200000") == want


def _one_term_text(rng, zariski: bool) -> str:
    """A one-term text: an int or a/b coefficient, maybe negated or in
    parentheses, times atoms that include x^0, nu and (poly context) nu^-k."""
    num = rng.choice([1, 2, 3, 7, 12, 10 ** 20 + 3])
    coeff = str(num) if rng.random() < 0.5 else f"{num}/{rng.choice([2, 3, 8, 9])}"
    if zariski:  # led by a y or Z[...] atom, so that the text is read in the Zariski algebra
        lead = [rng.choice(["y1", "y2^2", "y3^0", "Z[x1]", "Z[x1^2 + x2; x3]", "Z[]"])]
        atoms = ["y1", "y3", "Z[x2]", "nu", "nu^2"]
    else:
        lead, atoms = [], ["x1", "x2^3", "x3^0", "nu", "nu^-2", "(nu^-1)", "(x1*x2)"]
    text = "*".join([coeff] + lead + rng.sample(atoms, rng.randint(1 - len(lead), 2)))
    if rng.random() < 0.3:
        text = f"(-{text})"
    return text


def _many_terms_text(rng, zariski: bool) -> str:
    text = " + ".join(_one_term_text(rng, zariski) for _ in range(rng.randint(2, 4)))
    return text + (" - J(Z[x1*x2 + 1])" if zariski and rng.random() < 0.5 else "")


def _parsed_map(text: str, zariski: bool):
    """The parser's term map of text, and the parser that read it."""
    p = expr._Parser(text, SP)
    assert p.zariski_mode == zariski, text
    value = p.expr()
    p.expect("end")
    return value, p


def _mul_into_route(a: dict, b: dict) -> dict:
    row: dict = {}
    _mul_into(row, a, b)
    return {e: c for e, c in row.items() if c}


def _items(value: dict) -> list:
    return [(e, c, type(c)) for e, c in value.items()]


@pytest.mark.parametrize("zariski", [False, True], ids=["poly", "zariski"])
def test_one_term_products_and_powers_match_mul_into(monkeypatch, zariski):
    # the parser forms one term times a map, and a one-term power, in one
    # step; the general route, with the same maps, must give the same entries
    # in the same order, with the same coefficient types
    def general_route(*args):
        raise AssertionError("a one-term operand went through _mul_into")

    monkeypatch.setattr(expr, "_mul_into", general_route)
    rng = random.Random(20261020 + zariski)
    for _ in range(150):
        one, _ = _parsed_map(_one_term_text(rng, zariski), zariski)
        assert len(one) == 1
        other_text = (_one_term_text if rng.random() < 0.3 else _many_terms_text)(rng, zariski)
        other, p = _parsed_map(other_text, zariski)
        for a, b in ((one, other), (other, one)):
            assert _items(p._mul(a, b)) == _items(_mul_into_route(a, b))
        k = rng.choice([0, 1, 2, 3, 5, 17])
        p.products = 0
        want = p._const(1)
        for _ in range(k):
            want = _mul_into_route(want, one)
        assert _items(p._pow(one, k)) == _items(want)
        # k one-term products, a Z-monomial's counted by the factors it repeats
        (key, _), = one.items()
        assert p.products == k * (max(1, len(key[0].factors)) if zariski else 1)


def _taylor(text: str) -> TaylorElem:
    """The undemoted value of Zariski-context text."""
    return expr._Parser(text, SP).parse()


@pytest.mark.parametrize("terms, in_a", [
    (["Z[x1]", "-2*y1*Z[x2]", "+nu*J(Z[x1])", "-Z[x1]", "+y1*Z[x2]", "+3/2*nu^2*y2", "+Z[x1]"], False),
    (["-J(Z[x1])", "+J(Z[x2])", "-nu*J(Z[x1^2 + x2])", "+J(Z[x1])"], True),
    (["y1", "-y1"], False),
])
def test_zariski_sum_matches_pairwise_sum(terms, in_a):
    # the terms go into one map; the oracle adds TaylorElems one by one
    want = _taylor(terms[0])
    for t in terms[1:]:
        want = want + _taylor(t[1:]) if t[0] == "+" else want - _taylor(t[1:])
    got = _taylor(" ".join(terms))
    assert got == want and got.in_a == want.in_a == in_a
    assert str(got) == str(want)


def test_zariski_sum_is_linear_in_its_terms():
    # 8000 terms took 21.6 s when each + copied the sum so far, and take
    # about 1.7 s on a 2-vCPU x86_64 host summed into one map
    text = " + ".join(f"Z[x1 + {k}]" for k in range(1, 8001))
    start = time.perf_counter()
    value = parse_expr(text)
    assert time.perf_counter() - start < 5.0
    assert isinstance(value, ZElem) and len(value.terms) == 8000
    assert value.terms[zmonomial([Poly.variable(SP, 0) + 8000])] == 1


def test_zariski_sum_reads_rows_not_the_terms_view(monkeypatch):
    # the parser builds its one TaylorElem at the end, from its own map; the
    # terms view would rebuild every coefficient as a Fraction on each read
    products = [f"{k}/{k % 4 + 1}*J(Z[x1 + {k}*x2])*J(Z[x2*x3 + {k}])" for k in range(1, 40)]
    signs = ["-" if k % 3 == 0 else "+" for k in range(1, 40)]
    text = " ".join(s + " " + p for s, p in zip(signs, products))[2:]  # no leading '+'
    views = []
    view = TaylorElem.terms
    monkeypatch.setattr(TaylorElem, "terms", property(lambda t: views.append(1) or view.fget(t)))
    got = _taylor(text)
    assert views == []
    monkeypatch.undo()
    want = TaylorElem.zero(SP)
    for s, p in zip(signs, products):
        want = want + _taylor(p) if s == "+" else want - _taylor(p)
    assert got == want and got.den == want.den > 1 and got.in_a


def test_parse_term_bound_in_zariski_context(monkeypatch):
    # both contexts count len(a) * len(b) per product
    monkeypatch.setattr(expr, "PARSE_TERM_BOUND", 12)
    # (y1 + Z[x1])^2 counts 1*2 + 2*2, and its three entries times two more 6
    square = parse_expr("(y1 + Z[x1])^2*(y2 + Z[x2])")
    assert square == parse_expr("y1^2*y2 + 2*y1*y2*Z[x1] + y2*Z[x1; x1] + y1^2*Z[x2]"
                                " + 2*y1*Z[x1; x2] + Z[x1; x1; x2]")
    with pytest.raises(ResourceLimitError,
                       match="parse of 18 term products is over the parse term bound 12"):
        parse_expr("(y1 + Z[x1])^2*(y2 + Z[x2])*y3")
    # seven products of at least two units each cannot fit: refused before
    # the first (formed one by one, they would be refused at 2 + 4 + 6 + 8)
    with pytest.raises(ResourceLimitError, match="parse of 14 term products"):
        parse_expr("(y1 + Z[x1])^7")
    assert parse_expr("(y1 - y1)^1000000000").is_zero()  # a zero base forms one product


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
    assert len(built) == 0
    assert sum(len(p.terms) for p in value.coeffs.values()) == 14


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


@pytest.mark.parametrize("text, in_a", [
    ("y1^0*J(Z[x1])", True),
    ("(y1 + Z[x2])^0*J(Z[x1])", True),
    ("Z[x2]^0 + J(Z[x1])", True),
    ("J(y1^0*Z[x2])*y2^0", True),
    ("nu*J(Z[x1]) - 2", True),
    ("0*y1 + J(Z[x1])", False),
    ("y1^1*J(Z[x1])", False),
    ("J(Z[x1]) + Z[]", False),
])
def test_taylor_subalgebra_membership(text, in_a):
    # a y-variable or Z[...] atom leaves the subalgebra; a whole J(...) and a
    # zeroth power are in it, whatever their inside
    assert _taylor(text).in_a is in_a
