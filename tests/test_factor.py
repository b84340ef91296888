"""Factorization: contract examples, round-trips, multiplicativity."""

import random
from fractions import Fraction
from math import gcd

import pytest

from nambu_forge import factor as factor_mod
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.factor import Factorization, factorize, is_irreducible, normalize
from nambu_forge.poly import Poly, coordinate_space

from conftest import fractions_built, random_poly

X3 = coordinate_space(3)
x1, x2, x3 = (Poly.variable(X3, i) for i in range(3))


def random_irreducible(rng, degree=3):
    while True:
        p = random_poly(X3, rng, degree=degree, terms=rng.randint(2, 4))
        if p.is_zero() or p.is_constant():
            continue
        if is_irreducible(p):
            return p


def test_difference_of_squares():
    fac = factorize(x1 * x1 - x2 * x2)
    assert fac.unit == 1
    assert {str(g) for g, m in fac.factors} == {"x1 - x2", "x1 + x2"}
    assert all(m == 1 for _, m in fac.factors)
    assert fac.expand() == x1 * x1 - x2 * x2


def test_sum_of_squares_is_irreducible():
    fac = factorize(x1 * x1 + x2 * x2)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1
    assert is_irreducible(x1 * x1 + x2 * x2)


def test_monomial_with_content():
    fac = factorize(6 * x1)
    assert fac.unit == 6
    assert fac.factors == ((x1, 1),)


def test_is_irreducible_examples():
    assert not is_irreducible(x1 * x1 - 1)
    assert is_irreducible(x1 * x2 + 1)
    with pytest.raises(InvalidArgumentError):
        is_irreducible(Poly.const(X3, 2))


def test_normalize():
    u, g = normalize(3 * x1 * x1)
    assert u == 3 and g == x1 * x1
    u, g = normalize(-x2 + 2)
    assert u == -1 and g == x2 - 2
    u, g = normalize(Poly.zero(X3))
    assert u == 1 and g.is_zero()
    # idempotence
    u2, g2 = normalize(g)
    assert u2 == 1 and g2 == g


def test_degree_bound():
    with pytest.raises(ResourceLimitError) as err:
        factorize(x1**13)
    assert "12" in str(err.value)
    # the bound is on the total degree, also for several variables
    with pytest.raises(ResourceLimitError) as err:
        factorize((x1 * x2 + x3) ** 4 * (x1 * x3 + x2 + 1) ** 3)
    assert "14" in str(err.value) and "12" in str(err.value)
    f = (x1 * x2 + x3) ** 4 * (x1 * x3 + x2 + 1) ** 2
    assert sorted(m for _, m in factorize(f).factors) == [2, 4]
    with pytest.raises(ResourceLimitError):
        factorize(f, degree_bound=11)


def test_term_bound(monkeypatch):
    # the bound counts the input's terms, at the bound admitted, one over refused
    f = (x1 + x2 + 1) ** 3  # 10 terms
    monkeypatch.setattr(factor_mod, "FACTOR_TERM_BOUND", 10)
    assert factorize(f).factors == ((x1 + x2 + 1, 3),)
    with pytest.raises(ResourceLimitError,
                       match="polynomial of 11 terms is over the factor term bound 10"):
        factorize(f + x3)


def test_zero_rejected():
    with pytest.raises(InvalidArgumentError):
        factorize(Poly.zero(X3))


def test_rational_coefficients():
    f = (x1 * Fraction(1, 2) + x2) * (x1 - x2 * Fraction(3, 4))
    fac = factorize(f)
    assert fac.expand() == f


def test_multiplicities():
    f = (x1 - x2) ** 3 * (x1 + x2 + 1) ** 2
    fac = factorize(f)
    assert sorted(m for _, m in fac.factors) == [2, 3]
    assert fac.expand() == f


def test_round_trip_random_products(rng):
    for _ in range(40):
        k = rng.randint(1, 3)
        prod = Poly.const(X3, Fraction(rng.choice([-2, -1, 1, 2, 3])))
        for _ in range(k):
            prod = prod * random_irreducible(rng)
        fac = factorize(prod)
        assert fac.expand() == prod


def test_idempotence_on_irreducible_factors(rng):
    for _ in range(10):
        p = random_irreducible(rng)
        _, g = normalize(p)
        fac = factorize(g)
        assert fac.unit == 1
        assert fac.factors == ((g, 1),)


def test_multiplicativity(rng):
    for _ in range(10):
        f = random_irreducible(rng, degree=2)
        g = random_irreducible(rng, degree=2)
        ff, fg, fp = factorize(f), factorize(g), factorize(f * g)
        assert fp.unit == ff.unit * fg.unit
        assert sorted(fp.factor_multiset(), key=lambda p: p.sort_key()) == sorted(
            ff.factor_multiset() + fg.factor_multiset(), key=lambda p: p.sort_key()
        )


def test_split_image_does_not_split_the_input():
    # at x2 = 4 the image of x1^2 - x2 in x1 is (x1 - 2)(x1 + 2), but
    # neither image factor lifts to a factor
    assert factor_mod._lift_factor({(2, 0): 1, (0, 1): -1}, 0, [0, 4], [-2, 1], []) is None
    assert is_irreducible(x1 * x1 - x2)
    # here the first evaluation point, x2 = 0, gives the split image x1^2 - 4
    assert is_irreducible(x1 * x1 - x2**3 - 4)
    f = (x1 * x1 - x2**3 - 4) * (x1 + x2 * x3)
    assert sorted(str(g) for g, _ in factorize(f).factors) == ["x2*x3 + x1", "x2^3 - x1^2 + 4"]


def test_two_variable_inputs():
    f = (x1 * x1 + x2) * (x1 - x2 * x2) ** 2 * (x1 * x2 + 1)
    fac = factorize(f)
    assert fac.unit == 1
    assert [(str(g), m) for g, m in fac.factors] == [
        ("x2^2 - x1", 2), ("x1*x2 + 1", 1), ("x1^2 + x2", 1)
    ]


def test_leading_coefficient_vanishing_at_first_point(monkeypatch):
    # lc in x1 is x2*x3, which vanishes at the first point (x2, x3) = (0, 0)
    f = (x1 * x2 + x3) * (x1 * x3 + x2 + 1)
    assert sorted(str(g) for g, _ in factorize(f).factors) == ["x1*x2 + x3", "x1*x3 + x2 + 1"]
    monkeypatch.setattr(factor_mod, "_EVAL_TRIES", 1)
    with pytest.raises(ResourceLimitError) as err:
        factorize(f)
    assert "cap of 1 tries" in str(err.value)


def _shaped_products(rng, n):
    """Seeded products on n variables, each times a rational constant: with
    rational content, with a negative leading coefficient, with monomial
    content, with a repeated factor, and a constant."""
    space = coordinate_space(n)

    def nonconstant():
        while True:
            p = random_poly(space, rng, degree=rng.randint(1, 2), terms=rng.randint(2, 3))
            if not p.is_constant():
                return p

    def unit():
        return Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 6]))

    f = nonconstant() * Fraction(rng.choice([1, 5]), rng.choice([2, 6])) + Fraction(1, 3)
    yield f * nonconstant() * unit()
    f, c = nonconstant() * nonconstant(), unit()
    yield f * (c if f.leading_coeff() * c < 0 else -c)
    x = [Poly.variable(space, i) for i in range(n)]
    yield x[rng.randrange(n)] ** rng.randint(1, 3) * x[-1] * nonconstant() * unit()
    yield nonconstant() ** rng.randint(2, 3) * nonconstant() * unit()
    yield Poly.const(space, unit())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_is_the_leading_coefficient(n):
    """The oracle for the product check that factorize no longer runs: the
    unit is lc(f), every factor is monic over a primitive integer numerator
    map, and expand() multiplies the factorization back to f."""
    rng = random.Random(2100 + n)
    for _ in range(8):
        for f in _shaped_products(rng, n):
            fac = factorize(f)
            assert fac.unit == f.leading_coeff(), str(f)
            for g, m in fac.factors:
                assert m >= 1 and not g.is_constant()
                assert g.leading_coeff() == 1, str(g)
                assert gcd(*g.num.values()) == 1, str(g)
            assert fac.expand() == f, str(f)


@pytest.mark.parametrize("drop", ["factor", "multiplicity"])
def test_lost_factor_is_a_mismatch(monkeypatch, drop):
    # the leading monomials of the factors, each times its multiplicity,
    # must add up to lm(f); a factorization that lost a factor, or a power
    # of one, fails that check
    real = factor_mod._factor_terms

    def lossy(terms):
        monkeypatch.setattr(factor_mod, "_factor_terms", real)  # the recursion runs unchanged
        pieces = real(terms)
        if drop == "factor":
            return pieces[1:]
        return [(g, m - 1) if m > 1 else (g, m) for g, m in pieces]

    f = (x1 - x2) ** 2 * (x1 * x3 + 2) * Fraction(-3, 5)
    monkeypatch.setattr(factor_mod, "_factor_terms", lossy)
    with pytest.raises(InvalidArgumentError, match="internal factorization mismatch"):
        factorize(f)
    assert factorize(f).expand() == f


def test_cold_factorize_builds_one_fraction_per_factor_term(monkeypatch):
    # integer term maps from input to factors, which are stored as integers
    # too: the only Fractions a cold factorization constructs are the unit
    # and the coefficients in the factors' cached sort keys, which order them
    f = (x1 * Fraction(1, 2) + x2) * (x1 - x2 * Fraction(3, 4)) ** 2 * x3 * (3 * x2 * x3 - 5)
    f = f * Fraction(-5, 3)
    fac, built = fractions_built(monkeypatch, lambda: factorize(f))
    assert built == 1 + sum(len(g.num) for g, _ in fac.factors) == 8
    assert fac.expand() == f


def test_univariate_path():
    f = (x3 - 1) * (x3 + 2) ** 2
    fac = factorize(f)
    assert fac.expand() == f
    assert sorted(m for _, m in fac.factors) == [1, 2]


def _sympy_terms(f, syms):
    import sympy

    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in f.terms.items()
    ))


def _from_sympy(g, syms, space) -> Poly:
    import sympy

    return Poly(space, {e: Fraction(int(k.p), int(k.q)) for e, k in sympy.Poly(g, *syms).terms()})


@pytest.mark.parametrize("f", [
    [0, 1],  # x
    [-5, 3],  # linear
    [0, 0, 0, 1, 1, 1],  # x^3 (x^2 + x + 1)
    [0, 0, 0, 1, 2, 2, 2, 1],  # x^3 (x + 1)^2 (x^2 + 1)
    [0, 0, -4, 0, 1],  # x^2 (x - 2) (x + 2)
    [4, 12, 9],  # (2x + 3)^2
])
def test_univariate_factors_agree_with_sympy(f):
    """x and repeated factors go through the squarefree part and Zassenhaus
    like any other factor; sympy.factor_list is the oracle."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, parts = sympy.factor_list(sum(c * x**i for i, c in enumerate(f)), x)
    want = []
    for g, m in parts:
        coeffs = [int(c) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        want.append(([-c for c in coeffs] if coeffs[-1] < 0 else coeffs, m))
    assert factor_mod._factor_univariate_int(f) == sorted(want)


def test_wang_image_with_x_as_a_factor():
    f = (x1 + x2) * (x1 + x2 * x2 + 1)
    # the main variable is x1 and the first point is 0, where the image is x1 (x1 + 1)
    image = factor_mod._t_image(f.num, 0, [0, 0, 0])
    assert factor_mod._factor_univariate_int(image) == [([0, 1], 1), ([1, 1], 1)]
    assert factorize(f).factors == ((x1 + x2 * x2 + 1, 1), (x1 + x2, 1))


def _differential_products():
    """About 200 seeded products: fixed shapes, then random factors (not
    necessarily irreducible) with a unit and occasional squares, then shapes
    with x, repeated or linear factors."""
    products = [
        (x2 + 1) * (x1 + x3),
        (x1 * x2 + x3) * (x1 * x3 + x2 + 1),
        (x1 * x2 + x3) ** 2 * (x1 * x3 + x2 + 1) * 3,
        (x2 + 1) ** 2 * (x1 + x3) * (x1 * x1 - x2),
        (x1 * x2 * x3 + 1) * (x1 * x2 - x3) * (x1 + x2 * x3),
        (x1 * x1 - x2**3 - 4) * (x2 * x3 - x1) ** 3,
    ]
    rng = random.Random(5)
    while len(products) < 200:
        prod = Poly.const(X3, Fraction(rng.choice([-2, -1, 1, 2, 3])))
        for _ in range(rng.randint(1, 3)):
            p = random_poly(X3, rng, degree=rng.randint(1, 3), terms=rng.randint(2, 4))
            if not p.is_constant():
                prod = prod * p ** rng.choice([1, 1, 1, 2])
        if not prod.is_constant() and prod.total_degree() <= 12:
            products.append(prod)
    # x^k times a cofactor, a non-squarefree univariate product, linear
    # inputs, and an f whose first Wang image (x2 = x3 = 0) is x1 (x1 + 1)
    return products + [
        x1**3 * (x1 * x1 + x1 + 1) * 2,
        x3**3 * (x3 + 1) ** 2 * (x3 * x3 + 1),
        x2 * 3 - 5,
        x1 * Fraction(-1, 2),
        (x1 + x2) * (x1 + x2 * x2 + 1),
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_factors_are_irreducible_by_sympy(n):
    """Independent irreducibility oracle over R^3 and R^4: on seeded products
    of total degree at most 6, with repeated factors and a fractional unit,
    sympy.factor_list finds every factor that factorize returns irreducible
    and the same factor multiset up to units, and expand() gives the input
    back."""
    sympy = pytest.importorskip("sympy")
    space = coordinate_space(n)
    syms = sympy.symbols(space.names)
    rng = random.Random(700 + n)
    for i in range(30):
        f = Poly.const(space, Fraction(rng.choice([-5, -1, 2, 7]), rng.choice([2, 3, 4])))
        for j in range(rng.randint(1, 3)):
            p = random_poly(space, rng, degree=rng.randint(1, 2), terms=rng.randint(2, 4))
            power = 2 if j == 0 and i % 2 == 0 else 1
            if not p.is_constant() and f.total_degree() + power * p.total_degree() <= 6:
                f = f * p**power
        if f.is_constant():
            continue
        fac = factorize(f)
        assert fac.expand() == f, str(f)
        for g, _ in fac.factors:
            _, parts = sympy.factor_list(_sympy_terms(g, syms), *syms)
            assert [m for _, m in parts] == [1], str(g)
        _, parts = sympy.factor_list(_sympy_terms(f, syms), *syms)
        want = sorted(((normalize(_from_sympy(g, syms, space))[1], m) for g, m in parts),
                      key=lambda item: (item[0].sort_key(), item[1]))
        assert fac.factors == tuple(want), str(f)


def test_factors_agree_with_sympy():
    """Independent oracle: every normalized factor, multiplicity and unit
    agrees with sympy.factor_list."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x1 x2 x3")
    for f in _differential_products():
        coeff, pairs = sympy.factor_list(_sympy_terms(f, syms), *syms)
        unit = Fraction(int(coeff.p), int(coeff.q))
        want = []
        for g, m in pairs:
            c, gn = normalize(_from_sympy(g, syms, X3))
            unit *= c**m
            want.append((gn, m))
        want.sort(key=lambda item: (item[0].sort_key(), item[1]))
        fac = factorize(f)
        assert fac.factors == tuple(want), str(f)
        assert fac.unit == unit, str(f)
