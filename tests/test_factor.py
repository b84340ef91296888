"""Factorization: contract examples, round-trips, multiplicativity."""

import random
from fractions import Fraction

import pytest

from nambu_forge import factor as factor_mod
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.factor import Factorization, factorize, is_irreducible, normalize
from nambu_forge.poly import Poly, coordinate_space

from conftest import random_poly

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
    factor_mod._factorize.cache_clear()
    assert sorted(str(g) for g, _ in factorize(f).factors) == ["x1*x2 + x3", "x1*x3 + x2 + 1"]
    factor_mod._factorize.cache_clear()
    monkeypatch.setattr(factor_mod, "_EVAL_TRIES", 1)
    with pytest.raises(ResourceLimitError) as err:
        factorize(f)
    assert "cap of 1 tries" in str(err.value)


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


def _differential_products():
    """About 200 seeded products: fixed shapes, then random factors (not
    necessarily irreducible) with a unit and occasional squares."""
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
    return products


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
