"""Special-number sequences checked against independent series oracles."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nambu_forge import numbers
from nambu_forge.errors import InvalidArgumentError


def sec_series(order: int) -> list:
    """[t^{2k}] sec t by direct inversion of the cosine series."""
    cos = [Fraction((-1) ** i, factorial(2 * i)) for i in range(order + 1)]
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(-sum(out[j] * cos[k - j] for j in range(k)))
    return out


def tan_series(order: int) -> list:
    """[t^{2k+1}] tan t = sin/cos by direct series division."""
    sin = [Fraction((-1) ** i, factorial(2 * i + 1)) for i in range(order + 1)]
    cos = [Fraction((-1) ** i, factorial(2 * i)) for i in range(order + 1)]
    out = []
    for k in range(order + 1):
        out.append(sin[k] - sum(out[j] * cos[k - j] for j in range(k)))
    return out


def bernoulli_oracle(n: int) -> Fraction:
    """Recurrence sum_{k<=n} C(n+1,k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(Fraction(comb(m + 1, k)) * b[k] for k in range(m)) / (m + 1))
    return b[n]


def test_euler_small_values():
    assert numbers.euler_number(0) == 1
    assert numbers.euler_number(2) == 1
    assert numbers.euler_number(4) == 5
    assert numbers.euler_number(6) == 61
    assert numbers.euler_number(8) == 1385


def test_euler_matches_secant_series():
    sec = sec_series(8)
    for k in range(9):
        assert numbers.euler_number(2 * k) == sec[k] * factorial(2 * k)
        assert numbers.secant_coefficient(k) == sec[k]


def test_euler_rejects_odd():
    with pytest.raises(InvalidArgumentError):
        numbers.euler_number(3)
    with pytest.raises(InvalidArgumentError):
        numbers.euler_number(-2)


def test_bernoulli_values_and_oracle():
    assert numbers.bernoulli_number(0) == 1
    assert numbers.bernoulli_number(1) == Fraction(-1, 2)
    assert numbers.bernoulli_number(2) == Fraction(1, 6)
    assert numbers.bernoulli_number(4) == Fraction(-1, 30)
    for n in range(12):
        assert numbers.bernoulli_number(n) == bernoulli_oracle(n)


def test_tangent_coefficients_match_tan_series():
    tan = tan_series(5)
    for n in range(5):
        assert numbers.tangent_coefficient(n) == tan[n]
        assert numbers.tangent_coefficient(n) > 0


def test_series_coefficients_reject_negative_index():
    numbers.secant_coefficient(5)  # a filled table must not change the answer
    for fn in (numbers.secant_coefficient, numbers.tangent_coefficient):
        with pytest.raises(InvalidArgumentError):
            fn(-1)


def test_falling_factorial():
    assert numbers.falling_factorial(5, 2) == 20
    assert numbers.falling_factorial(3, 0) == 1
    assert numbers.falling_factorial(2, 3) == 0
    assert numbers.falling_factorial(-1, 2) == 2


def test_cache_regeneration_is_deterministic():
    before = [numbers.euler_number(2 * k) for k in range(8)]
    before_b = [numbers.bernoulli_number(k) for k in range(12)]
    numbers._secant.cache_clear()
    numbers._bernoulli.cache_clear()
    assert numbers._secant.cache_info().currsize == 0
    assert [numbers.euler_number(2 * k) for k in range(8)] == before
    assert [numbers.bernoulli_number(k) for k in range(12)] == before_b


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
