"""Exact special-number sequences: Euler numbers, Bernoulli numbers and
falling factorials, all over the rationals.

Conventions (frozen here and relied upon by the sun-product coefficient
tables):

* Euler numbers use the secant convention, ``sec t = sum E_{2k} t^{2k}/(2k)!``,
  so every even-index value is positive: E_0=1, E_2=1, E_4=5, E_6=61.
* Bernoulli numbers use B_1 = -1/2, hence B_2 = 1/6, B_4 = -1/30.
* ``tangent_coefficient(n)`` is the t^{2n+1} coefficient of tan t, i.e. the
  all-positive normalisation 2^{2n+2}(2^{2n+2}-1)|B_{2n+2}|/(2n+2)!.  The
  absolute value is deliberate: with signed B_{2n+2} the expression would
  alternate, and the coefficient tables built on top of it would disagree
  with their defining recursion already at the first mixed entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .errors import InvalidArgumentError

__all__ = [
    "euler_number",
    "bernoulli_number",
    "falling_factorial",
    "secant_coefficient",
    "tangent_coefficient",
]


# Each coefficient sums over all smaller indices in ascending order, so a cold
# call fills the table from the bottom and recursion never goes past depth 2.


@cache
def _secant(k: int) -> Fraction:
    """s_k = [t^{2k}] sec t; E_{2k} = s_k (2k)!."""
    # Invert cos t = sum (-1)^i t^{2i}/(2i)! exactly: sum_j s_j c_{k-j} = [k=0].
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += _secant(j) * Fraction((-1) ** (k - j), factorial(2 * (k - j)))
    return -acc


@cache
def _bernoulli(n: int) -> Fraction:
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1, with B_0 = 1.
    if n == 0:
        return Fraction(1)
    acc = sum(Fraction(comb(n + 1, k)) * _bernoulli(k) for k in range(n))
    return -acc / (n + 1)


def euler_number(n: int) -> Fraction:
    """E_n in the secant (all-positive) convention; ``n`` must be even."""
    if n < 0 or n % 2 != 0:
        raise InvalidArgumentError(f"Euler numbers are defined for even n >= 0, got {n}")
    return _secant(n // 2) * factorial(n)


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention."""
    if n < 0:
        raise InvalidArgumentError(f"Bernoulli numbers are defined for n >= 0, got {n}")
    return _bernoulli(n)


def falling_factorial(a: int, r: int) -> int:
    """a(a-1)...(a-r+1); equals 1 when r == 0."""
    if r < 0:
        raise InvalidArgumentError(f"falling_factorial needs r >= 0, got {r}")
    out = 1
    for i in range(r):
        out *= a - i
    return out


def secant_coefficient(n: int) -> Fraction:
    """gamma_n = E_{2n}/(2n)! = [t^{2n}] sec t."""
    if n < 0:
        raise InvalidArgumentError(f"secant coefficients are defined for n >= 0, got {n}")
    return _secant(n)


def tangent_coefficient(n: int) -> Fraction:
    """tau_n = [t^{2n+1}] tan t, via Bernoulli numbers (all positive)."""
    if n < 0:
        raise InvalidArgumentError(f"tangent coefficients are defined for n >= 0, got {n}")
    b = bernoulli_number(2 * n + 2)
    value = Fraction(2 ** (2 * n + 2) * (2 ** (2 * n + 2) - 1)) * b / factorial(2 * n + 2)
    # sign(B_{2n+2}) = (-1)^n, so this is exactly the absolute value
    return value if n % 2 == 0 else -value
