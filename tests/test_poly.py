"""Polynomial arithmetic, Poisson bivector powers and Jacobians."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambu_forge.errors import InvalidArgumentError
from nambu_forge.poly import (
    NuObject,
    Poly,
    coordinate_space,
    jacobian_det,
    leading_monomial,
    poisson_power,
    qp_space,
)

from conftest import random_poly

X3 = coordinate_space(3)
QP = qp_space()


def xs():
    return tuple(Poly.variable(X3, i) for i in range(3))


small_polys = st.builds(
    lambda seed: random_poly(X3, random.Random(seed), degree=3, terms=4),
    st.integers(0, 10**6),
)


def test_poisson_power_examples():
    q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
    assert poisson_power(q, p, 1) == Poly.const(QP, 1)
    h = q * q + p * p
    assert poisson_power(h, h, 1).is_zero()
    # oracle: P^2(f,g) = f_qq g_pp - 2 f_qp g_qp + f_pp g_qq
    assert poisson_power(h, h, 2) == Poly.const(QP, 8)


def test_poisson_power_second_order_oracle(rng):
    for _ in range(20):
        f = random_poly(QP, rng, degree=3, terms=4)
        g = random_poly(QP, rng, degree=3, terms=4)
        fqq = f.diff(0).diff(0)
        fqp = f.diff(0).diff(1)
        fpp = f.diff(1).diff(1)
        gqq = g.diff(0).diff(0)
        gqp = g.diff(0).diff(1)
        gpp = g.diff(1).diff(1)
        assert poisson_power(f, g, 2) == fqq * gpp - 2 * fqp * gqp + fpp * gqq


def test_poisson_power_mismatched_spaces():
    with pytest.raises(InvalidArgumentError):
        poisson_power(Poly.variable(QP, 0), Poly.variable(X3, 0), 1)


def test_jacobian_examples():
    x, y, z = xs()
    assert jacobian_det([x, y, z], (0, 1, 2)) == Poly.const(X3, 1)
    assert jacobian_det([x, x, z], (0, 1, 2)).is_zero()
    assert jacobian_det([x * x, y, z], (0, 1, 2)) == 2 * x


def _det_oracle(fs, idx):
    """Leibniz sum over permutations of Fraction-coefficient Poly products,
    the sign read off from the inversion count."""
    space = fs[0].space
    total = Poly.zero(space)
    for perm in itertools.permutations(range(len(fs))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Poly.const(space, (-1) ** inversions)
        for f, j in zip(fs, perm):
            term = term * f.diff(idx[j])
        total = total + term
    return total


def _rational_poly(space, rng, degree):
    """Random polynomial whose coefficients have denominators up to 6."""
    f = random_poly(space, rng, degree=degree, terms=rng.randint(1, 4))
    return Poly(space, {e: c / rng.randint(1, 6) for e, c in f.terms.items()})


@pytest.mark.parametrize(
    "nvars, idx",
    [
        (1, (0,)),
        (3, (2,)),
        (2, (0, 1)),
        (4, (3, 0)),
        (3, (0, 1, 2)),
        (5, (4, 1, 3)),
        (4, (0, 1, 2, 3)),
        (6, (5, 0, 3, 2)),
    ],
)
def test_jacobian_matches_permutation_sum(rng, nvars, idx):
    space = coordinate_space(nvars)
    zero, const = Poly.zero(space), Poly.const(space, Fraction(-7, 3))
    for trial in range(12):
        fs = [_rational_poly(space, rng, degree=3) for _ in idx]
        if trial % 4 == 1:
            fs[rng.randrange(len(fs))] = zero
        elif trial % 4 == 2:
            fs[rng.randrange(len(fs))] = const
        det = jacobian_det(fs, idx)
        assert det == _det_oracle(fs, idx)
        assert all(type(c) is Fraction for c in det.terms.values())


def test_jacobian_out_of_range_index_rejected():
    x, y, z = xs()
    for bad in ((0, 3), (-1, 0)):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            jacobian_det([x, y], bad)


def test_jacobian_repeated_variable_rejected():
    x, y, z = xs()
    with pytest.raises(InvalidArgumentError):
        jacobian_det([x, y], (0, 0))


def test_jacobian_multilinear_alternating(rng):
    for _ in range(10):
        f, g, h = (random_poly(X3, rng) for _ in range(3))
        a = Fraction(rng.randint(-3, 3))
        lhs = jacobian_det([f * a + g, g, h], (0, 1, 2))
        rhs = jacobian_det([f, g, h], (0, 1, 2)) * a + jacobian_det([g, g, h], (0, 1, 2))
        assert lhs == rhs
        assert jacobian_det([f, g, h], (0, 1, 2)) == -jacobian_det([g, f, h], (0, 1, 2))
        assert jacobian_det([f, f, h], (0, 1, 2)).is_zero()


def test_jacobian_leibniz(rng):
    for _ in range(10):
        g, h, a, b = (random_poly(X3, rng, degree=3) for _ in range(4))
        lhs = jacobian_det([g * h, a, b], (0, 1, 2))
        rhs = g * jacobian_det([h, a, b], (0, 1, 2)) + jacobian_det([g, a, b], (0, 1, 2)) * h
        assert lhs == rhs


def test_leading_monomial_examples():
    x, y, z = xs()
    assert leading_monomial(x * y + z * z) == (1, 1, 0)
    assert leading_monomial(x + y**3) == (0, 3, 0)
    assert leading_monomial(Poly.const(X3, 5)) == (0, 0, 0)
    with pytest.raises(InvalidArgumentError):
        leading_monomial(Poly.zero(X3))


def test_partials_commute(rng):
    for _ in range(10):
        f = random_poly(X3, rng, degree=4, terms=5)
        for i in range(3):
            for j in range(3):
                assert f.diff(i).diff(j) == f.diff(j).diff(i)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


def test_nuobject_ring(rng):
    for _ in range(10):
        a = NuObject(QP, {0: random_poly(QP, rng), 1: random_poly(QP, rng)})
        b = NuObject(QP, {-1: random_poly(QP, rng), 2: random_poly(QP, rng)})
        c = NuObject(QP, {0: random_poly(QP, rng)})
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    x = NuObject(QP, {0: Poly.variable(QP, 0), 2: Poly.const(QP, 3)})
    assert x.nu_shift(-2).nu_shift(2) == x
    assert x.classical() == Poly.variable(QP, 0)


def test_poly_evaluate():
    x, y, z = xs()
    f = x * x * 3 + y * z * Fraction(1, 2)
    assert f.evaluate([1, 2, 4]) == 3 + 4
    assert abs(f.evaluate_float([1.0, 2.0, 4.0]) - 7.0) < 1e-12


def test_compose():
    x, y, z = xs()
    f = x * y
    images = [Poly.variable(QP, 0), Poly.variable(QP, 1), Poly.const(QP, 1)]
    assert f.compose(images, QP) == Poly.variable(QP, 0) * Poly.variable(QP, 1)


def test_hash_agrees_with_equality():
    for c in (0, 1, Fraction(-3, 4)):
        const = Poly.const(X3, c)
        assert const == c and hash(const) == hash(c)
        assert len({const, c}) == 1
        nu = NuObject.from_poly(const)
        assert nu == const and hash(nu) == hash(const)
        assert nu == c and c == nu
        assert len({nu, const, c}) == 1
    one = NuObject.one(X3)
    assert one == 1 and one == Fraction(1) and one != 2
    assert len({one, Poly.const(X3, 1), 1}) == 1
    x1 = xs()[0]
    assert hash(NuObject.from_poly(x1)) == hash(x1)
    assert NuObject(X3, {1: x1}) != x1
