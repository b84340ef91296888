"""Nambu brackets: examples, identities, broken tensors, dynamics."""

import json
import pathlib

import pytest

from nambu_forge import nambu
from nambu_forge.errors import IntegrationFailureError, InvalidArgumentError, ResourceLimitError
from nambu_forge.nambu import (
    Dynamics,
    bracket_eval,
    canonical_bracket,
    check_fi,
    custom_bracket,
    divergence_is_zero,
    euler_top_dynamics,
    evolve,
    linear_bracket,
    nahm_dynamics,
    velocity_field,
)
from nambu_forge.poly import Poly, coordinate_space

from conftest import random_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_canonical_coordinates():
    b = canonical_bracket(3)
    x, y, z = (Poly.variable(b.space, i) for i in range(3))
    assert bracket_eval(b, [x, y, z]) == Poly.const(b.space, 1)


def test_canonical_order_two_is_poisson():
    b = canonical_bracket(2)
    x, y = (Poly.variable(b.space, i) for i in range(2))
    assert bracket_eval(b, [x * x, y]) == 2 * x


def test_linear_bracket_golden_sign():
    golden = json.loads((GOLDEN / "linear_bracket_sign.json").read_text())
    b = linear_bracket(3)
    xs = [Poly.variable(b.space, i) for i in range(4)]
    assert str(bracket_eval(b, xs[:3])) == golden["result"]


def test_arity_mismatch():
    b = canonical_bracket(3)
    x = Poly.variable(b.space, 0)
    with pytest.raises(InvalidArgumentError):
        bracket_eval(b, [x, x])


def test_skew_symmetry_and_leibniz(rng):
    for b in (canonical_bracket(3), linear_bracket(3)):
        for _ in range(8):
            f, g, h, extra = (random_poly(b.space, rng) for _ in range(4))
            assert bracket_eval(b, [f, g, h]) == -bracket_eval(b, [g, f, h])
            assert bracket_eval(b, [f, f, h]).is_zero()
            lhs = bracket_eval(b, [f * g, h, extra])
            rhs = f * bracket_eval(b, [g, h, extra]) + bracket_eval(b, [f, h, extra]) * g
            assert lhs == rhs


def test_fi_canonical(rng):
    for n in (2, 3, 4):
        b = canonical_bracket(n)
        for _ in range(6):
            fs = [random_poly(b.space, rng) for _ in range(2 * n - 1)]
            assert check_fi(b, fs).is_zero()


def test_fi_linear(rng):
    b = linear_bracket(3)
    for _ in range(8):
        fs = [random_poly(b.space, rng) for _ in range(5)]
        assert check_fi(b, fs).is_zero()


def test_broken_tensor_fails_fi():
    # canonical block on R^4 plus a coordinate-dependent perturbation whose
    # dual 1-form is not integrable; the identity must fail on some input
    sp = coordinate_space(4)
    x1, x2, x3, x4 = (Poly.variable(sp, i) for i in range(4))
    b = custom_bracket(sp, 3, {(0, 1, 2): Poly.const(sp, 1), (0, 1, 3): x1})
    residual = check_fi(b, [x1, x2, x3, x4, x2 * x2])
    assert not residual.is_zero()


def test_custom_bracket_matches_canonical():
    sp = coordinate_space(3)
    b = custom_bracket(sp, 3, {(0, 1, 2): Poly.const(sp, 1)})
    ref = canonical_bracket(3)
    fs = [Poly.variable(sp, 0) ** 2, Poly.variable(sp, 1), Poly.variable(sp, 2)]
    assert bracket_eval(b, fs) == bracket_eval(ref, fs)


def test_euler_top_conservation():
    d = euler_top_dynamics((1, 2, 3), (1.0, 1.0, 1.0))
    res = evolve(d, 10.0, 1e-3)
    assert res.divergence_zero
    assert all(drift < 1e-8 for drift in res.max_relative_drift)


def test_nahm_conservation():
    d = nahm_dynamics()
    res = evolve(d, 1.0, 1e-3)
    assert res.divergence_zero
    assert all(drift < 1e-8 for drift in res.max_relative_drift)


def test_velocity_divergence_symbolically_zero(rng):
    b = canonical_bracket(3)
    for _ in range(5):
        hams = (random_poly(b.space, rng, degree=3), random_poly(b.space, rng, degree=3))
        d = Dynamics(b, hams, (0.1, 0.2, 0.3))
        assert divergence_is_zero(velocity_field(d))


def test_zero_hamiltonians_constant_trajectory():
    b = canonical_bracket(3)
    d = Dynamics(b, (Poly.zero(b.space), Poly.zero(b.space)), (1.0, 2.0, 3.0))
    res = evolve(d, 0.05, 1e-2)
    assert all(s == (1.0, 2.0, 3.0) for s in res.states)


def test_integration_failure_reports_step():
    b = canonical_bracket(3)
    sp = b.space
    x1, x2, x3 = (Poly.variable(sp, i) for i in range(3))
    # cubic growth blows up quickly from a large state
    d = Dynamics(b, (x1 * x1 * x1 * x2, x2 * x2 + x3 * x3), (50.0, 50.0, 50.0))
    with pytest.raises(IntegrationFailureError) as err:
        evolve(d, 10.0, 0.5)
    assert err.value.step_index >= 0


def test_csv_export():
    d = nahm_dynamics()
    res = evolve(d, 0.01, 1e-3)
    csv_text = res.to_csv(d.bracket.space.names)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,H1,H2"
    assert len(lines) == res.steps + 2


def test_evolve_step_bound(monkeypatch):
    monkeypatch.setattr(nambu, "EVOLVE_STEP_BOUND", 10)
    d = nahm_dynamics()
    assert evolve(d, 0.01, 1e-3).steps == 10
    for horizon in (0.011, float("inf"), 1e300):
        with pytest.raises(ResourceLimitError, match="evolve bound 10"):
            evolve(d, horizon, 1e-3)
    with pytest.raises(ResourceLimitError, match="evolve bound 10"):
        evolve(d, 1.0, 1e-300)
    with pytest.raises(InvalidArgumentError, match="horizon"):
        evolve(d, float("nan"), 1e-3)
    with pytest.raises(InvalidArgumentError, match="step"):
        evolve(d, 0.01, float("nan"))


class _UnreadTensor(dict):
    def items(self):
        raise AssertionError("the tensor was read before the order check")


@pytest.mark.parametrize("order", [9, 1_000_000])
def test_bracket_order_bound(monkeypatch, order):
    space = coordinate_space(3)

    def no_space(n):
        raise AssertionError(f"a space of {n} variables was built before the order check")

    monkeypatch.setattr(nambu, "coordinate_space", no_space)
    for make in (canonical_bracket, linear_bracket):
        with pytest.raises(ResourceLimitError, match="bracket order bound 8"):
            make(order)
    with pytest.raises(ResourceLimitError, match="bracket order bound 8"):
        custom_bracket(space, order, _UnreadTensor())
