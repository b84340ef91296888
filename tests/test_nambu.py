"""Nambu brackets: examples, identities, broken tensors, dynamics."""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from nambu_forge import cli, nambu, poly
from nambu_forge.errors import IntegrationFailureError, InvalidArgumentError, ResourceLimitError
from nambu_forge.nambu import (
    Dynamics,
    NambuBracket,
    bracket_eval,
    canonical_bracket,
    check_fi,
    custom_bracket,
    divergence_is_zero,
    euler_top_dynamics,
    evolve,
    fi_residual,
    linear_bracket,
    nahm_dynamics,
    velocity_field,
)
from nambu_forge.poly import NuObject, Poly, coordinate_space
from nambu_forge.sun import fi_residual_sun, sun_su2
from nambu_forge.zariski import ZNu, zariski_space, zelem_from_poly

from conftest import det_oracle, fi_oracle, random_poly, taylor_elem

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
    fs = [x1, x2, x3, x4, x2 * x2]
    residual = check_fi(b, fs)
    assert not residual.is_zero()
    assert residual == fi_oracle(lambda *args: bracket_eval(b, args), 3, fs)


def _product(a, b, c):
    return a * b * c


def _product_operands():
    """Five operands each of Poly, NuObject and TaylorElem: the ternary
    product a * b * c is not a bracket, and its Fundamental Identity residual
    is -2 times the product of the five, nonzero (the broken tensor above
    gives a nonzero residual of a bracket)."""
    sp = coordinate_space(3)
    x = [Poly.variable(sp, i) for i in range(3)]
    polys = [x[0] + 1, x[1] - 2 * x[2], x[2] * Fraction(1, 3), x[0] * x[1] + 2, x[0] - x[2]]
    nus = [NuObject(sp, {0: f, 1: g}) for f, g in zip(polys, polys[1:] + polys[:1])]
    zsp = zariski_space(3)
    zs = [zelem_from_poly(Poly.variable(zsp, i) + c) for i, c in ((0, 0), (1, 1), (2, -1))]
    ys = [(0, 0, 0), (1, 0, 0), (0, 2, 1)]
    taylors = [taylor_elem(zsp, {ys[k % 3]: ZNu({0: zs[k % 3], 1: zs[(k + 1) % 3] * (k + 1)})})
               for k in range(5)]
    return [pytest.param(polys, id="Poly"), pytest.param(nus, id="NuObject"),
            pytest.param(taylors, id="TaylorElem")]


@pytest.mark.parametrize("fs", _product_operands())
def test_fi_residual_of_product_matches_oracle(fs):
    got = fi_residual(_product, 3, fs)
    assert not got.is_zero()
    assert type(got) is type(fs[0])
    assert got == fi_oracle(_product, 3, fs)


def test_fi_argument_count_refused_with_one_message():
    b, sp = canonical_bracket(3), sun_su2()
    x, L1 = Poly.variable(b.space, 0), Poly.variable(sp.space, 0)
    message = "^Fundamental Identity of order 3 needs 5 arguments$"
    with pytest.raises(InvalidArgumentError, match=message):
        check_fi(b, [x] * 4)
    with pytest.raises(InvalidArgumentError, match=message):
        fi_residual_sun(sp, [L1] * 6)


def test_custom_bracket_matches_canonical():
    sp = coordinate_space(3)
    b = custom_bracket(sp, 3, {(0, 1, 2): Poly.const(sp, 1)})
    ref = canonical_bracket(3)
    fs = [Poly.variable(sp, 0) ** 2, Poly.variable(sp, 1), Poly.variable(sp, 2)]
    assert bracket_eval(b, fs) == bracket_eval(ref, fs)


@pytest.mark.parametrize("n", range(2, 9))
def test_named_brackets_are_their_n_vectors(n):
    # a bracket is (order, space, eta): canonical(n) is e_1 ^ ... ^ e_n, and
    # linear(n) has eta^{I_k} = (-1)^(n-k) x_k on I_k, every index but k
    assert NambuBracket._fields == ("order", "space", "eta")
    sp = coordinate_space(n)
    canonical = custom_bracket(sp, n, {tuple(range(n)): Poly.const(sp, 1)})
    sp = coordinate_space(n + 1)
    linear = custom_bracket(sp, n, {tuple(i for i in range(n + 1) if i != k):
                                    Poly.variable(sp, k) * (-1) ** (n - k) for k in range(n + 1)})
    for named, built in ((canonical_bracket(n), canonical), (linear_bracket(n), linear)):
        assert named == built and hash(named) == hash(built)
    assert canonical_bracket(n) != linear_bracket(n)


# per bracket, the Jacobian term products of its ten trials, and the sha256 of
# the text of every bracket value and Fundamental Identity residual, recorded
# while canonical and linear brackets each had an evaluation route of their own
_BRACKET_WORK = {
    "canonical2": 335, "canonical3": 1525, "canonical4": 7056, "canonical5": 5551,
    "canonical6": 20069, "canonical7": 23081, "canonical8": 22512,
    "linear2": 1444, "linear3": 11490, "linear4": 58976, "linear5": 51045,
    "linear6": 6676, "linear7": 25710, "linear8": 11678,
}
_BRACKET_DIGEST = "f9a7787a40f10c2bb730483a32c7b68fc04dfe36403661a268497eb96753b36c"


def test_named_brackets_keep_their_values_and_work():
    # the check-fi work bound sums these counts, so its refusals stay put
    digest, work = hashlib.sha256(), {}
    for name in _BRACKET_WORK:
        b = cli._bracket_by_name(nambu, name)
        start = poly.jacobian_work
        for t in range(10):
            rng = random.Random(1000 * b.order + t)
            fs = [cli._rand_poly(b.space, 2, rng) for _ in range(2 * b.order - 1)]
            value, residual = bracket_eval(b, fs[:b.order]), check_fi(b, fs)
            digest.update(f"{name}:{t}:{value}|{residual}\n".encode())
        work[name] = poly.jacobian_work - start
    assert work == _BRACKET_WORK
    assert digest.hexdigest() == _BRACKET_DIGEST


@pytest.mark.parametrize("idx, coeff, message", [
    ((0, 1, 5), None, r"custom tensor index \(0, 1, 5\) out of range"),
    ((-1, 0, 1), None, r"custom tensor index \(-1, 0, 1\) out of range"),
    ((0, 1, 2), 1, "custom tensor coefficient 1 is not a Poly"),
], ids=["index-too-large", "negative-index", "int-coefficient"])
def test_custom_bracket_validates_its_tensor_when_built(idx, coeff, message):
    sp = coordinate_space(3)
    eta = {idx: Poly.const(sp, 1) if coeff is None else coeff}
    with pytest.raises(InvalidArgumentError, match=message):
        custom_bracket(sp, 3, eta)


@pytest.mark.parametrize("order", [0, -1])
def test_custom_bracket_refuses_an_order_below_one(order):
    # refused before the tensor is read: an order-0 bracket takes no
    # argument, so bracket_eval would have no space to read
    with pytest.raises(InvalidArgumentError, match=f"^bracket needs order >= 1, got {order}$"):
        custom_bracket(coordinate_space(3), order, {("not", "read"): None})


def test_custom_bracket_of_order_one_is_a_vector_field():
    sp = coordinate_space(3)
    x1, x2, x3 = (Poly.variable(sp, i) for i in range(3))
    b = custom_bracket(sp, 1, {(0,): x2, (2,): Poly.const(sp, 3)})
    assert bracket_eval(b, [x1 * x1 * x3]) == x1 * x2 * x3 * 2 + x1 * x1 * 3


def _rational_polys(space, rng, count):
    """Random polynomials with coefficients over denominators up to 5, one
    of them sometimes constant."""
    fs = [random_poly(space, rng, degree=2, terms=rng.randint(2, 4)) * Fraction(1, rng.randint(1, 5))
          for _ in range(count)]
    if rng.random() < 0.25:
        fs[rng.randrange(count)] = Poly.const(space, Fraction(-2, 3))
    return fs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linear_bracket_matches_leibniz_minors(rng, n):
    b = linear_bracket(n)
    for _ in range(6):
        fs = _rational_polys(b.space, rng, n)
        want = Poly.zero(b.space)
        for k in range(n + 1):
            minor = det_oracle(fs, [j for j in range(n + 1) if j != k])
            want = want + Poly.variable(b.space, k) * minor * (-1) ** (n - k)
        assert bracket_eval(b, fs) == want


def test_custom_bracket_with_overlapping_index_sets_matches_leibniz_minors(rng):
    # the index sets share columns pairwise, and column 5 is used by one only
    sp = coordinate_space(6)
    x = [Poly.variable(sp, i) for i in range(6)]
    eta = {(0, 1, 2): Poly.const(sp, Fraction(3, 2)), (1, 2, 3): x[0] - x[4],
           (0, 3, 4): x[2] * Fraction(-1, 3), (2, 4, 5): Poly.const(sp, 5)}
    b = custom_bracket(sp, 3, eta)
    nonzero = 0
    for _ in range(12):
        fs = _rational_polys(sp, rng, 3)
        want = sum((c * det_oracle(fs, idx) for idx, c in eta.items()), Poly.zero(sp))
        got = bracket_eval(b, fs)
        assert got == want
        nonzero += not got.is_zero()
    assert nonzero >= 6


def test_custom_bracket_expands_inside_its_index_sets_only(monkeypatch):
    # linear operands have constant partials, so each product is one call:
    # 6 * 2 pairs and 2 * 3 triples inside {0, 1, 2} or {3, 4, 5}, against
    # 6 * 5 + 15 * 4 over all six columns
    sp = coordinate_space(6)
    x = [Poly.variable(sp, i) for i in range(6)]
    b = custom_bracket(sp, 3, {(0, 1, 2): Poly.const(sp, 1), (3, 4, 5): x[0]})
    fs = [sum((x[i] * c(i) for i in range(6)), Poly.zero(sp))
          for c in (lambda i: i + 1, lambda i: (-1) ** i, lambda i: Fraction(i * i + 1, 2))]
    calls = []
    original = poly._alternating_sum

    def counting_sum(rows, mul_into, *rest):
        def counting(*args):
            calls.append(1)
            mul_into(*args)

        return original(rows, counting, *rest)

    # only the Laplace expansion's products count, not the products that
    # scale each minor by its coefficient
    monkeypatch.setattr(poly, "_alternating_sum", counting_sum)
    start = poly.jacobian_work
    got = bracket_eval(b, fs)
    monkeypatch.undo()
    assert len(calls) == 18
    # each product is of one-term maps, so each adds one to the count
    assert poly.jacobian_work - start == 18
    assert got == det_oracle(fs, (0, 1, 2)) + x[0] * det_oracle(fs, (3, 4, 5))


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


def test_lie_poisson_rigid_body_on_the_linear_bracket():
    # so(3)* with H = x1^2/2 + x2^2/4 + x3^2/6: the linear bracket's Casimir
    # x1^2 + x2^2 + x3^2 is conserved along with H
    b = linear_bracket(2)
    x1, x2, x3 = (Poly.variable(b.space, i) for i in range(3))
    h = x1 * x1 * Fraction(1, 2) + x2 * x2 * Fraction(1, 4) + x3 * x3 * Fraction(1, 6)
    d = Dynamics(b, (h,), (1.0, 1.0, 1.0))
    field = velocity_field(d)
    assert field == [x2 * x3 * Fraction(-1, 6), x1 * x3 * Fraction(2, 3), x1 * x2 * Fraction(-1, 2)]
    assert divergence_is_zero(field)
    res = evolve(d, 10, 1e-3)
    assert res.divergence_zero and res.steps == 10_000
    assert res.max_relative_drift[0] < 1e-8
    casimir = [x * x + y * y + z * z for x, y, z in res.states]
    assert max(abs(c - casimir[0]) for c in casimir) / casimir[0] < 1e-8


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
