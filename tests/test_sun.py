"""Sun products, coefficient tables, triviality and spectral statements."""

import json
import pathlib
from fractions import Fraction

import pytest

from nambu_forge import sun
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.numbers import falling_factorial, secant_coefficient, tangent_coefficient
from nambu_forge.poly import NuObject, Poly, qp_space, su2_space
from nambu_forge.star import (
    star_exponential,
    star_mul,
    standard_ordering_product,
    su2_product,
)
from nambu_forge.sun import (
    USUAL_PRODUCT,
    SunProduct,
    a_closed_form,
    a_recursion,
    apply_equivalence,
    big_a,
    fi_residual_sun,
    identity_series,
    quantized_nambu_sun,
    sun_closed_form,
    sun_coefficients,
    sun_exponential,
    sun_homogeneous_form,
    sun_lift,
    sun_moyal_standard,
    sun_mul,
    sun_su2,
    weak_leibniz_residual,
    weak_trivializer,
    z_coefficient,
)
from nambu_forge.zariski import zariski_star

from conftest import brute_sun_lift, compositions, random_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"
L = su2_space()
QP = qp_space()
L1, L2, L3 = (Poly.variable(L, i) for i in range(3))
SU = sun_su2()
MS = sun_moyal_standard()


def monomials_up_to(d):
    return [(a, b, c) for a in range(d + 1) for b in range(d + 1 - a) for c in range(d + 1 - a - b)]


# -- products ------------------------------------------------------------------


def test_su2_displays():
    assert sun_mul(SU, L1, L2) == NuObject.from_poly(L1 * L2)
    assert sun_mul(SU, L3, L3) == NuObject(L, {0: L3 * L3, 2: Poly.const(L, 2)})
    for i in range(3):
        for j in range(3):
            li, lj = Poly.variable(L, i), Poly.variable(L, j)
            expected = {0: li * lj}
            if i == j:
                expected[2] = Poly.const(L, 2)
            assert sun_mul(SU, li, lj) == NuObject(L, expected)


def test_ms_displays():
    q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
    assert sun_mul(MS, q, p) == NuObject(QP, {0: q * p, 1: Poly.const(QP, 1)})
    assert sun_mul(MS, q, q) == NuObject.from_poly(q * q)
    # matches q^a * p^b recombination on composite monomials
    assert sun_mul(MS, q * p, q) == star_mul(MS.star, q * q, p)


def test_sun_is_abelian_and_associative(rng):
    for sp, space in ((SU, L), (MS, QP)):
        for _ in range(6):
            f = random_poly(space, rng, degree=3, terms=3)
            g = random_poly(space, rng, degree=3, terms=3)
            h = random_poly(space, rng, degree=2, terms=2)
            assert sun_mul(sp, f, g) == sun_mul(sp, g, f)
            lhs = sun_mul(sp, sun_mul(sp, f, g), h)
            rhs = sun_mul(sp, f, sun_mul(sp, g, h))
            assert lhs == rhs


def test_sun_annihilates_nu_powers():
    x = NuObject(L, {0: L1, 1: L2})
    assert sun_mul(SU, x, L3) == sun_mul(SU, L1, L3)
    assert sun_mul(SU, NuObject(L, {1: L1}), L3).is_zero()


def test_sun_lift_not_order_preserving_invertible():
    # the evaluation map kills nu x1 while fixing 0: it has no formal inverse
    witness = NuObject(L, {1: L1})
    assert sun_lift(SU, witness).is_zero()
    assert not witness.is_zero()


def _rational(rng, space, exponents):
    """A NuObject whose classical part has the given monomials with rational
    coefficients, plus a nu^1 part that the lift must drop."""
    f = Poly(space, {e: Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 7)) for e in exponents})
    return NuObject(space, {0: f, 1: Poly.variable(space, 0)})


def _assert_lift_matches_brute(sp, x):
    got = sun_lift(sp, x)
    assert got == brute_sun_lift(sp, x)
    assert all(type(c) is Fraction for p in got.coeffs.values() for c in p.terms.values())


def test_sun_lift_su2_matches_fold(rng):
    low = monomials_up_to(5)
    high = [e for e in monomials_up_to(9) if sum(e) > 5]
    for _ in range(8):
        mix = rng.sample(low, 3) + rng.sample(high, 2)
        _assert_lift_matches_brute(SU, _rational(rng, L, mix))
    _assert_lift_matches_brute(SU, _rational(rng, L, low[:10]))
    _assert_lift_matches_brute(SU, _rational(rng, L, high[-4:]))


def test_sun_lift_su2_parts_over_unlike_denominators(rng):
    # each homogeneous part carries its own denominator, so the Laplacians run
    # over their least common multiple and every a(m, r) scaling must divide
    # it out again
    denominators = (11, 3, 7, 4, 5, 9, 2, 13)
    for _ in range(3):
        terms = {}
        for m, d in enumerate(denominators):
            for e in rng.sample([e for e in monomials_up_to(m) if sum(e) == m], 2 if m else 1):
                terms[e] = Fraction(rng.choice([-5, -2, 1, 3]), d)
        _assert_lift_matches_brute(SU, NuObject(L, {0: Poly(L, terms), -1: L2}))


def test_su2_lift_equals_brute_on_every_monomial_to_degree_10():
    monos = monomials_up_to(10)
    assert len(monos) == 286
    for e in monos:
        f = Poly.monomial(L, e)
        expect = brute_sun_lift(SU, f)
        assert sun_lift(SU, f) == expect, e
        assert sun_closed_form(f, Poly.const(L, 1)) == expect, e


@pytest.mark.parametrize("n", [3, 4])
def test_moyal_coordinate_monomial_lift_is_identity(n):
    # Weyl ordering: the symmetrized product of coordinate factors is the
    # classical monomial on the partial-Moyal (n = 3) and Moyal (n = 4) stars
    sp = SunProduct(zariski_star(n), "coordinate_monomial")
    for d in range(7):
        for e in compositions(d, n):
            f = Poly.monomial(sp.space, e)
            assert brute_sun_lift(sp, f) == NuObject.from_poly(f), e
            assert sun_lift(sp, f) == NuObject.from_poly(f), e


def test_sun_lift_moyal_coordinate_monomial_matches_fold(rng):
    for n in (3, 4):
        sp = SunProduct(zariski_star(n), "coordinate_monomial")
        exponents = list(compositions(3, n)) + list(compositions(2, n))
        for _ in range(4):
            _assert_lift_matches_brute(sp, _rational(rng, sp.space, rng.sample(exponents, 4)))


def test_sun_lift_moyal_standard_matches_fold(rng):
    exponents = [(a, b) for a in range(5) for b in range(5)]
    for _ in range(8):
        _assert_lift_matches_brute(MS, _rational(rng, QP, rng.sample(exponents, 5)))


def test_coordinate_monomial_refuses_standard_ordering():
    # the standard-ordering product has no g * f = (f * g)(-nu) symmetry
    sp = SunProduct(standard_ordering_product(QP), "coordinate_monomial")
    q = Poly.variable(QP, 0)
    with pytest.raises(InvalidArgumentError, match="'standard_ordering' has none"):
        sun_lift(sp, q * q)


# -- coefficient tables ----------------------------------------------------------


def test_base_cases():
    for n in range(11):
        assert a_recursion(n, 0) == 1
    for r in range(6):
        assert a_recursion(0, r) == 1


def test_a_recursion_bound(monkeypatch):
    monkeypatch.setattr(sun, "A_RECURSION_BOUND", 12)
    a_recursion.cache_clear()  # a cached value would skip the check
    assert a_recursion(0, 10**9) == 1  # no recursion step at all
    assert a_recursion(10**9, 0) == 1  # nor a pass over the rows
    assert a_recursion(12, 1) == a_closed_form(12, 1)  # 12 steps
    # 9 steps; by hand a(1, r) = 4 - 4r, a(2, 3) = 20, a(2, 4) = 52
    assert a_recursion(3, 4) == Fraction(-5 * 52 - 3 * 20, 3)
    for n, r in ((13, 1), (4, 4), (5, 3)):
        with pytest.raises(ResourceLimitError, match="a_recursion bound 12") as err:
            a_recursion(n, r)
        assert f"{n * min(n, r)} recursion steps" in str(err.value)


def test_pinned_value():
    assert a_recursion(2, 1) == 1
    assert a_closed_form(2, 1) == 1


def test_tables_agree():
    table = sun_coefficients(10, 5)
    assert table.agree()
    assert table.gamma[0] == 1 and table.tau[0] == 1


def test_closed_form_domain():
    with pytest.raises(InvalidArgumentError):
        a_closed_form(1, 1)
    with pytest.raises(InvalidArgumentError):
        a_closed_form(3, -1)


def test_closed_form_matches_composition_sum():
    # oracle: the sum over compositions of r into n - 2r + 2 parts of two
    # secant and n - 2r tangent coefficients
    for n in range(16):
        for r in range(n // 2 + 1):
            total = Fraction(0)
            for js in compositions(r, n - 2 * r + 2):
                term = secant_coefficient(js[0]) * secant_coefficient(js[1])
                for j in js[2:]:
                    term *= tangent_coefficient(j)
                total += term
            assert a_closed_form(n, r) == total, (n, r)


def test_theorem_coefficient_identity():
    # a(m, r) = A_r + sum_p z_{p,r} ff(m - 2r, p): ties the z-table to the
    # recursion on homogeneous degrees
    for r in range(1, 5):
        for m in range(2 * r, 11):
            expect = big_a(r) + sum(
                z_coefficient(p, r) * falling_factorial(m - 2 * r, p) for p in range(1, r + 1)
            )
            assert a_recursion(m, r) == expect, (m, r)


def test_a_recursion_domain_and_large_n():
    for n, r in ((-1, 1), (1, -1), (-3, 0)):
        with pytest.raises(InvalidArgumentError):
            a_recursion(n, r)
    # filled row by row, so n far past the interpreter's recursion limit works
    m = 5000
    expect = big_a(2) + sum(z_coefficient(p, 2) * falling_factorial(m - 4, p) for p in (1, 2))
    assert a_recursion(m, 2) == expect


def test_a_recursion_with_r_far_past_n():
    # the plain recursion: n levels deep, so cheap for small n and any r
    def reference(n, r):
        if n == 0 or r == 0:
            return Fraction(1)
        return (Fraction(n - 2 * r) * reference(n - 1, r)
                + Fraction(n - 2 * r + 2) * reference(n - 1, r - 1)) / n

    for n in range(8):
        for r in range(12):
            assert a_recursion(n, r) == reference(n, r), (n, r)
    assert a_recursion(0, 10**9) == 1
    assert a_recursion(3, 10**9) == reference(3, 10**9)


def test_su2_diagonal_pins_a21():
    # L3 sun L3 = L3^2 + nu^2 a(2,1) Delta(L3^2) requires a(2,1) = 1
    got = sun_mul(SU, L3, L3).coefficient(2)
    assert got == Poly.const(L, 2)
    assert a_recursion(2, 1) * 2 == 2


# -- closed form -----------------------------------------------------------------


def test_closed_form_equals_brute_on_monomials():
    for m1 in monomials_up_to(3):
        for m2 in monomials_up_to(3):
            if sum(m1) + sum(m2) > 3:
                continue
            f, g = Poly.monomial(L, m1), Poly.monomial(L, m2)
            expect = brute_sun_lift(SU, f * g)
            assert sun_closed_form(f, g) == expect, (m1, m2)
            assert sun_mul(SU, f, g) == expect, (m1, m2)


def test_closed_form_inhomogeneous(rng):
    for _ in range(5):
        f = random_poly(L, rng, degree=3, terms=3)
        g = random_poly(L, rng, degree=2, terms=3)
        expect = brute_sun_lift(SU, f * g)
        assert sun_closed_form(f, g) == expect
        assert sun_mul(SU, f, g) == expect


def test_homogeneous_display(rng):
    f = L1 * L1 + L2 * L3
    g = L2 * L2 - L1 * L3
    assert sun_homogeneous_form(f, g) == brute_sun_lift(SU, f * g)
    with pytest.raises(InvalidArgumentError):
        sun_homogeneous_form(L1 + L2 * L2, L3)


def _eta(r, f):
    """eta_r(f), the nu^{2r} coefficient of the weak trivializer applied to f."""
    return weak_trivializer(r).apply(f).coefficient(2 * r)


def test_eta_operator_shape():
    # on degree-2 homogeneous input: (A_1 + z_11 D) Delta = a(4,1)-type action
    f = L1 * L2
    assert _eta(1, f).is_zero()  # Delta kills L1 L2
    g = L3 * L3
    assert _eta(1, g) == Poly.const(L, 2)
    with pytest.raises(InvalidArgumentError):
        weak_trivializer(0)


def _laplacian_power(f, r):
    for _ in range(r):
        f = sum((f.diff_multi(tuple(2 * (j == i) for j in range(3))) for i in range(3)),
                Poly.zero(L))
    return f


def test_eta_operator_matches_az_form(rng):
    # eta_r = (A_r + sum_p z_{p,r} D(D-1)...(D-p+1)) Delta^r, with the Euler
    # operator D read off as the degree m - 2r of Delta^r f_m
    for r in range(1, 5):
        for _ in range(4):
            f = sum((random_poly(L, rng, degree=d, terms=2) for d in range(11)), Poly.zero(L))
            expect = Poly.zero(L)
            for m in {sum(e) for e in f.terms}:
                f_m = Poly(L, {e: c for e, c in f.terms.items() if sum(e) == m})
                scale = big_a(r) + sum(
                    z_coefficient(p, r) * falling_factorial(m - 2 * r, p) for p in range(1, r + 1)
                )
                expect = expect + _laplacian_power(f_m, r) * scale
            assert _eta(r, f) == expect, (r, str(f))


def test_eta_terms_stop_at_half_the_degree():
    # eta_r vanishes past r = deg f / 2, however large r_max is
    assert len(sun._eta_terms(L1 * L2, 10**6)) == 2
    assert len(sun._eta_terms(L3**5 + L1, 10**6)) == 3
    assert sun._eta_terms(Poly.zero(L), 10**6) == [Poly.zero(L)]


def test_series_operator_identity_and_absent_orders(rng):
    s = weak_trivializer(2)
    for _ in range(4):
        f = random_poly(L, rng, degree=6, terms=5)
        sf = s.apply(f)
        assert set(sf.coeffs) <= {0, 2, 4}
        assert sf.coefficient(0) == f
        for absent in (1, 3, 5, 6):
            assert sf.coefficient(absent).is_zero()


# -- quantized Nambu bracket ------------------------------------------------------


def test_quantized_bracket_examples():
    assert quantized_nambu_sun(L1, L2, L3, SU) == NuObject.one(L)
    assert quantized_nambu_sun(L1 * L1, L2, L3, SU) == NuObject.from_poly(2 * L1)
    f = L1 * L1 + L2
    assert quantized_nambu_sun(f, f, L3, SU).is_zero()


def test_quantized_bracket_fi(rng):
    for _ in range(4):
        fs = [random_poly(L, rng, degree=2, terms=3) for _ in range(5)]
        assert fi_residual_sun(SU, fs).is_zero()


def test_weak_leibniz(rng):
    for _ in range(4):
        f, g, h = (random_poly(L, rng, degree=2, terms=3) for _ in range(3))
        for axis in range(3):
            assert weak_leibniz_residual(SU, f, g, h, axis).is_zero()


# -- equivalence and triviality -----------------------------------------------------


def test_identity_series_reflexive(rng):
    s = identity_series(L)
    for _ in range(4):
        f = random_poly(L, rng, degree=2, terms=2)
        g = random_poly(L, rng, degree=2, terms=2)
        assert apply_equivalence(s, "A", SU, SU, f, g, 6).is_zero()
        assert apply_equivalence(s, "B", SU, SU, f, g, 6).is_zero()
        assert apply_equivalence(s, "B", USUAL_PRODUCT, USUAL_PRODUCT, f, g, 6).is_zero()


def test_weak_trivializer(rng):
    s = weak_trivializer(3)
    for _ in range(6):
        f = random_poly(L, rng, degree=3, terms=3)
        g = random_poly(L, rng, degree=3, terms=3)
        residual = apply_equivalence(s, "B", USUAL_PRODUCT, SU, f, g, 6)
        assert residual.is_zero(), str(residual)


@pytest.mark.parametrize("left", [USUAL_PRODUCT, SU], ids=["usual", "su2"])
def test_mode_a_matches_mode_b(rng, left):
    # with the usual product on the right, whose only cochain is rho_0 = FG,
    # both modes compute S(F o G) - S(F) S(G), which stays nonzero here
    s = weak_trivializer(3)
    for _ in range(6):
        f = random_poly(L, rng, degree=4, terms=3)
        g = random_poly(L, rng, degree=4, terms=3)
        residual = apply_equivalence(s, "A", left, USUAL_PRODUCT, f, g, 6)
        assert not residual.is_zero(), (str(f), str(g))
        assert residual == apply_equivalence(s, "B", left, USUAL_PRODUCT, f, g, 6)


def test_strong_triviality_refuted():
    # the direct criterion: the product differs from the usual one at nu^2
    diff = sun_mul(SU, L3, L3) - NuObject.from_poly(L3 * L3)
    assert diff == NuObject(L, {2: Poly.const(L, 2)})
    resA = apply_equivalence(identity_series(L), "A", SU, USUAL_PRODUCT, L3, L3, 4)
    assert resA.coefficient(2) == Poly.const(L, 2)


def test_ms_is_weakly_nontrivial_at_nu1():
    q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
    diff = sun_mul(MS, q, p) - NuObject.from_poly(q * p)
    assert diff == NuObject(QP, {1: Poly.const(QP, 1)})


# -- exponentials -----------------------------------------------------------------


def test_exponential_coincides_for_linear():
    e_sun = sun_exponential(SU, L3, 6)
    e_star = star_exponential(su2_product(), L3, 6)
    for r in range(7):
        assert e_sun.coefficient(r) == e_star.coefficient(r)


def test_exponential_differs_for_h1_golden():
    golden = json.loads((GOLDEN / "sun_exp_h1_divergence.json").read_text())
    h1 = (L1 * L1 + L2 * L2 + L3 * L3) * Fraction(1, 2)
    e_sun = sun_exponential(SU, h1, 6)
    e_star = star_exponential(su2_product(), h1, 6)
    first = next(
        (r for r in range(7) if e_sun.coefficient(r) != e_star.coefficient(r)), None
    )
    assert first == golden["first_differing_t_order"]
