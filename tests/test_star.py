"""Star products: displays, condition b), associativity, the su(2)* lift."""

from fractions import Fraction
from math import factorial

import pytest

from nambu_forge import poly, star
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.poly import (
    NuObject,
    Poly,
    coordinate_space,
    poisson_power,
    qp_space,
    su2_lift_space,
    su2_space,
)
from nambu_forge.star import (
    _star_monomial,
    _su2_project,
    moyal_product,
    partial_moyal_product,
    standard_ordering_product,
    star_commutator,
    star_exponential,
    star_mul,
    star_power,
    su2_left_mul,
    su2_lift,
    su2_product,
    su2_star_via_lift,
)
from nambu_forge.zariski import zariski_space

from conftest import compositions, random_poly

QP = qp_space()
L = su2_space()
q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
L1, L2, L3 = (Poly.variable(L, i) for i in range(3))
EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
       (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}

ALL_PRODUCTS = [
    ("moyal", moyal_product(QP), QP),
    ("partial", partial_moyal_product(zariski_space(3)), zariski_space(3)),
    ("standard", standard_ordering_product(QP), QP),
    ("su2", su2_product(), L),
]


def test_moyal_canonical_pair():
    M = moyal_product(QP)
    assert star_mul(M, q, p) == NuObject(QP, {0: q * p, 1: Poly.const(QP, 1)})
    assert star_mul(M, p, q) == NuObject(QP, {0: q * p, 1: Poly.const(QP, -1)})


def test_moyal_harmonic_square():
    M = moyal_product(QP)
    h = p * p + q * q
    assert star_mul(M, h, h) == NuObject(QP, {0: h * h, 2: Poly.const(QP, 4)})


def test_su2_structure_displays():
    SU = su2_product()
    assert star_mul(SU, L1, L2) == NuObject(L, {0: L1 * L2, 1: L3})
    assert star_mul(SU, L1, L1) == NuObject(L, {0: L1 * L1, 2: Poly.const(L, 2)})
    for i in range(3):
        for j in range(3):
            li, lj = Poly.variable(L, i), Poly.variable(L, j)
            expected = {0: li * lj}
            eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (1, 0): 2, (2, 1): 0, (0, 2): 1}
            if i != j:
                k = eps[(i, j)]
                sign = 1 if (i, j) in ((0, 1), (1, 2), (2, 0)) else -1
                expected[1] = Poly.variable(L, k) * sign
            else:
                expected[2] = Poly.const(L, 2)
            assert star_mul(SU, li, lj) == NuObject(L, expected)


def test_su2_commutator():
    SU = su2_product()
    assert star_commutator(SU, L1, L2) == NuObject.from_poly(L3)
    assert star_commutator(SU, L2, L3) == NuObject.from_poly(L1)
    assert star_commutator(SU, L1, L1).is_zero()


def test_su2_left_mul_displays():
    assert su2_left_mul(3, L3) == NuObject(L, {0: L3 * L3, 2: Poly.const(L, 2)})
    assert su2_left_mul(1, L2) == NuObject(L, {0: L1 * L2, 1: L3})
    assert su2_left_mul(1, Poly.const(L, 1)) == NuObject.from_poly(L1)
    with pytest.raises(InvalidArgumentError):
        su2_left_mul(4, L1)


def test_su2_left_mul_matches_product(rng):
    SU = su2_product()
    for _ in range(6):
        f = random_poly(L, rng, degree=3, terms=3)
        for i in (1, 2, 3):
            assert su2_left_mul(i, f) == star_mul(SU, Poly.variable(L, i - 1), f)


def test_condition_b_antisymmetrized_first_cochain(rng):
    # C1(f,g) - C1(g,f) = 2 P(f,g) for the moyal, partial and standard kinds
    for name, product, space in ALL_PRODUCTS[:3]:
        for _ in range(10):
            f = random_poly(space, rng, degree=3, terms=3)
            g = random_poly(space, rng, degree=3, terms=3)
            c1fg = star_mul(product, f, g).coefficient(1)
            c1gf = star_mul(product, g, f).coefficient(1)
            assert c1fg - c1gf == 2 * poisson_power(f, g, 1), name


def _bivector_power(f: Poly, g: Poly, r: int) -> Poly:
    """P^r(f, g) from the definition, the oracle for the pair-grid kernel:
    P = sum over pairs (a, b) of d_a (x) d_b - d_b (x) d_a is applied r times
    to a list of tensors c f_i (x) g_i, which are then multiplied out."""
    tensors = [(Fraction(1), f, g)]
    for _ in range(r):
        tensors = [
            (c * sign, fa, gb)
            for c, fi, gi in tensors
            for a, b in f.space.pairs
            for sign, x, y in ((1, a, b), (-1, b, a))
            if not (fa := fi.diff(x)).is_zero() and not (gb := gi.diff(y)).is_zero()
        ]
    return sum((fi * gi * c for c, fi, gi in tensors), Poly.zero(f.space))


def _fractional_poly(space, rng, skip=()) -> Poly:
    """A random polynomial of degree 3 with fractional coefficients, free of
    the variables in ``skip``."""
    f = random_poly(space, rng, degree=3, terms=4)
    return Poly(space, {
        tuple(0 if i in skip else k for i, k in enumerate(e)): c / rng.choice([2, 3, 5])
        for e, c in f.terms.items()
    })


@pytest.mark.parametrize("npairs", [1, 2, 3])
def test_poisson_kernel_matches_bivector_oracle(rng, npairs):
    # operands of degree 3 make every P^r with r > 3 vanish, so r <= 4 is
    # the whole series; with two or more pairs only f uses the last one
    for central, make in ((0, moyal_product), (1, partial_moyal_product)):
        space = coordinate_space(2 * npairs + central, npairs)
        last = space.pairs[-1] if npairs > 1 else ()
        for _ in range(3):
            f = _fractional_poly(space, rng)
            e = [0] * space.nvars
            e[2 * npairs - 2 : 2 * npairs] = 2, 1
            f = f + Poly.monomial(space, e, Fraction(1, 3))
            g = _fractional_poly(space, rng, skip=last)
            powers = [_bivector_power(f, g, r) for r in range(5)]
            assert [poisson_power(f, g, r) for r in range(5)] == powers
            expect = NuObject(space, {r: pr * Fraction(1, factorial(r))
                                      for r, pr in enumerate(powers)})
            assert star_mul(make(space), f, g) == expect
            assert star_mul(make(space), g, f) == NuObject(
                space, {r: pr * Fraction((-1) ** r, factorial(r)) for r, pr in enumerate(powers)})


def test_poisson_kernel_work_does_not_grow_with_unused_pairs(monkeypatch):
    # a1^4 a2^4 uses one pair of the space; the other pairs must cost no
    # derivative lookup, so 128 variables take as many as 4
    counts = []
    get = poly._DerivativeCache.get

    def counted(self, orders):
        counts[-1] += 1
        if len(counts) > 1 and counts[-1] > counts[0]:
            raise AssertionError("more derivative lookups than on 4 variables")
        return get(self, orders)

    monkeypatch.setattr(poly._DerivativeCache, "get", counted)
    texts = []
    for n in (4, 128):
        counts.append(0)
        space = coordinate_space(n, n // 2)
        f = Poly.monomial(space, (4, 4) + (0,) * (n - 2))
        texts.append(str(star_mul(moyal_product(space), f, f)))
    assert counts[0] == counts[1] > 0
    assert texts[0] == texts[1]


def test_su2_first_cochain_is_linear_poisson(rng):
    SU = su2_product()
    for _ in range(6):
        f = random_poly(L, rng, degree=2, terms=3)
        g = random_poly(L, rng, degree=2, terms=3)
        bracket = Poly.zero(L)
        for (i, j, k), s in EPS.items():
            bracket = bracket + Poly.variable(L, k) * f.diff(i) * g.diff(j) * s
        c1fg = star_mul(SU, f, g).coefficient(1)
        c1gf = star_mul(SU, g, f).coefficient(1)
        assert c1fg - c1gf == 2 * bracket
        assert c1fg == bracket  # the product's own first cochain is the bracket


def test_associativity_all_kinds(rng):
    for name, product, space in ALL_PRODUCTS:
        for _ in range(6):
            f, g, h = (random_poly(space, rng, degree=3, terms=3) for _ in range(3))
            lhs = star_mul(product, star_mul(product, f, g), h)
            rhs = star_mul(product, f, star_mul(product, g, h))
            assert lhs == rhs, name


def test_su2_faithful_to_lift(rng):
    SU = su2_product()
    R6 = su2_lift_space()
    M6 = moyal_product(R6)
    for _ in range(5):
        f = random_poly(L, rng, degree=3, terms=3)
        g = random_poly(L, rng, degree=3, terms=3)
        direct = star_mul(SU, f, g)
        lifted = star_mul(M6, su2_lift(f), su2_lift(g))
        relift = NuObject(R6, {k: su2_lift(c) for k, c in direct.coeffs.items()})
        assert lifted == relift


def test_su2_project_inverts_the_lift(rng):
    for deg in range(9):
        for terms in (1, 4, 10):
            f = random_poly(L, rng, deg, terms)
            assert _su2_project(su2_lift(f)) == f
    for f in (Poly.zero(L), Poly.const(L, 1), Poly.const(L, Fraction(-5, 3))):
        assert _su2_project(su2_lift(f)) == f


def test_su2_project_rejects_polynomials_outside_the_image():
    R6 = su2_lift_space()
    p1, p2, p3, q1, q2, q3 = (Poly.variable(R6, i) for i in range(6))
    for g in (p1, p3 * q2, p1 * p2 * q3, su2_lift(L1 * L2) + p3 * q2):
        with pytest.raises(InvalidArgumentError, match="left the L-image"):
            _su2_project(g)


def test_su2_production_route_matches_lift_oracle(rng):
    SU = su2_product()
    for _ in range(8):
        f = random_poly(L, rng, degree=3, terms=3)
        g = random_poly(L, rng, degree=3, terms=3)
        assert star_mul(SU, f, g) == su2_star_via_lift(f, g)


def _of_degree(rng, d: int) -> Poly:
    """A random L-polynomial of total degree exactly d."""
    a = rng.randint(0, d)
    b = rng.randint(0, d - a)
    top = {(a, b, d - a - b): Fraction(rng.choice([-2, 1, 3]))}
    return Poly(L, {**random_poly(L, rng, degree=d, terms=3).terms, **top})


@pytest.mark.parametrize("df, dg", [(1, 4), (4, 1), (2, 5), (5, 2), (0, 3), (3, 0), (2, 2), (4, 4)])
def test_su2_unequal_degrees_match_lift_oracle(rng, df, dg):
    # the route decomposes the factor of lower degree, on a tie the one with
    # fewer terms, and the right one when those tie too
    SU = su2_product()
    for _ in range(3):
        f, g = _of_degree(rng, df), _of_degree(rng, dg)
        assert star_mul(SU, f, g) == su2_star_via_lift(f, g)


def test_su2_degree_tie_decomposes_the_factor_with_fewer_terms(monkeypatch):
    # L1^6 is the star monomials L1^6, L1^4, L1^2 and 1, one word and its
    # prefixes: six letters acting on the 84 monomials of degree <= 6, in
    # either order; decomposing those 84 instead takes a word per monomial
    SU = su2_product()
    dense = Poly(L, {e: 1 for d in range(7) for e in compositions(d, 3)})
    orders = [(L1**6, dense), (dense, L1**6)]
    for f, g in orders:
        star_mul(SU, f, g)  # fills the star-monomial cache
    calls = []
    var_mul = star._var_mul
    monkeypatch.setattr(star, "_var_mul", lambda *args: calls.append(1) or var_mul(*args))
    counts = []
    for f, g in orders:
        calls.clear()
        star_mul(SU, f, g)
        counts.append(len(calls))
    assert counts == [6, 6]
    small = Poly(L, {e: 1 for d in range(3) for e in compositions(d, 3)})
    for f, g in [(L1 * L3, small), (small, L1 * L3)]:
        assert star_mul(SU, f, g) == su2_star_via_lift(f, g)


@pytest.mark.parametrize("fdeg, gdeg", [
    ((1, 0, 2), (3, 2, 0)),  # left factor smaller, its top degree at nu^2
    ((3, 2, 1), (0, 2, 1)),  # right factor smaller, its top degree at nu^1
    ((2, 1, 0), (1, 2, 0)),  # tie
])
def test_su2_nu_series_operands_match_bilinear_lift(rng, fdeg, gdeg):
    SU = su2_product()
    F = NuObject(L, {a: _of_degree(rng, d) for a, d in enumerate(fdeg)})
    G = NuObject(L, {b: _of_degree(rng, d) for b, d in enumerate(gdeg)})
    assert star_mul(SU, F, G) == _bilinear_lift(F, G)


def _bilinear_lift(F: NuObject, G: NuObject) -> NuObject:
    """F * G by the R^6 lift oracle, one coefficient pair at a time."""
    out = NuObject.zero(L)
    for a, fa in F.coeffs.items():
        for b, gb in G.coeffs.items():
            out = out + su2_star_via_lift(fa, gb).nu_shift(a + b)
    return out


_DENOMINATED = (Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(3, 4),
                Fraction(-1, 5), Fraction(7, 6), Fraction(-9, 11), Fraction(4, 9))


def _rational_series(rng, powers: tuple) -> NuObject:
    """A nu-series with a few terms at each given power, their coefficients
    drawn from fractions of unlike denominators."""
    coeffs = {}
    for k in powers:
        f = random_poly(L, rng, degree=3, terms=3)
        coeffs[k] = Poly(L, {e: c * rng.choice(_DENOMINATED) for e, c in f.terms.items()})
    return NuObject(L, coeffs)


def test_su2_rational_operands_match_lift_oracle(rng):
    # the integer rows of each factor sit over its own common denominator, so
    # unlike denominators and negative nu powers (as star_exponential makes)
    # must come back exactly
    SU = su2_product()
    for fpowers, gpowers in [((0,), (0,)), ((0, 1), (-1,)), ((-2, 0), (1, 2)), ((-1, 3), (-2, -1, 0))]:
        for _ in range(2):
            F, G = _rational_series(rng, fpowers), _rational_series(rng, gpowers)
            got = star_mul(SU, F, G)
            assert got == _bilinear_lift(F, G), (str(F), str(G))
            assert all(type(c) is Fraction for p in got.coeffs.values() for c in p.terms.values())


def test_su2_product_builds_one_fraction_per_output_term(monkeypatch):
    # integer rows all the way: the only Fractions a warm su(2)* product
    # constructs are its output coefficients
    SU = su2_product()
    f = L1**3 * L2 * Fraction(1, 2) - L3**2 * Fraction(2, 3) + L1 * Fraction(5, 7)
    g = L2**2 * L3 * Fraction(3, 4) + L1 * L3 - Fraction(1, 5)
    star_mul(SU, f, g)  # fills the star-monomial cache
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(1)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    out = star_mul(SU, f, g)
    monkeypatch.undo()
    assert len(built) == sum(len(p.terms) for p in out.coeffs.values()) == 35


def _linear_reference(i: int, f: Poly, sign: int) -> NuObject:
    """L_i F + sign nu eps_ijk L_k dF/dL_j + nu^2 (2 dF/dL_i + sum_j L_j d2F/dL_i dL_j),
    the closed covariant formula for L_i * F (sign +1) and F * L_i (sign -1)."""
    nu1 = Poly.zero(L)
    for (i2, j, k), s in EPS.items():
        if i2 == i:
            nu1 = nu1 + Poly.variable(L, k) * f.diff(j) * s
    nu2 = 2 * f.diff(i)
    for j in range(3):
        nu2 = nu2 + Poly.variable(L, j) * f.diff(i).diff(j)
    return NuObject(L, {0: Poly.variable(L, i) * f, 1: nu1 * sign, 2: nu2})


def test_su2_linear_products_match_derivative_formula(rng):
    SU = su2_product()
    for d in range(6):
        for _ in range(2):
            f = random_poly(L, rng, degree=d, terms=4)
            for i in range(3):
                li = Poly.variable(L, i)
                left = _linear_reference(i, f, 1)
                assert star_mul(SU, li, f) == left
                assert su2_left_mul(i + 1, f) == left
                assert star_mul(SU, f, li) == _linear_reference(i, f, -1)


def test_commutator_jacobi(rng):
    for name, product, space in ALL_PRODUCTS:
        for _ in range(4):
            f, g, h = (random_poly(space, rng, degree=2, terms=3) for _ in range(3))
            j = (
                star_commutator(product, f, star_commutator(product, g, h))
                + star_commutator(product, g, star_commutator(product, h, f))
                + star_commutator(product, h, star_commutator(product, f, g))
            )
            assert j.is_zero(), name


def test_classical_limit_is_pointwise(rng):
    for name, product, space in ALL_PRODUCTS:
        for _ in range(5):
            f = random_poly(space, rng, degree=3, terms=3)
            g = random_poly(space, rng, degree=3, terms=3)
            assert star_mul(product, f, g).classical() == f * g, name


def test_star_exponential():
    M = moyal_product(QP)
    s0 = star_exponential(M, q, 0)
    assert s0.coefficient(0) == NuObject.one(QP)
    s1 = star_exponential(M, q, 1)
    assert s1.coefficient(1) == NuObject(QP, {-1: q * Fraction(1, 2)})
    h = (p * p + q * q) * Fraction(1, 2)
    s2 = star_exponential(M, h, 2)
    assert s2.coefficient(2) == NuObject(
        QP, {-2: h * h * Fraction(1, 8), 0: Poly.const(QP, Fraction(1, 8))}
    )


def test_star_power():
    M = moyal_product(QP)
    h = q * q + p * p
    assert star_power(M, h, 2) == star_mul(M, h, h)
    assert star_power(M, h, 0) == NuObject.one(QP)


def test_space_mismatch_rejected():
    M = moyal_product(QP)
    with pytest.raises(InvalidArgumentError):
        star_mul(M, q, L1)


def test_star_monomials_are_words_in_axis_order():
    S = su2_product()
    gens = (L1, L2, L3)
    for e in [(0, 0, 0), (1, 0, 0), (0, 2, 1), (2, 1, 2), (1, 3, 0)]:
        word = NuObject.one(L)
        for i, k in enumerate(e):
            for _ in range(k):
                word = star_mul(S, word, gens[i])
        # the cached star monomials are integer rows {nu-power: {exponent: int}}
        rows = _star_monomial(e)
        assert NuObject(L, {k: Poly(L, row) for k, row in rows.items()}) == word, e
    assert _star_monomial.cache_info().currsize > 0


def test_su2_word_bound(monkeypatch):
    S = su2_product()
    dense = (L1 + L2 + L3)**16
    with pytest.raises(ResourceLimitError, match="969 star monomials by 153 terms .* su2 word bound"):
        star_mul(S, dense, dense)
    # L1^2 + L2 is the words L1 L1, L2 and -2 nu^2 (L1 * L1 = L1^2 + 2 nu^2)
    monkeypatch.setattr(star, "SU2_WORD_BOUND", 8)
    star_mul(S, L1 * L2 * L3 + L3, L1**2 + L2)
    with pytest.raises(ResourceLimitError, match="3 star monomials by 3 terms is over the su2 word bound 8"):
        star_mul(S, L1 * L2 * L3 + L3**3 + L1, L1**2 + L2)


def test_star_degree_bound(monkeypatch):
    monkeypatch.setattr(star, "STAR_DEGREE_BOUND", 3)
    for s, x in [(moyal_product(QP), q), (standard_ordering_product(QP), p), (su2_product(), L1)]:
        star_mul(s, x**3, x)
        with pytest.raises(ResourceLimitError, match="degree 4 is over the star degree bound 3"):
            star_mul(s, x, x**4)
    with pytest.raises(ResourceLimitError, match="star degree bound 3"):
        star_mul(su2_product(), NuObject(L, {1: L1**4}), L2)
    star_exponential(moyal_product(QP), q, 4)  # the t^4 coefficient multiplies q^3 by q
    with pytest.raises(ResourceLimitError, match="star degree bound 3"):
        star_exponential(moyal_product(QP), q, 5)
