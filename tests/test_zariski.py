"""The semigroup algebra, its deformation, derivations and Taylor algebra."""

import hashlib
import itertools
import json
import math
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from nambu_forge import poly, zariski
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.expr import parse_expr
from nambu_forge.factor import is_irreducible, normalize
from nambu_forge.poly import NuObject, Poly, _bump, coordinate_space, qp_space
from nambu_forge.star import (
    moyal_product,
    standard_ordering_product,
    star_mul,
    su2_product,
)
from nambu_forge.sun import sun_su2
from nambu_forge.zariski import (
    FrobeniusWitness,
    TaylorElem,
    ZElem,
    ZMonomial,
    ZNu,
    a_mul_nu,
    alpha,
    classical_nambu,
    delta,
    delta_y,
    eval_T,
    frobenius_counterexample_search,
    jmap,
    quantum_nambu,
    taylor_mul_classical,
    taylor_unit,
    times_alpha,
    z_mul_classical,
    z_mul_nu,
    zariski_space,
    zariski_star,
    zelem_from_poly,
    zeta,
    zmonomial,
    znu_mul_classical,
    znu_power_nu,
)

from conftest import (
    brute_sun_lift,
    fractions_built,
    jmap_oracle,
    random_poly,
    star_power,
    taylor_elem,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SP = zariski_space(3)
ST = zariski_star(3)
x1, x2, x3 = (Poly.variable(SP, i) for i in range(3))
H = x1 * x1 + x2 * x2


def random_z_irreducible(rng, degree=2, space=SP):
    from nambu_forge.factor import is_irreducible

    while True:
        p = random_poly(space, rng, degree=degree, terms=rng.randint(2, 3))
        if p.is_zero() or p.is_constant():
            continue
        if is_irreducible(p):
            return normalize(p)[1]


_POOL = None


def _factor_pool(rng):
    # a shared pool keeps the evaluation-map caches warm across trials
    global _POOL
    if _POOL is None:
        _POOL = [random_z_irreducible(rng) for _ in range(5)]
    return _POOL


def random_zelem(rng, nterms=2, degree=2):
    pool = _factor_pool(rng)
    out = ZElem.zero()
    for _ in range(nterms):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        out = out + ZElem.basis(zmonomial(factors), Fraction(rng.choice([-2, -1, 1, 2])))
    return out


# -- alpha and the evaluation map -------------------------------------------


def test_alpha_factors_classical_part():
    assert {str(f) for f in alpha(x1 * x1 - x2 * x2)} == {"x1 - x2", "x1 + x2"}
    assert alpha(H) == (H,)
    assert alpha(NuObject(SP, {1: x1})) is None


def test_alpha_rejects_unnormalized():
    with pytest.raises(InvalidArgumentError) as err:
        alpha(3 * x1)
    assert "3" in str(err.value)


def test_eval_T_examples():
    assert eval_T((x1,), ST) == NuObject.from_poly(x1)
    assert eval_T((H, H), ST) == NuObject(SP, {0: H * H, 2: Poly.const(SP, 4)})
    assert eval_T((x1, x2), ST) == NuObject.from_poly(x1 * x2)
    assert eval_T((), ST) == NuObject.one(SP)


def _symmetrized(factors, s):
    # oracle: explicit star product along every ordering, divided by their count
    from itertools import permutations

    orders = list(permutations(factors))
    total = NuObject.zero(s.space)
    for perm in orders:
        acc = NuObject.from_poly(perm[0])
        for f in perm[1:]:
            acc = star_mul(s, acc, f)
        total = total + acc
    return total * Fraction(1, len(orders))


def _nonconstant(space, rng):
    while True:
        p = random_poly(space, rng, degree=2, terms=rng.randint(2, 3))
        if not p.is_constant():
            return p


def test_eval_T_is_symmetrization(rng):
    st4, st5 = zariski_star(4), zariski_star(5)
    sp4 = st4.space
    x5 = Poly.variable(st5.space, 4)
    cases = []
    for k in range(3):
        u, v, w = (random_z_irreducible(rng, 2) for _ in range(3))
        cases += [((u, v, w), ST), ((u, u, v), ST), ((u, v, u, v), ST)]
        f, g = _nonconstant(sp4, rng), _nonconstant(sp4, rng)
        cases += [((f, g, _nonconstant(sp4, rng)), st4), ((f, g, f), st4)]
        # factors in no paired variable are central, also repeated or with
        # a constant term, and on R^5 (x5 unpaired)
        c = x3 + k + 1
        cases += [((u, x3, v), ST), ((c, u, c), ST), ((x3, u, x3, c), ST), ((c, c, c), ST)]
        h = _nonconstant(st5.space, rng)
        cases += [((h, x5 - k, h), st5)]
    for factors, s in cases:
        t = eval_T(factors, s)
        assert t == _symmetrized(factors, s), factors
        # T is even in nu, so the recursion never needs an odd Poisson power
        assert all(r % 2 == 0 for r in t.coeffs), t


def test_brute_sun_lift_is_symmetrization():
    # the su(2)* sun lift oracle's memoized recursion over star_mul is the
    # explicit star product along every ordering, divided by their count, and
    # even in nu as the closed form is
    su2 = su2_product()
    l1, l2, l3 = (Poly.variable(su2.space, i) for i in range(3))
    for factors in ((l1, l1, l2, l3), (l3, l3, l3), (l1, l2, l3, l2)):
        t = brute_sun_lift(sun_su2(), math.prod(factors))
        assert t == _symmetrized(factors, su2), factors
        assert all(r % 2 == 0 for r in t.coeffs), t


def test_eval_T_calls_no_star_mul_for_moyal_kinds():
    # eval_T runs on the Moyal kinds only, as Poisson sums on integer rows
    assert not hasattr(zariski, "star_mul")
    st4 = zariski_star(4)
    y1, y2, y3, y4 = (Poly.variable(st4.space, i) for i in range(4))
    u, v = x1 * x2 + 17 * x3, x1 + 19 * x2 * x3  # not met elsewhere, so not cached
    for factors, s in (((u, v, u), ST), ((y1 * y2 + 23 * y3, y2 * y4, y1 * y2 + 23 * y3), st4)):
        t = eval_T(factors, s)
        assert any(r > 0 for r in t.coeffs)
        assert t == _symmetrized(factors, s)  # the oracle's star_mul is not patched


def test_deformation_tail_matches_eval_T(monkeypatch):
    # an oracle for the tail that takes n_r as T_r(m)'s leading numerator:
    # each part n_r / d * Z(m_r), multiplied out, is T_r(m), and every r > 0
    # of T(m) has one part; H * H has the constant T_2 = 4
    rng = random.Random(2102)
    monomials = [ZMonomial((H, H), trusted=True)]
    for _ in range(16):
        pool = [random_z_irreducible(rng, 2) for _ in range(2)]
        monomials.append(zmonomial(rng.choice(pool) for _ in range(rng.randint(1, 3))))
    # each with central factors (in no paired variable), repeated ones too
    crng = random.Random(2103)
    monomials += [zmonomial(m.factors + tuple(crng.choice((x3, x3 + 1, x3 - 2))
                                              for _ in range(crng.randint(1, 3))))
                  for m in monomials]
    deformed = 0
    for m in monomials:
        t = eval_T(m.factors, ST)
        d, parts = zariski._deformation_tail(m, ST)
        assert sorted(r for r, _, _ in parts) == [r for r in sorted(t.coeffs) if r > 0], m
        for r, m_r, n_r in parts:
            assert m_r.product_poly(SP) * Fraction(n_r, d) == t.coefficient(r), (m, r)
        deformed += bool(parts)
    assert deformed >= 12
    # the tail is the one place a central factor splits off: where factorize
    # admits every T_r(m), T never sees a multiset with a central factor
    split = [m for m in monomials if zariski._central(m, ST) and zariski._factorable(m, SP)]
    assert len(split) >= 12
    seen = []
    cached_eval_T = zariski._eval_T

    def recording_eval_T(m, s):
        seen.append(m)
        return cached_eval_T(m, s)

    monkeypatch.setattr(zariski, "_eval_T", recording_eval_T)
    zariski._tails(ST).clear()  # so each split reaches T of its rest
    for m in split:
        zariski._deformation_tail(m, ST)
    assert seen
    assert [m for m in seen if zariski._central(m, ST) is not None] == []


def test_eval_T_rejects_standard_ordering():
    qp = qp_space()
    q, p = Poly.variable(qp, 0), Poly.variable(qp, 1)
    with pytest.raises(InvalidArgumentError, match="standard_ordering"):
        eval_T((q, p), standard_ordering_product(qp))
    # on su(2)* the closed-form sun lift replaces T (the tests' brute_sun_lift
    # symmetrizes star_mul itself)
    su2 = su2_product()
    with pytest.raises(InvalidArgumentError, match="'su2' is not one"):
        eval_T((Poly.variable(su2.space, 0),) * 2, su2)


@pytest.mark.parametrize("n", [2, 4])
def test_T_refuses_factors_on_another_space(n):
    # x1*x3 + x2 and x2*x3 + x1 live on R^3: read on R^2 they lose x3, and on
    # R^4 their exponents are too short, so every route to T refuses them
    f, g = x1 * x3 + x2, x2 * x3 + x1
    assert eval_T((f, g), ST) == NuObject.from_poly(parse_expr(
        "x1*x2*x3^2 + x1^2*x3 + x2^2*x3 + x1*x2", SP))
    star = zariski_star(n)
    z = zelem_from_poly(f * g)
    taylor = TaylorElem(star.space, {(0,) * (n + 1): z}, in_a=True)
    for call in (lambda: eval_T((f, g), star), lambda: z_mul_nu(z, ZElem.unit(), star),
                 lambda: z_mul_nu(z, z, star), lambda: a_mul_nu(taylor, taylor, star)):
        with pytest.raises(InvalidArgumentError,
                           match=r"^eval_T factor x1\*x3 \+ x2 is not on the star product's space$"):
            call()


def test_times_alpha():
    assert times_alpha(x1, x2, ST) == NuObject.from_poly(x1 * x2)
    assert times_alpha(H, H, ST) == NuObject(SP, {0: H * H, 2: Poly.const(SP, 4)})
    mixed = NuObject(SP, {0: x1, 1: x2})
    assert times_alpha(mixed, x1, ST) == NuObject.from_poly(x1 * x1)
    assert times_alpha(NuObject(SP, {1: x1}), x1, ST).is_zero()


def test_times_alpha_classical_part_is_product(rng):
    for _ in range(6):
        u = random_z_irreducible(rng)
        v = random_z_irreducible(rng)
        assert times_alpha(u, v, ST).classical() == u * v


# -- the deformed product -----------------------------------------------------


def test_z_mul_examples():
    zx1 = zelem_from_poly(x1)
    assert z_mul_nu(zx1, zx1, ST) == ZNu.from_zelem(zelem_from_poly(x1 * x1))
    zH = zelem_from_poly(H)
    assert z_mul_nu(zH, zH, ST) == ZNu({0: zelem_from_poly(H * H), 2: ZElem.unit(Fraction(4))})
    assert z_mul_nu(ZNu({1: zx1}), zelem_from_poly(x2), ST).is_zero()


def test_ground_field_is_the_rationals():
    # a stated non-theorem: factors are irreducible over Q, so x1^2 - 2 is
    # one factor and the product has a nu^2 tail.  Over R it is
    # (x1 - sqrt(2))(x1 + sqrt(2)); T of linear factors is their classical
    # product on the Moyal kinds, so over R the tail would be 0
    got = z_mul_nu(parse_expr("Z[x1^2 - 2]"), parse_expr("Z[x2; x2]"), ST)
    assert str(got) == "Z[x1^2 - 2; x2; x2] + 2/3*nu^2*Z[]"
    # where the real split is rational, the two fields agree: no tail
    got = z_mul_nu(parse_expr("Z[x1 - 1; x1 + 1]"), parse_expr("Z[x2; x2]"), ST)
    assert str(got) == "Z[x1 + 1; x1 - 1; x2; x2]"


def test_operands_may_be_polynomials():
    # a Poly u stands for Z_u; anything else is refused by name
    zH = zelem_from_poly(H)
    assert z_mul_nu(H, H, ST) == z_mul_nu(zH, zH, ST)
    assert znu_power_nu(x1 * x2, 2, ST) == znu_power_nu(zelem_from_poly(x1 * x2), 2, ST)
    with pytest.raises(InvalidArgumentError, match="expected a Zariski-algebra element"):
        z_mul_nu(NuObject.from_poly(H), zH, ST)


def test_theorem_abelian_associative_deformation(rng):
    for _ in range(12):
        a, b, c = (random_zelem(rng) for _ in range(3))
        ab = z_mul_nu(a, b, ST)
        ba = z_mul_nu(b, a, ST)
        assert ab == ba
        assert z_mul_nu(ab, c, ST) == z_mul_nu(a, z_mul_nu(b, c, ST), ST)
        # nu -> 0 limit is the classical product
        assert ab.classical() == z_mul_classical(a, b)
        # distributivity over addition
        assert z_mul_nu(a + b, c, ST) == z_mul_nu(a, c, ST) + z_mul_nu(b, c, ST)


def test_power_coincidence_with_star_powers():
    zH = zelem_from_poly(H)
    for m in range(1, 5):
        powered = znu_power_nu(zH, m, ST)
        assert powered == zeta(star_power(ST, H, m))


def test_classical_product_and_unit():
    zx1 = zelem_from_poly(x1)
    unit = ZElem.unit()
    assert z_mul_classical(zx1, unit) == zx1
    assert z_mul_nu(zx1, unit, ST) == ZNu.from_zelem(zx1)
    a = znu_mul_classical(ZNu({1: zx1}), ZNu({2: zelem_from_poly(x2)}))
    assert a == ZNu({3: zelem_from_poly(x1 * x2)})


def _power_once(a, m: int, s) -> ZNu:
    """D applied once to the m-th classical power of a's nu^0 part, as for
    every nested deformed product: the oracle for znu_power_nu, which folds
    z_mul_nu from the left."""
    x = zariski._as_znu(a)
    if m == 1:
        return x
    a0 = p = x.classical()
    for _ in range(m - 1):
        p = p * a0
    return ZNu._of(None, *zariski._deform({(): p.num}, p.den, s))


def test_power_is_D_applied_once_to_the_classical_power():
    # every operand is of degree 2 at most, so each tail up to the fifth
    # power is under the factorization degree bound
    operands = [x1 * x2 + 1, zelem_from_poly(H) + ZElem.unit(3),
                ZElem.basis(zmonomial([x1, x2 + x3]), Fraction(1, 2)) - zelem_from_poly(x2),
                ZNu({0: zelem_from_poly(x1) * Fraction(-2, 3), 1: zelem_from_poly(x2)}),
                ZNu({0: ZElem.unit(Fraction(1, 2)) - zelem_from_poly(x1 + x3), 2: ZElem.unit()})]
    for a in operands:
        for m in range(1, 6):
            assert znu_power_nu(a, m, ST) == _power_once(a, m, ST), (a, m)


def test_power_bound_is_checked_before_any_product():
    bound = zariski.ZNU_POWER_BOUND
    unit = ZElem.unit()
    assert znu_power_nu(unit, bound, ST) == ZNu.from_zelem(unit)
    assert znu_power_nu(ZElem.unit(-1), bound, ST) == ZNu.from_zelem(ZElem.unit(-1))
    for m in (bound + 1, 10**6):
        with pytest.raises(ResourceLimitError, match=f"power {m} is over the zariski power bound"):
            znu_power_nu(unit, m, ST)


def test_one_product_for_the_five_kinds():
    # every kind multiplies through poly._Sparse.__mul__: a rational scalar
    # scales, any other operand is the kind's own (a ZElem stands for a ZNu
    # at nu^0), and the classical products are that product
    rng = random.Random(11)
    a, b = random_zelem(rng), random_zelem(rng)
    za, zb = ZNu({0: a, 1: b}), ZNu({0: b, 2: a})
    assert a * b == z_mul_classical(a, b)
    assert za * b == znu_mul_classical(za, ZNu.from_zelem(b))
    assert a * zb == znu_mul_classical(ZNu.from_zelem(a), zb)
    assert a * 2 == 2 * a == a.scale(2) and za * Fraction(1, 3) == za.scale(Fraction(1, 3))
    ta, tb = jmap(a), jmap(b)
    assert ta * tb == taylor_mul_classical(ta, tb)
    assert (ta * tb).in_a
    outside = TaylorElem(SP, {(1, 0, 0, 0): b})
    assert not (ta * outside).in_a and not (outside * ta).in_a
    with pytest.raises(InvalidArgumentError, match="TaylorElem spaces differ"):
        ta * TaylorElem(SP4, {(0,) * 5: a})
    for x, y in ((a, x1), (x1, a), (za, NuObject.from_poly(x1)), (ta, a)):
        with pytest.raises(TypeError):
            x * y


def test_zmonomial_validation():
    with pytest.raises(InvalidArgumentError):
        zmonomial([x1 * x1 - 1])  # reducible
    with pytest.raises(InvalidArgumentError):
        zmonomial([3 * x1])  # not normalized
    m = zmonomial([H, x1])
    assert len(m) == 2


# -- sums store no zero entry ---------------------------------------------------


def _sum_cases():
    """(a, b, a + b built directly) with a + b partly cancelling, one whole
    entry of every nested level included."""
    z1, z2, z3 = (zmonomial([f]) for f in (x1, x2, H))
    y0, y1 = (0, 0, 0), (1, 0, 0)
    zn = (ZNu({0: ZElem({z1: 1}), 1: ZElem({z2: 2})}),
          ZNu({1: ZElem({z2: -2}), 2: ZElem({z3: 1})}),
          ZNu({0: ZElem({z1: 1}), 2: ZElem({z3: 1})}))
    cases = {
        "Poly": (x1 + 2 * x2 + 3, x3 - x1, 2 * x2 + x3 + 3),
        "NuObject": (NuObject(SP, {0: x1, 1: x2}), NuObject(SP, {1: -x2, 2: x1 - x3}),
                     NuObject(SP, {0: x1, 2: x1 - x3})),
        "ZElem": (ZElem({z1: 1, z2: 2}), ZElem({z1: -1, z3: 5}), ZElem({z2: 2, z3: 5})),
        "ZNu": zn,
        "TaylorElem": (taylor_elem(SP, {y0: zn[0], y1: zn[1]}),
                       taylor_elem(SP, {y1: -zn[1], y0: zn[1]}), taylor_elem(SP, {y0: zn[2]})),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


def _storage(x) -> dict:
    return x.coeffs if isinstance(x, (NuObject, ZNu)) else x.terms


def _is_zero(v) -> bool:
    return v == 0 if isinstance(v, Fraction) else v.is_zero()


@pytest.mark.parametrize("a, b, direct", _sum_cases())
def test_sums_store_no_zero_entry(a, b, direct):
    zero = a + (-a)
    assert _storage(zero) == {} and zero.is_zero()
    total = a + b
    assert not any(_is_zero(v) for v in _storage(total).values())
    assert total == direct and _storage(total) == _storage(direct)
    if isinstance(total, (Poly, NuObject)):
        assert hash(total) == hash(direct)


SP4 = zariski_space(4)
# per type with a variable space: a value on R^4, and the error that + and -
# raise against a value on R^3
_OTHER_SPACE = {
    Poly: (Poly.variable(SP4, 0), "polynomials live on different variable spaces"),
    NuObject: (NuObject(SP4, {0: Poly.variable(SP4, 0)}),
               "polynomials live on different variable spaces"),
    TaylorElem: (taylor_unit(SP4), "TaylorElem spaces differ"),
}


@pytest.mark.parametrize("a, b, direct", _sum_cases())
def test_signed_sums_share_one_core(a, b, direct):
    """x - y is one signed pass on all five sparse types: it equals x + (-y),
    and each type keeps its space check, in_a rule and hash contract."""
    assert a - b == a + (-b) and _storage(a - b) == _storage(a + (-b))
    assert (a - a).is_zero() and _storage(a - a) == {}
    assert -(-a) == a
    assert (a + b) - b == a and direct - b == a
    assert not any(_is_zero(v) for v in _storage(b - a).values())
    if isinstance(a, (Poly, NuObject)):
        assert hash(a - b) == hash(a + (-b))
    else:
        for v in (a, a - b, -a):
            with pytest.raises(TypeError):
                hash(v)
    if type(a) in _OTHER_SPACE:
        other, message = _OTHER_SPACE[type(a)]
        for op in (operator.add, operator.sub):
            with pytest.raises(InvalidArgumentError, match=message):
                op(a, other)
        assert a != other and not (a == other)
        zero, other_zero = a - a, other - other
        assert zero != other_zero
        with pytest.raises(InvalidArgumentError, match=message):
            zero + other_zero
    if isinstance(a, TaylorElem):
        image = jmap(zelem_from_poly(x1 * x2 + 1))
        assert image.in_a and not a.in_a
        for u, v in itertools.product((a, image), repeat=2):
            assert (u + v).in_a == (u - v).in_a == (u.in_a and v.in_a)
            assert (-u).in_a == u.in_a


def test_mixed_operand_sums():
    p = x1 * x2 - 3 * x3 + 1
    n = NuObject(SP, {0: x1 + 2, 1: x3})
    assert p - 3 == p + Poly.const(SP, -3)
    assert 3 - p == Poly.const(SP, 3) - p == -(p - 3)
    assert n - p == n - NuObject.from_poly(p)
    assert p - n == NuObject.from_poly(p) - n == -(n - p)
    z = zelem_from_poly(x1 * x1 + x2) + ZElem.unit(2)
    zn = ZNu({0: zelem_from_poly(x1), 1: z})
    lifted = ZNu.from_zelem(z)
    assert zn - z == zn - lifted
    # ZElem - ZNu and ZElem + ZNu go through ZNu's reflected methods
    assert z - zn == lifted - zn == -(zn - z)
    assert z + zn == zn + z == lifted + zn


# -- derivations --------------------------------------------------------------


def test_delta_examples():
    assert delta(1, zelem_from_poly(x1)) == ZElem.unit()
    assert delta(1, zelem_from_poly(x2)).is_zero()
    d = delta(1, zelem_from_poly(x1 * x1 - x2 * x2))
    assert d == zelem_from_poly(x1 + x2) + zelem_from_poly(x1 - x2)


def test_delta_is_derivation(rng):
    for _ in range(8):
        a, b = random_zelem(rng), random_zelem(rng)
        for i in (1, 2, 3):
            lhs = delta(i, z_mul_classical(a, b))
            rhs = z_mul_classical(delta(i, a), b) + z_mul_classical(a, delta(i, b))
            assert lhs == rhs


def test_frobenius_golden_witness():
    golden = json.loads((GOLDEN / "frobenius_witness.json").read_text())
    from nambu_forge.expr import parse_expr

    u = parse_expr(golden["witness_u"], SP)
    _, un = normalize(u)
    zu = ZElem.basis(zmonomial([un]))
    i, j = golden["axes"]
    lhs = delta(i, delta(j, zu))
    rhs = delta(j, delta(i, zu))
    assert lhs != rhs
    from nambu_forge.expr import render

    assert render(lhs) == golden["lhs"]
    assert render(rhs) == golden["rhs"]


def test_frobenius_search_small_bound_finds_nothing():
    assert frobenius_counterexample_search(1) is None
    assert frobenius_counterexample_search(2) is None


def test_frobenius_search_needs_two_axes():
    with pytest.raises(InvalidArgumentError, match="the Frobenius search needs at least two variables"):
        frobenius_counterexample_search(4, coordinate_space(1))


def test_frobenius_search_finds_and_verifies():
    witness = frobenius_counterexample_search(4)
    assert isinstance(witness, FrobeniusWitness)
    assert witness.verify()
    assert witness.u.total_degree() <= 4


# -- the Taylor algebra --------------------------------------------------------


def test_jmap_examples():
    zx1 = zelem_from_poly(x1)
    j = jmap(zx1)
    assert j.coefficient((0, 0, 0)) == ZNu.from_zelem(zx1)
    assert j.coefficient((1, 0, 0)) == ZNu.from_zelem(ZElem.unit())
    j = jmap(zelem_from_poly(x1 * x2))
    assert j.coefficient((1, 1, 0)) == ZNu.from_zelem(ZElem.unit())
    assert j.coefficient((0, 1, 0)) == ZNu.from_zelem(zelem_from_poly(x1))
    assert jmap(ZElem.unit()) == taylor_unit()


def test_taylor_terms_are_flat():
    zx1 = zelem_from_poly(x1)
    t = jmap(zx1).nu_shift(1)
    assert t.terms == {(0, 0, 0, 1): zx1, (1, 0, 0, 1): ZElem.unit()}
    assert t.coefficient((0, 0, 0)) == t.y_constant() == ZNu({1: zx1})
    assert t.coefficient((0, 0, 1)) == ZNu.zero()  # a y-exponent with no term
    assert t.nu_shift(-1) == jmap(zx1)
    with pytest.raises(InvalidArgumentError, match="non-negative nu powers"):
        t.nu_shift(-2)
    with pytest.raises(InvalidArgumentError, match="non-negative nu powers"):
        TaylorElem(SP, {(0, 0, 0, -1): ZElem.unit()})


def _by_key(op, *xs) -> dict:
    """{key: ZElem}: op on the ZElem values of the xs' terms, key by key,
    zero results dropped: the oracle for arithmetic on TaylorElem rows."""
    terms = [x.terms for x in xs]
    out = {k: op(*(t.get(k, ZElem.zero()) for t in terms)) for k in set().union(*terms)}
    return {k: z for k, z in out.items() if not z.is_zero()}


def _assert_lowest_terms(x: TaylorElem) -> None:
    nums = [n for row in x.rows.values() for n in row.values()]
    assert x.den > 0 and math.gcd(x.den, *nums) == 1
    assert all(nums) and all(x.rows.values())
    assert TaylorElem(x.space, x.terms, x.in_a) == x


def test_taylor_rows_match_zelem_arithmetic(rng):
    images = [jmap(random_zelem(rng)).scale(Fraction(rng.choice((-3, 1, 5)), rng.randint(1, 6)))
              for _ in range(4)]
    values = images + [a_mul_nu(images[0], images[1], ST), quantum_nambu(*images[:3], ST),
                       images[3].nu_shift(1)]
    assert sum(x.den > 1 for x in values) >= 3
    for u, v in itertools.product(values, repeat=2):
        for got, op in ((u + v, operator.add), (u - v, operator.sub)):
            assert got.terms == _by_key(op, u, v)
            _assert_lowest_terms(got)
    for u in values:
        assert (-u).terms == _by_key(operator.neg, u)
        for c in (Fraction(-2, 3), 0, 7):
            assert u.scale(c).terms == _by_key(lambda z: z.scale(c), u)
        assert u.nu_shift(2).terms == {k[:-1] + (k[-1] + 2,): z for k, z in u.terms.items()}
        for i in range(3):
            lowered = {k[:i] + (k[i] - 1,) + k[i + 1 :]: z.scale(k[i])
                       for k, z in u.terms.items() if k[i]}
            assert delta_y(i + 1, u).terms == lowered
        for x in (u, -u, u.scale(Fraction(-2, 3)), u.nu_shift(2), delta_y(1, u)):
            _assert_lowest_terms(x)
        # one canonical form: equal values store equal rows over equal denominators
        assert (u + u) - u == u
        third = u.scale(Fraction(1, 3))
        assert third.scale(3) == u and third.scale(3).den == u.den
        assert u.scale(0) == TaylorElem.zero(SP) and u.scale(0).den == 1
    with pytest.raises(InvalidArgumentError, match="non-negative nu powers"):
        images[0].nu_shift(-1)


def _fraction_zelem(rng) -> ZElem:
    """A ZElem of three terms whose coefficients have unlike denominators."""
    pool = _factor_pool(rng)
    monos: dict = {}
    while len(monos) < 3:
        monos[zmonomial([rng.choice(pool) for _ in range(rng.randint(1, 2))])] = None
    return ZElem({m: Fraction(rng.choice((-5, -1, 3, 7)), d)
                  for m, d in zip(monos, rng.sample((2, 3, 4, 9), 3))})


def _nonzero(row: dict) -> dict:
    return {m: c for m, c in row.items() if c}


def _fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    return _nonzero({m: a.get(m, 0) + sign * b.get(m, 0) for m in a.keys() | b.keys()})


def _fraction_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for mu, cu in a.items():
        for mv, cv in b.items():
            _bump(out, mu.union(mv), cu * cv)
    return _nonzero(out)


def _fraction_deformed(row: dict, s) -> dict:
    """{r: {ZMonomial: Fraction}}: D(sum c_m Z_m) = sum c_m sum_r nu^r
    Z(T_r(m)), T_0(m) being the product of m's factors."""
    out: dict = {}
    for m, c in row.items():
        for r, p in eval_T(m.factors, s).coeffs.items():
            for m2, v in zelem_from_poly(p).terms.items():
                _bump(out.setdefault(r, {}), m2, c * v)
    return {r: nz for r, z in out.items() if (nz := _nonzero(z))}


def _fraction_delta(i: int, row: dict) -> dict:
    """The Leibniz rule position by position: each factor f at each of its
    positions is replaced by Z_{d_i f}."""
    out: dict = {}
    for mono, c in row.items():
        fs = mono.factors
        for j, f in enumerate(fs):
            rest = zmonomial(fs[:j] + fs[j + 1 :])
            for m, v in zelem_from_poly(f.diff(i - 1)).terms.items():
                _bump(out, m.union(rest), c * v)
    return _nonzero(out)


def _assert_zelem_lowest_terms(z: ZElem) -> None:
    assert z.den > 0 and math.gcd(z.den, *z.num.values()) == 1
    assert all(type(n) is int and n for n in z.num.values())


def test_zelem_stores_integers_over_one_denominator(rng):
    for _ in range(4):
        a, b = _fraction_zelem(rng), _fraction_zelem(rng)
        fa, fb = a.terms, b.terms
        assert a.den > 1 and len({c.denominator for c in fa.values()}) > 1
        za, zb = ZNu({0: a, 1: b}), ZNu({0: b, 2: -a})
        checks = [
            (a + b, _fraction_sum(fa, fb)),
            (a - b, _fraction_sum(fa, fb, -1)),
            (a - a, {}),
            (-a, {m: -c for m, c in fa.items()}),
            (z_mul_classical(a, b), _fraction_product(fa, fb)),
        ]
        for c in (Fraction(-4, 15), 0, 6):
            checks.append((a.scale(c), _nonzero({m: v * c for m, v in fa.items()})))
        for i in (1, 2, 3):
            checks.append((delta(i, a), _fraction_delta(i, fa)))
        nu_checks = [
            (znu_mul_classical(za, zb),
             {0: _fraction_product(fa, fb), 1: _fraction_product(fb, fb),
              2: _fraction_product(fa, {m: -c for m, c in fa.items()}),
              3: _fraction_product(fb, {m: -c for m, c in fa.items()})}),
            (z_mul_nu(a, b, ST), _fraction_deformed(_fraction_product(fa, fb), ST)),
            (za.scale(Fraction(3, 7)), {0: {m: v * Fraction(3, 7) for m, v in fa.items()},
                                         1: {m: v * Fraction(3, 7) for m, v in fb.items()}}),
        ]
        for got, expect in nu_checks:
            expect = {r: row for r, row in expect.items() if _nonzero(row)}
            assert {r: z.terms for r, z in got.coeffs.items()} == expect
            checks += [(z, expect[r]) for r, z in got.coeffs.items()]
        for got, expect in checks:
            assert got.terms == expect
            _assert_zelem_lowest_terms(got)
            assert ZElem(expect) == got and ZElem(expect).num == got.num
        assert a.scale(0).den == 1 and (a - a).den == 1


def _by_power(op, *xs) -> dict:
    """{nu power: ZElem}: op on the ZElem values of the {nu power: ZElem}
    dicts xs, power by power."""
    return {k: op(*(x.get(k, ZElem.zero()) for x in xs)) for k in set().union(*xs)}


def test_znu_stores_integer_rows_over_one_denominator(rng):
    for _ in range(4):
        a = _fraction_zelem(rng)
        b = _fraction_zelem(rng).scale(Fraction(1, 5))
        c = _fraction_zelem(rng).scale(Fraction(2, 7))
        da, db = {0: a, 1: b, 3: c}, {0: b, 1: -a, 2: c}
        za, zb = ZNu(da), ZNu(db)
        assert len({a.den, b.den, c.den}) == 3 and za.den == math.lcm(a.den, b.den, c.den)
        product: dict = {}
        for (i, x), (j, y) in itertools.product(da.items(), db.items()):
            _bump(product, i + j, z_mul_classical(x, y))
        deformed = _fraction_deformed(_fraction_product(a.terms, b.terms), ST)
        checks = [
            (za + zb, _by_power(operator.add, da, db)),
            (za - zb, _by_power(operator.sub, da, db)),
            (za - za, {}),
            (-za, _by_power(operator.neg, da)),
            (za.nu_shift(2), {k + 2: z for k, z in da.items()}),
            (znu_mul_classical(za, zb), product),
            (z_mul_nu(za, zb, ST), {r: ZElem(row) for r, row in deformed.items()}),
        ]
        for q in (Fraction(-4, 15), 0, 6):
            checks.append((za.scale(q), _by_power(lambda z: z.scale(q), da)))
        for got, expect in checks:
            expect = {k: z for k, z in expect.items() if not z.is_zero()}
            assert got.coeffs == expect and got == ZNu(expect)
            assert got.rows == ZNu(expect).rows and all(len(k) == 1 for k in got.rows)
            nums = [n for row in got.rows.values() for n in row.values()]
            assert got.den > 0 and math.gcd(got.den, *nums) == 1
            assert all(type(n) is int and n for n in nums)
        assert za.scale(0).den == 1 and (za - za).den == 1


def test_non_integer_nu_powers_are_refused():
    # int(k) read 0.5 as nu^0 and 1.9 as nu^1, and a TaylorElem kept the float
    z = ZElem.unit(2)
    calls = [
        (lambda: NuObject(SP, {0.5: x1}), "NuObject power 0.5 "),
        (lambda: NuObject(SP, {1.9: x1}), "NuObject power 1.9 "),
        (lambda: ZNu({0.5: z}), "ZNu power 0.5 "),
        (lambda: TaylorElem(zariski_space(3), {(0, 0, 0, 0.5): z}), "TaylorElem power 0.5 "),
    ]
    for call, message in calls:
        with pytest.raises(InvalidArgumentError, match=message + "is not an integer"):
            call()
    # integer keys keep working
    assert NuObject(SP, {1: x1}).coefficient(1) == x1 and ZNu({2: z}).coefficient(2) == z
    assert TaylorElem(SP, {(1, 0, 0, 1): z}).rows == {(1, 0, 0, 1): {zariski._Z_UNIT: 2}}


def test_zariski_products_build_no_fraction(monkeypatch, rng):
    a, b = _fraction_zelem(rng), _fraction_zelem(rng)
    za, zb = ZNu({0: a, 1: b}), ZNu({0: b, 2: a})
    calls = {
        "z_mul_classical": lambda: z_mul_classical(a, b),
        "znu_mul_classical": lambda: znu_mul_classical(za, zb),
        "jmap": lambda: jmap(a),
        "TaylorElem": lambda: TaylorElem(SP, {(0, 0, 0, 0): a, (1, 0, 2, 1): b}),
    }
    for name, call in calls.items():
        warm = call()  # fills the caches: factorizations, unions, J-images
        out, built = fractions_built(monkeypatch, call)
        assert out == warm and built == 0, name


def test_axes_are_checked_one_based():
    with pytest.raises(InvalidArgumentError, match=r"axis 0 is out of range 1\.\.3"):
        delta(0, zelem_from_poly(x1))
    # the axis is checked against the space before any term, so also on
    # operands with no factor to differentiate
    with pytest.raises(InvalidArgumentError, match=r"axis 9 is out of range 1\.\.3"):
        delta(9, ZElem.unit())
    with pytest.raises(InvalidArgumentError, match=r"axis 0 is out of range 1\.\.3"):
        delta(0, ZElem.unit(3))
    with pytest.raises(InvalidArgumentError, match=r"axis 4 is out of range 1\.\.3"):
        delta(4, ZElem.unit())
    sp4 = zariski_space(4)
    assert delta(4, zelem_from_poly(Poly.variable(sp4, 3) ** 2), sp4) == zelem_from_poly(
        2 * Poly.variable(sp4, 3))
    with pytest.raises(InvalidArgumentError, match=r"axis 4 is out of range 1\.\.3"):
        delta_y(4, jmap(zelem_from_poly(x1)))
    with pytest.raises(InvalidArgumentError, match=r"axis 3 is out of range 1\.\.2"):
        classical_nambu(*(jmap(ZElem.unit(), zariski_space(2)),) * 3)


def test_jmap_additive(rng):
    for _ in range(6):
        a, b = random_zelem(rng), random_zelem(rng)
        assert jmap(a + b) == jmap(a) + jmap(b)


def test_jmap_matches_recursion_oracle(rng):
    sp4 = zariski_space(4)
    pool = _factor_pool(rng)
    unit = ZMonomial(())
    for _ in range(8):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            factors = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            terms[zmonomial(factors)] = Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3, 7]))
        terms[unit] = Fraction(-2, 3)
        f = rng.choice(pool)
        terms[zmonomial([f, f])] = Fraction(5, 6)
        z = ZElem(terms)
        assert jmap(z) == jmap_oracle(z)
        assert str(jmap(z)) == str(jmap_oracle(z))
        assert jmap(z.scale(Fraction(-7, 2))) == jmap_oracle(z).scale(Fraction(-7, 2))
        # on R^4: the unit monomial is the same object on both spaces, so
        # the cache key must hold the space
        g, h = (random_z_irreducible(rng, space=sp4) for _ in range(2))
        z4 = ZElem({unit: Fraction(3, 5), zmonomial([g, h, h]): Fraction(-1, 4), zmonomial([g]): 2})
        assert jmap(z4, sp4) == jmap_oracle(z4, sp4)
        assert str(jmap(z4, sp4)) == str(jmap_oracle(z4, sp4))
        assert jmap(ZElem.unit(), sp4) == jmap_oracle(ZElem.unit(), sp4) == taylor_unit(sp4)
        assert jmap(ZElem.unit()) == taylor_unit() != taylor_unit(sp4)
        for expand in (jmap, jmap_oracle):
            with pytest.raises(InvalidArgumentError, match="different variable spaces"):
                expand(z4, SP)


def test_delta_y_intertwines_jmap(rng):
    for _ in range(6):
        u = random_z_irreducible(rng)
        z = zelem_from_poly(u)
        for axis in (1, 2, 3):
            assert delta_y(axis, jmap(z)) == jmap(zelem_from_poly(u.diff(axis - 1)))


def test_delta_y_commute_and_leibniz(rng):
    for _ in range(6):
        a = jmap(random_zelem(rng))
        b = jmap(random_zelem(rng))
        prod = taylor_mul_classical(a, b)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert delta_y(i, delta_y(j, a)) == delta_y(j, delta_y(i, a))
            lhs = delta_y(i, prod)
            rhs = taylor_mul_classical(delta_y(i, a), b) + taylor_mul_classical(a, delta_y(i, b))
            assert lhs == rhs


def test_a_mul_examples():
    zx1, zx2 = zelem_from_poly(x1), zelem_from_poly(x2)
    assert a_mul_nu(jmap(zx1), jmap(zx2), ST) == jmap(zelem_from_poly(x1 * x2))
    zH = zelem_from_poly(H)
    prod = a_mul_nu(jmap(zH), jmap(zH), ST)
    assert prod.y_constant() == ZNu({0: zelem_from_poly(H * H), 2: ZElem.unit(Fraction(4))})
    assert a_mul_nu(taylor_unit(), jmap(zH), ST) == jmap(zH)


def test_a_mul_requires_taylor_subalgebra():
    raw = taylor_elem(SP, {(1, 0, 0): ZNu.from_zelem(ZElem.unit())}, in_a=False)
    with pytest.raises(InvalidArgumentError):
        a_mul_nu(raw, taylor_unit(), ST)


def test_deformation_theorem_on_taylor_algebra(rng):
    for _ in range(4):
        a = jmap(random_zelem(rng))
        b = jmap(random_zelem(rng))
        c = jmap(random_zelem(rng, nterms=1))
        ab = a_mul_nu(a, b, ST)
        assert ab == a_mul_nu(b, a, ST)
        assert a_mul_nu(ab, c, ST) == a_mul_nu(a, a_mul_nu(b, c, ST), ST)
        # classical limit
        classical = taylor_mul_classical(a, b)
        y0 = {k: z for k, z in classical.terms.items() if not k[-1]}
        got = {k: z for k, z in ab.terms.items() if not k[-1]}
        assert got == y0


def test_taylor_nambu_counts_the_entries_of_every_row(monkeypatch):
    a, b, c = (parse_expr(t) for t in ("y1*Z[x1] + y1*Z[x2]", "y2*Z[x3] + y2*Z[]", "y3"))
    start = poly.jacobian_work
    classical_nambu(a, b, c)
    # d/dy1 a and d/dy2 b are one row of two entries each: 2 * 2 products,
    # then the four entries of their product times the one of d/dy3 c
    assert poly.jacobian_work - start == 8
    monkeypatch.setattr(poly, "JACOBIAN_TERM_BOUND", 7)
    with pytest.raises(ResourceLimitError, match="Jacobian determinant of 8 term products is "
                                                 "over the Jacobian term bound 7"):
        classical_nambu(a, b, c)


def test_quantum_nambu_coordinates():
    j1, j2, j3 = (jmap(zelem_from_poly(v)) for v in (x1, x2, x3))
    assert quantum_nambu(j1, j2, j3, ST) == taylor_unit()
    jH = jmap(zelem_from_poly(H))
    assert quantum_nambu(jH, jH, j1, ST).is_zero()


def test_quantum_nambu_skew(rng):
    a, b, c = (jmap(random_zelem(rng, nterms=1)) for _ in range(3))
    assert quantum_nambu(a, b, c, ST) == -quantum_nambu(b, a, c, ST)


def test_quantum_nambu_classical_limit(rng):
    for _ in range(3):
        a, b, c = (jmap(random_zelem(rng, nterms=1)) for _ in range(3))
        q = quantum_nambu(a, b, c, ST)
        cl = classical_nambu(a, b, c)
        got = {k: z for k, z in q.terms.items() if not k[-1]}
        want = {k: z for k, z in cl.terms.items() if not k[-1]}
        assert got == want


_S3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def _classical_nambu_oracle(a, b, c):
    """The sum over S3 of signed taylor_mul_classical triple products of
    delta_y derivatives: the oracle for classical_nambu."""
    args = (a, b, c)
    out = TaylorElem.zero(a.space)
    for perm, sign in _S3:
        term = taylor_mul_classical(
            taylor_mul_classical(delta_y(perm[0] + 1, args[0]), delta_y(perm[1] + 1, args[1])),
            delta_y(perm[2] + 1, args[2]),
        )
        out = out + (term if sign > 0 else -term)
    return out


def _taylor_operand(rng, in_a):
    """A Taylor element with rational coefficients, nu parts and, unless
    in_a, a y-monomial term outside the Taylor subalgebra."""
    x = jmap(random_zelem(rng, nterms=1)).scale(Fraction(rng.choice((-5, 1, 3)), rng.randint(1, 4)))
    x = x + jmap(random_zelem(rng, nterms=1)).nu_shift(rng.randint(1, 2))
    if not in_a:
        e = tuple(rng.randint(0, 2) for _ in range(3))
        x = x + taylor_elem(SP, {e: ZNu({rng.randint(0, 2): random_zelem(rng, nterms=1)})})
    return x


def test_classical_nambu_matches_permutation_sum(rng):
    nonzero = 0
    for trial in range(8):
        args = [_taylor_operand(rng, in_a=trial % 2 == 0) for _ in range(3)]
        if trial == 3:
            args[1] = taylor_unit()
        got, want = classical_nambu(*args), _classical_nambu_oracle(*args)
        assert got == want
        assert got.in_a == want.in_a
        nonzero += not got.is_zero()
    assert nonzero >= 6


def test_quantum_nambu_fundamental_identity(rng):
    def bracket(a, b, c):
        return quantum_nambu(a, b, c, ST)

    for _ in range(2):
        fs = [jmap(ZElem.basis(zmonomial([random_z_irreducible(rng, 2)]))) for _ in range(5)]
        lhs = bracket(fs[0], fs[1], bracket(fs[2], fs[3], fs[4]))
        rhs = TaylorElem.zero(SP)
        for k in range(3):
            inner = bracket(fs[0], fs[1], fs[2 + k])
            args = fs[2:]
            args[k] = inner
            rhs = rhs + bracket(args[0], args[1], args[2])
        assert (lhs - rhs).is_zero()


# -- general-n parameterization ------------------------------------------------


def test_even_dimension_uses_full_moyal():
    sp2 = zariski_space(2)
    st2 = zariski_star(2)
    assert st2.kind == "moyal"
    y1, y2 = (Poly.variable(sp2, i) for i in range(2))
    h = y1 * y1 + y2 * y2
    assert times_alpha(h, h, st2) == NuObject(sp2, {0: h * h, 2: Poly.const(sp2, 4)})


def test_odd_dimension_uses_partial_moyal():
    assert zariski_star(3).kind == "partial_moyal"
    assert zariski_star(5).space.pairs == ((0, 1), (2, 3))


def test_dimension_four_theorem(rng):
    sp4 = zariski_space(4)
    st4 = zariski_star(4)
    from nambu_forge.factor import is_irreducible

    def rand_irr():
        while True:
            p = random_poly(sp4, rng, degree=2, terms=2)
            if p.is_zero() or p.is_constant():
                continue
            if is_irreducible(p):
                return normalize(p)[1]

    for _ in range(3):
        a = ZElem.basis(zmonomial([rand_irr()]))
        b = ZElem.basis(zmonomial([rand_irr()]))
        assert z_mul_nu(a, b, st4) == z_mul_nu(b, a, st4)
        assert z_mul_nu(a, b, st4).classical() == z_mul_classical(a, b)


# -- equality across ZElem and ZNu ----------------------------------------------


def test_zelem_znu_equality_is_symmetric(rng):
    u = random_zelem(rng)
    lifted = ZNu.from_zelem(u)
    assert lifted == u and u == lifted
    assert not (lifted != u) and not (u != lifted)
    tail = ZNu({0: u, 1: ZElem.unit()})
    assert tail != u and u != tail
    assert not (tail == u) and not (u == tail)
    other = u + ZElem.unit()
    assert other != lifted and lifted != other


# -- oracles: the deformed products pair by pair ---------------------------------
#
# Reference routes built from eval_T and zelem_from_poly alone: per pair of
# basis elements (z_mul_nu), per pair of y-degrees (a_mul_nu) and as nested
# deformed triple products (quantum_nambu).  The production routes instead
# apply the deformation map D once to the whole classical product.

S3 = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
)


def oracle_z_mul_nu(a, b, s):
    a0 = a.classical() if isinstance(a, ZNu) else a
    b0 = b.classical() if isinstance(b, ZNu) else b
    out = ZNu.zero()
    for mu, cu in a0.terms.items():
        for mv, cv in b0.terms.items():
            union = mu.union(mv)
            coeffs = {0: ZElem.basis(union)}
            for r, p in eval_T(union.factors, s).coeffs.items():
                if r > 0:
                    coeffs[r] = zelem_from_poly(p)
            out = out + ZNu(coeffs).scale(cu * cv)
    return out


def oracle_a_mul_nu(a, b, s):
    out = TaylorElem.zero(a.space)
    for ka, za in a.terms.items():
        for kb, zb in b.terms.items():
            if ka[-1] or kb[-1]:
                continue  # the deformed product discards positive nu powers
            e = tuple(x + y for x, y in zip(ka[:-1], kb[:-1]))
            out = out + taylor_elem(a.space, {e: oracle_z_mul_nu(za, zb, s)}, in_a=True)
    return out


def oracle_quantum_nambu(a, b, c, s):
    args = (a, b, c)
    out = TaylorElem.zero(a.space)
    for perm, sign in S3:
        d1, d2, d3 = (delta_y(k + 1, x) for k, x in zip(perm, args))
        term = oracle_a_mul_nu(oracle_a_mul_nu(d1, d2, s), d3, s)
        out = out + (term if sign > 0 else -term)
    return out


def _zelem_on(space, rng, nterms):
    from nambu_forge.factor import is_irreducible

    pool = []
    while len(pool) < 4:
        p = random_poly(space, rng, degree=2, terms=rng.randint(2, 3))
        if not p.is_constant() and is_irreducible(p):
            pool.append(normalize(p)[1])
    out = ZElem.zero()
    for _ in range(nterms):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        out = out + ZElem.basis(zmonomial(factors), Fraction(rng.choice([-2, -1, 1, 3])))
    return out


@pytest.mark.parametrize("n, rounds, nterms, qn_terms", [(3, 3, 3, 2), (4, 2, 1, 1)])
def test_products_match_pairwise_oracles(n, rounds, nterms, qn_terms):
    rng = random.Random(500 + n)
    space, star = zariski_space(n), zariski_star(n)
    for _ in range(rounds):
        a, b, c = (_zelem_on(space, rng, nterms) for _ in range(3))
        assert z_mul_nu(a, b, star) == oracle_z_mul_nu(a, b, star)
        # positive nu powers of the operands are discarded
        a_nu = ZNu({0: a, 1: b, 2: c})
        b_nu = ZNu({0: b, 3: a})
        assert z_mul_nu(a_nu, b_nu, star) == oracle_z_mul_nu(a_nu, b_nu, star)
        assert z_mul_nu(ZNu({1: a}), b, star).is_zero()
        # D is linear, so (a + b).b - b.b deforms like a.b
        assert z_mul_nu(a + b, b, star) - z_mul_nu(b, b, star) == oracle_z_mul_nu(a, b, star)

        ja, jb, jc = (jmap(x, space) for x in (a, b, c))
        assert a_mul_nu(ja, jb, star) == oracle_a_mul_nu(ja, jb, star)
        ja_nu = ja + jb.nu_shift(1)
        jc_nu = jc + ja.nu_shift(2)
        assert a_mul_nu(ja_nu, jc_nu, star) == oracle_a_mul_nu(ja_nu, jc_nu, star)
        assert a_mul_nu(ja_nu, jc_nu, star) == a_mul_nu(ja, jc, star)

    for _ in range(rounds - 1):
        a, b, c = (jmap(_zelem_on(space, rng, qn_terms), space) for _ in range(3))
        assert quantum_nambu(a, b, c, star) == oracle_quantum_nambu(a, b, c, star)
        got = quantum_nambu(a, a, c, star)
        assert got == oracle_quantum_nambu(a, a, c, star)
        assert got.is_zero()
        a_nu = a + b.nu_shift(1)
        assert quantum_nambu(a_nu, b, c, star) == oracle_quantum_nambu(a_nu, b, c, star)


@pytest.mark.parametrize("top", [3, 4, 7, 8, 15, 16])
def test_classical_nambu_packed_keys_across_field_widths(top):
    # the product's nu power reaches top = 2^k - 1 or 2^k, so its key entries
    # cross each power of two up to 16; both match the tuple-key oracle
    rng = random.Random(top)
    tops = (top // 3, top // 3, top - 2 * (top // 3))
    args = []
    for axis, p in enumerate(tops):
        # y_axis^p nu^p: the term of the product at nu^top comes from these
        key = [0, 0, 0, p]
        key[axis] = p
        terms = {tuple(key): random_zelem(rng, nterms=1)}
        for _ in range(3):
            key = tuple(rng.randint(0, p) for _ in range(4))
            terms[key] = random_zelem(rng, nterms=1) + terms.get(key, ZElem.zero())
        args.append(TaylorElem(SP, terms))
    got = classical_nambu(*args)
    assert got == _classical_nambu_oracle(*args)
    assert max(k[-1] for k in got.terms) == top


@pytest.mark.parametrize("p, q", [(4, 3), (4, 4)])
def test_deformed_packed_keys_across_field_widths(p, q):
    # y-exponents of J-images are derivative orders: y1^p times y1^q reaches
    # y1^7 and y1^8, on either side of a power of two
    ja, jb = jmap(zelem_from_poly(x1 ** p + x2)), jmap(zelem_from_poly(x1 ** q + x2 + x3))
    got = a_mul_nu(ja, jb, ST)
    assert got == oracle_a_mul_nu(ja, jb, ST)
    assert max(k[0] for k in got.terms) == p + q
    jc = jmap(zelem_from_poly(x3 ** (8 - p) + x1))
    assert quantum_nambu(ja, jb, jc, ST) == oracle_quantum_nambu(ja, jb, jc, ST)


def test_products_with_fractional_coefficients_match_pairwise_oracles():
    # mixed denominators across y-degrees (the 1/I! of jmap times 1/3, 7/6,
    # -5/2) and across nu powers, which the products bring over one
    # denominator per operand
    f, g, h = x1 * x2 + x3, x1 * x1 + x2 * x3, x2 * x2 + 2 * x3
    zf, zg, zh = (zelem_from_poly(p) for p in (f, g, h))
    a = zf.scale(Fraction(1, 3)) + zelem_from_poly(f * g).scale(Fraction(-5, 2))
    b = zg.scale(Fraction(7, 6)) + zh.scale(Fraction(-5, 2))
    c = zh.scale(Fraction(1, 3)) + ZElem.unit(Fraction(7, 6))
    assert z_mul_nu(a, b, ST) == oracle_z_mul_nu(a, b, ST)
    a_nu = ZNu({0: a, 1: b.scale(Fraction(7, 6)), 2: c})
    assert z_mul_nu(a_nu, c, ST) == oracle_z_mul_nu(a_nu, c, ST)

    ja, jb, jc = (jmap(x) for x in (a, b, c))
    ta = ja + jb.nu_shift(1).scale(Fraction(7, 6))
    tb = jb.scale(Fraction(-5, 2)) + jc.nu_shift(2).scale(Fraction(1, 3))
    assert a_mul_nu(ta, tb, ST) == oracle_a_mul_nu(ta, tb, ST)
    assert quantum_nambu(ta, jb, jc, ST) == oracle_quantum_nambu(ta, jb, jc, ST)

    # classical terms that cancel: 1/3 * 15/2 Z[f; g] - 5/2 Z[g; f] = 0, so
    # Z[f; g] is in no nu power of the product
    p = zf.scale(Fraction(1, 3)) + zg.scale(Fraction(-5, 2))
    q = zg.scale(Fraction(15, 2)) + zf
    got = z_mul_nu(p, q, ST)
    assert got == oracle_z_mul_nu(p, q, ST)
    fg = zmonomial([f, g])
    assert all(fg not in z.terms for z in got.coeffs.values())
    assert got.classical() == z_mul_classical(p, q)
    jp, jq = jmap(p), jmap(q)
    assert a_mul_nu(jp, jq, ST) == oracle_a_mul_nu(jp, jq, ST)
    got = quantum_nambu(ta, tb, ta, ST)
    assert got.is_zero() and got == oracle_quantum_nambu(ta, tb, ta, ST)


def test_equal_factors_are_one_object():
    # the same factor out of two different factorizations
    u = x1 + 13 * x2
    (interned,) = zelem_from_poly(u * (x3 + 1)).terms
    (other_product,) = zelem_from_poly(3 * u * (x2 - x3 * x3)).terms
    (mu,) = [g for g in interned.factors if g == u]
    (again,) = [g for g in other_product.factors if g == u]
    assert mu is again
    (single,) = zelem_from_poly(u).terms
    assert single.factors[0] is mu

    # a trusted ZMonomial over freshly parsed equal polynomials, as the
    # benchmark's J-images are built, still equals the interned one
    fresh = [parse_expr(t, SP) for t in ("x1 + 13*x2", "x3 + 1")]
    assert fresh[0] == mu and fresh[0] is not mu
    loose = ZMonomial(fresh, trusted=True)
    assert loose is interned
    assert loose.factors[0] is mu
    other = zmonomial([x1 * x1 + x2 * x3])
    assert loose.union(other) is interned.union(other)

    # so ZElem terms keyed by either are found by the other
    assert ZElem.basis(loose, 5).terms[interned] == 5
    assert ZElem.basis(interned, 5).terms[loose] == 5
    assert ZElem.basis(loose, 5) == ZElem.basis(interned, 5)


def test_every_construction_path_is_interned():
    f, g, h = x1 + 17 * x2, x3 * x3 + x1 + 5, x2 + 19 * x3
    fgh = ZMonomial([f, g, h], trusted=True)
    assert ZMonomial([h, g, f]) is fgh
    assert ZMonomial([parse_expr(t, SP) for t in ("x2 + 19*x3", "x1 + 17*x2")], trusted=True) \
        is ZMonomial([f, h])
    assert zmonomial([g, h, f]) is fgh
    assert zariski._factor_monomial(3 * f * g * h) is fgh
    fg, gh, single = ZMonomial([f, g]), ZMonomial([g, h]), ZMonomial([h])
    assert fg.union(single) is single.union(fg) is fgh
    assert zmonomial([f, f, h]).union(ZMonomial([g])) is ZMonomial([g, f, h, f])
    assert fgh.union(ZMonomial(())) is fgh and ZMonomial(()).union(fgh) is fgh
    # delta's Leibniz rule drops one factor at a time and joins the rest
    for i in (1, 2, 3):
        for m in delta(i, ZElem.basis(fgh)).terms:
            assert ZMonomial(m.factors) is m
    # d/dx1 of f and of g is 1, so the terms are the rest monomials themselves
    assert list(delta(1, ZElem.basis(fgh)).terms) == [gh, ZMonomial([f, h])]
    assert zelem_from_poly(Poly.const(SP, 4)).terms.keys() == {ZMonomial(())}


@pytest.mark.parametrize("left, right", [
    ((0, 2, 4), (1, 3)),  # interleaved factor orders
    ((0, 0, 3), (1, 3, 4)),  # interleaved, with shared factors
    ((0, 1), (2, 3, 4)),  # every factor of one side comes first
    ((2,), (0, 1)),
    ((), (1, 2)),
])
def test_union_is_one_sorted_merge(left, right):
    fs = ZMonomial([x1 + 17 * x2, x3 * x3 + x1 + 5, x2 + 19 * x3, x1 * x2 + 7, x1 - 23 * x3]).factors
    a, b = (ZMonomial([fs[i] for i in side]) for side in (left, right))
    assert a.union(b) is b.union(a) is ZMonomial([fs[i] for i in left + right])


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("factors", [
    [],  # the unit
    [x1],
    [x1, x1, x2 + 19 * x3],
    [x3 * x3 + x1 + 5, x1 - 23 * x3, x1 * x2 + 7],
])
def test_zmonomial_times_k_is_the_k_fold_union(factors, k):
    # a power of a one-term Zariski map scales its key: the Z-monomial times k
    m = ZMonomial(factors)
    union = ZMonomial(())
    for _ in range(k):
        union = union.union(m)
    assert m * k is union is ZMonomial(factors * k)


def test_zmonomial_identity_is_equality():
    assert "__eq__" not in vars(ZMonomial) and "__hash__" not in vars(ZMonomial)
    assert ZMonomial.__hash__ is object.__hash__
    assert not hasattr(zariski, "_stored_hash")
    # equal factor lists on different spaces are different polynomials
    sp4 = zariski_space(4)
    y1, y2 = (Poly.variable(sp4, i) for i in range(2))
    m3 = ZMonomial([x1 + 2 * x2])
    m4 = ZMonomial([y1 + 2 * y2])
    assert str(m3) == str(m4) and m3 is not m4 and m3 != m4


def test_zmonomial_outlives_its_last_reference():
    import gc

    # the constructor's cache holds every Z-monomial it built, so a rebuilt
    # monomial is the one object built before, even after it was dropped
    u = x1 * x3 + 23 * x2 + 29
    m = ZMonomial([u], trusted=True)
    key, ident = m.factors, id(m)
    del m
    gc.collect()
    hits = ZMonomial._sorted.cache_info().hits
    m = ZMonomial([u])
    assert id(m) == ident and m.factors is key
    assert ZMonomial._sorted.cache_info().hits == hits + 1


def test_value_types_copy_and_pickle():
    import copy
    import pickle

    f, g = x1 + 31 * x2, x2 * x2 + x3
    m = ZMonomial([f, g, g])
    z = ZElem({m: Fraction(-3, 4), ZMonomial(()): 2})
    znu = ZNu({0: z, 2: ZElem.basis(ZMonomial([f]), 5)})
    t = jmap(z)
    scaled = t.scale(Fraction(5, 6)).nu_shift(1)
    outside = parse_expr("y1*Z[x1]")
    assert z.den == 4 and t.den == 4 and scaled.den == 24 and not outside.in_a
    zeros = (ZElem.zero(), ZNu.zero(), TaylorElem.zero(SP))
    for v in (m, z, znu, t, scaled, outside, *zeros):
        assert copy.copy(v) is v and copy.deepcopy(v) is v
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v)
        assert back == v and str(back) == str(v)
        if v is not m:
            assert back.space == v.space and back.den == v.den and back._parts == v._parts
            # of the five kinds only Poly and NuObject are hashable
            with pytest.raises(TypeError):
                hash(v)
        if isinstance(v, TaylorElem):
            assert back.in_a == v.in_a
    assert pickle.loads(pickle.dumps(m)) is m
    back = pickle.loads(pickle.dumps(z))
    assert list(back.terms) == list(z.terms)
    assert pickle.loads(pickle.dumps(t)).in_a


def test_quantum_nambu_keeps_error_messages():
    sp4 = zariski_space(4)
    j3 = jmap(zelem_from_poly(x1), SP)
    j4 = jmap(ZElem.unit(), sp4)
    with pytest.raises(InvalidArgumentError, match="spaces differ"):
        quantum_nambu(j3, j4, j3, ST)
    with pytest.raises(InvalidArgumentError, match="spaces differ"):
        a_mul_nu(j3, j4, ST)
    raw = taylor_elem(SP, {(1, 1, 1): ZNu.from_zelem(ZElem.unit())}, in_a=False)
    with pytest.raises(InvalidArgumentError, match="Taylor subalgebra only"):
        quantum_nambu(j3, j3, raw, ST)


# -- exactness: every coefficient stays a Fraction ------------------------------


def _poly_coeffs(x):
    polys = x.coeffs.values() if isinstance(x, NuObject) else [x]
    return [c for p in polys for c in p.terms.values()]


def _taylor_coeffs(t):
    return [c for z in t.terms.values() for c in z.terms.values()]


def test_coefficients_stay_fractions(rng):
    qp = qp_space()
    q, p = (Poly.variable(qp, i) for i in range(2))
    f = q * q * p + 3 * p * p - q
    g = 2 * q * p * p + p - 5
    L = su2_product().space
    l1, l2, l3 = (Poly.variable(L, i) for i in range(3))
    u, v = random_z_irreducible(rng), random_z_irreducible(rng)
    products = [
        star_mul(moyal_product(qp), f, g),
        star_mul(standard_ordering_product(qp), f, g),
        star_mul(ST, u * x3, v + x1),
        star_mul(su2_product(), l1 * l2 + l3, l3 * l3 - 2 * l1),
        eval_T((u, v, u, x1 + x3), ST),
        eval_T((H, H), ST),
    ]
    for x in products:
        coeffs = _poly_coeffs(x)
        assert coeffs and all(type(c) is Fraction for c in coeffs)

    zH = zelem_from_poly(H)
    a, b = jmap(zH + random_zelem(rng)), jmap(zH)
    jx, jy, jz = (jmap(zelem_from_poly(f)) for f in (H * x1, H * x2, x1 * x2 + x3))
    for t in (a_mul_nu(a, b, ST), quantum_nambu(jx, jy, jz, ST)):
        # both results carry nu^2 parts, so the deformation map's sums are seen
        assert any(k[-1] > 0 for k in t.terms)
        coeffs = _taylor_coeffs(t)
        assert all(type(k) is Fraction for k in coeffs)


# -- the eval_T resource bound --------------------------------------------------


def test_eval_T_subset_bound(monkeypatch):
    monkeypatch.setattr(zariski, "EVAL_T_SUBSET_BOUND", 4)
    f, g, h = x1 + 5 * x3, x2 + 7 * x3, x1 + x2 + 11 * x3
    assert eval_T((f, g), ST) == NuObject.from_poly(f * g)  # 4 sub-multisets
    assert eval_T((f, f, f), ST).classical() == f * f * f  # 4 sub-multisets
    with pytest.raises(ResourceLimitError, match="eval_T subset bound 4") as err:
        eval_T((f, g, h), ST)  # 8 sub-multisets
    assert "8 sub-multisets" in str(err.value)
    with pytest.raises(ResourceLimitError, match="eval_T subset bound 4"):
        eval_T((f, f, g), ST)  # 6 sub-multisets
    # a central factor splits off the deformation tail only after the whole
    # multiset is counted
    c = x3 + 13
    assert eval_T((f, c), ST) == NuObject.from_poly(f * c)  # 4 sub-multisets
    for call in (lambda: eval_T((f, g, c), ST),
                 lambda: z_mul_nu(zmonomial_elem(f, c), zmonomial_elem(g), ST),
                 lambda: z_mul_nu(zmonomial_elem(c, c), zmonomial_elem(f), ST)):
        with pytest.raises(ResourceLimitError) as err:
            call()  # 8 and 6 sub-multisets
        assert str(err.value).endswith("sub-multisets is over the eval_T subset bound 4")


def zmonomial_elem(*factors):
    return ZElem.basis(zmonomial(factors))


def test_central_tail_keeps_factorize_refusals():
    # T_2 of six copies of x1*x2 + x3 and five of x3 + 1 has degree 13: its
    # factorization is refused, and the central factors split off the tail
    # would leave a degree-8 T_2 that is not, so no split is taken there
    h, c = x1 * x2 + x3, x3 + 1
    with pytest.raises(ResourceLimitError, match="total degree 13 is over the degree bound 12"):
        z_mul_nu(zmonomial_elem(*[h] * 6, *[c] * 5), ZElem.unit(), ST)
    assert not zariski._factorable(zmonomial([h] * 6 + [c] * 5), SP)
    assert zariski._factorable(zmonomial([h] * 4 + [c] * 3), SP)


# -- pinned digest: canonical text of the products over a fixed operand set ----

# recorded from the Fraction-based products that the integer kernel replaced,
# so it pins outputs, not an implementation; a change of any coefficient,
# monomial or nu power in these results changes the digest
PINNED_DIGEST = "b77cda72d51c4e7adf30565cefdb5469efe218672318d1ca3822591a6d85419b"
_PINNED_COEFFS = (Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6), Fraction(2), Fraction(-1))


def _pinned_texts() -> list:
    rng = random.Random(1309)
    texts = []
    for n, qn_terms in ((3, 2), (4, 1)):
        space, star = zariski_space(n), zariski_star(n)
        pool = []
        while len(pool) < 4:
            p = _nonconstant(space, rng)
            if is_irreducible(p):
                pool.append(normalize(p)[1])

        def zelem(nterms):
            out = ZElem.zero()
            for _ in range(nterms):
                factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
                out = out + ZElem.basis(zmonomial(factors), rng.choice(_PINNED_COEFFS))
            return out

        for k in range(1, 5):
            texts.append(str(eval_T([rng.choice(pool) for _ in range(k)], star)))
        a, b, c = (zelem(3) for _ in range(3))
        texts.append(str(z_mul_nu(a, b, star)))
        texts.append(str(z_mul_nu(ZNu({0: a, 1: c}), b + c, star)))
        ja, jb, jc = (jmap(x, space) for x in (a, b, c))
        texts.append(str(a_mul_nu(ja, jb, star)))
        texts.append(str(a_mul_nu(ja.scale(Fraction(-5, 2)) + jc.nu_shift(1), jb, star)))
        qa, qb, qc = (jmap(zelem(qn_terms), space) for _ in range(3))
        texts.append(str(quantum_nambu(qa, qb, qc, star)))
        texts.append(str(quantum_nambu(qa.scale(Fraction(7, 6)), qb, qa + qc, star)))
    return texts


def test_products_match_pinned_digest():
    text = "\n".join(_pinned_texts())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST
