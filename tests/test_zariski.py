"""The semigroup algebra, its deformation, derivations and Taylor algebra."""

import hashlib
import itertools
import json
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from nambu_forge import zariski
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.expr import parse_expr
from nambu_forge.factor import is_irreducible, normalize
from nambu_forge.poly import NuObject, Poly, qp_space
from nambu_forge.star import (
    moyal_product,
    standard_ordering_product,
    star_mul,
    star_power,
    su2_product,
)
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

from conftest import random_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"
SP = zariski_space(3)
ST = zariski_star(3)
x1, x2, x3 = (Poly.variable(SP, i) for i in range(3))
H = x1 * x1 + x2 * x2


def random_z_irreducible(rng, degree=2):
    from nambu_forge.factor import is_irreducible

    while True:
        p = random_poly(SP, rng, degree=degree, terms=rng.randint(2, 3))
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
    st4 = zariski_star(4)
    sp4 = st4.space
    su2 = su2_product()
    l1, l2, l3 = (Poly.variable(su2.space, i) for i in range(3))
    cases = []
    for _ in range(3):
        u, v, w = (random_z_irreducible(rng, 2) for _ in range(3))
        cases += [((u, v, w), ST), ((u, u, v), ST), ((u, v, u, v), ST)]
        f, g = _nonconstant(sp4, rng), _nonconstant(sp4, rng)
        cases += [((f, g, _nonconstant(sp4, rng)), st4), ((f, g, f), st4)]
    cases += [((l1, l1, l2, l3), su2), ((l3, l3, l3), su2), ((l1, l2, l3, l2), su2)]
    for factors, s in cases:
        t = eval_T(factors, s)
        assert t == _symmetrized(factors, s), factors
        # T is even in nu, so the recursion never needs an odd Poisson power
        assert all(r % 2 == 0 for r in t.coeffs), t


def test_eval_T_calls_no_star_mul_for_moyal_kinds(monkeypatch):
    def refuse(*_):
        raise AssertionError("star_mul called")

    monkeypatch.setattr(zariski, "star_mul", refuse)
    st4 = zariski_star(4)
    y1, y2, y3, y4 = (Poly.variable(st4.space, i) for i in range(4))
    u, v = x1 * x2 + 17 * x3, x1 + 19 * x2 * x3  # not met elsewhere, so not cached
    for factors, s in (((u, v, u), ST), ((y1 * y2 + 23 * y3, y2 * y4, y1 * y2 + 23 * y3), st4)):
        t = eval_T(factors, s)
        assert any(r > 0 for r in t.coeffs)
        assert t == _symmetrized(factors, s)  # the oracle's star_mul is not patched


def test_eval_T_rejects_standard_ordering():
    qp = qp_space()
    q, p = Poly.variable(qp, 0), Poly.variable(qp, 1)
    with pytest.raises(InvalidArgumentError, match="standard_ordering"):
        eval_T((q, p), standard_ordering_product(qp))


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
        "TaylorElem": (TaylorElem(SP, {y0: zn[0], y1: zn[1]}),
                       TaylorElem(SP, {y1: -zn[1], y0: zn[1]}), TaylorElem(SP, {y0: zn[2]})),
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


def test_jmap_additive(rng):
    for _ in range(6):
        a, b = random_zelem(rng), random_zelem(rng)
        assert jmap(a + b) == jmap(a) + jmap(b)


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
    raw = TaylorElem(SP, {(1, 0, 0): ZNu.from_zelem(ZElem.unit())}, in_a=False)
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
        y0 = {e: z.classical() for e, z in classical.terms.items()}
        got = {e: z.classical() for e, z in ab.terms.items()}
        assert got == y0


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
        got = {e: z.classical() for e, z in q.terms.items()}
        want = {e: z.classical() for e, z in cl.terms.items()}
        assert got == want


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
    for ea, za in a.terms.items():
        for eb, zb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out = out + TaylorElem(a.space, {e: oracle_z_mul_nu(za, zb, s)}, in_a=True)
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
    assert loose == interned and interned == loose
    assert hash(loose) == hash(interned)
    other = zmonomial([x1 * x1 + x2 * x3])
    assert loose.union(other) == interned.union(other)
    assert hash(loose.union(other)) == hash(interned.union(other))

    # so ZElem terms keyed by either are found by the other
    assert ZElem.basis(loose, 5).terms[interned] == 5
    assert ZElem.basis(interned, 5).terms[loose] == 5
    assert ZElem.basis(loose, 5) == ZElem.basis(interned, 5)


def test_quantum_nambu_keeps_error_messages():
    sp4 = zariski_space(4)
    j3 = jmap(zelem_from_poly(x1), SP)
    j4 = jmap(ZElem.unit(), sp4)
    with pytest.raises(InvalidArgumentError, match="spaces differ"):
        quantum_nambu(j3, j4, j3, ST)
    with pytest.raises(InvalidArgumentError, match="spaces differ"):
        a_mul_nu(j3, j4, ST)
    raw = TaylorElem(SP, {(1, 1, 1): ZNu.from_zelem(ZElem.unit())}, in_a=False)
    with pytest.raises(InvalidArgumentError, match="Taylor subalgebra only"):
        quantum_nambu(j3, j3, raw, ST)


# -- exactness: every coefficient stays a Fraction ------------------------------


def _poly_coeffs(x):
    polys = x.coeffs.values() if isinstance(x, NuObject) else [x]
    return [c for p in polys for c in p.terms.values()]


def _taylor_coeffs(t):
    return [c for z in t.terms.values() for ze in z.coeffs.values() for c in ze.terms.values()]


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
        assert any(k > 0 for z in t.terms.values() for k in z.coeffs)
        coeffs = _taylor_coeffs(t)
        assert all(type(k) is Fraction for k in coeffs)


# -- the eval_T resource bound --------------------------------------------------


def test_eval_T_subset_bound(monkeypatch):
    monkeypatch.setattr(zariski, "EVAL_T_SUBSET_BOUND", 4)
    f, g, h = x1 + 5 * x3, x2 + 7 * x3, x1 + x2 + 11 * x3
    assert eval_T((f, g), ST) == NuObject.from_poly(f * g)  # 4 sub-multisets
    assert eval_T((f, f, f), ST).classical() == f * f * f  # 4 sub-multisets
    with pytest.raises(ResourceLimitError, match="eval_T bound 4") as err:
        eval_T((f, g, h), ST)  # 8 sub-multisets
    assert "8 sub-multisets" in str(err.value)
    with pytest.raises(ResourceLimitError, match="eval_T bound 4"):
        eval_T((f, f, g), ST)  # 6 sub-multisets


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
