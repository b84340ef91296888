"""Polynomial arithmetic, Poisson bivector powers and Jacobians."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nambu_forge import factor, nambu, poly, star, sun, weyl, zariski
from nambu_forge.errors import InvalidArgumentError
from nambu_forge.expr import parse_expr
from nambu_forge.poly import (
    NuObject,
    Poly,
    coordinate_space,
    jacobian_det,
    leading_monomial,
    poisson_power,
    qp_space,
)

from conftest import det_oracle, fractions_built, mul_oracle, random_poly, sum_oracle

X3 = coordinate_space(3)
QP = qp_space()


def xs():
    return tuple(Poly.variable(X3, i) for i in range(3))


small_polys = st.builds(
    lambda seed: random_poly(X3, random.Random(seed), degree=3, terms=4),
    st.integers(0, 10**6),
)


def test_only_poly_combines_poisson_grids_and_denominators():
    # poly._poisson_sum is the one place that pairs grids and denominators;
    # the product modules hand it integer term maps
    for module in (star, zariski, sun):
        for name in ("_poisson_walk", "_poisson_into", "_poisson_grid", "_DerivativeCache",
                     "_add_over"):
            assert not hasattr(module, name), (module.__name__, name)
    # Poly and ZElem share one integer layout, and ZNu and TaylorElem one row
    # layout: the Fraction-row and ZElem-per-row bridges are gone
    for owner, name in ((poly, "_int_rows"), (poly, "_over"), (zariski.ZElem, "_frozen"),
                        (zariski, "_classical_product"), (zariski, "_znu_of"),
                        (zariski, "render_znu")):
        assert not hasattr(owner, name), name
    for cls in (Poly, zariski.ZElem):
        assert issubclass(cls, poly._Rational)
        assert not {"_of", "terms", "_signed", "__neg__", "__eq__", "scale"} & vars(cls).keys()
    # NuObject, ZNu and TaylorElem share one row layout through poly._Rows,
    # and one graded row product that takes the row kernel
    assert zariski._Rows is poly._Rows
    for owner, name in ((poly, "_nu_of"), (zariski, "_y_mul_into")):
        assert not hasattr(owner, name), name
    for cls in (NuObject, zariski.ZNu, zariski.TaylorElem):
        assert issubclass(cls, poly._Rows)
        assert not {"_signed", "__neg__", "__eq__", "scale", "nu_shift", "terms"} & vars(cls).keys()
    # _Frozen holds the immutability, copy and pickling of every value once;
    # _Sparse, derived from it, holds the arithmetic (the product included)
    # and equality once, over each layout's integer entries; no layout or
    # kind redefines any of it, and the two-map sum helper is gone (the
    # tests' sum_oracle stands for it)
    frozen = {"__setattr__", "_set", "__copy__", "__deepcopy__", "__reduce__"}
    core = {"_signed", "__neg__", "__eq__", "scale", "__mul__", "__rmul__"}
    assert issubclass(poly._Sparse, poly._Frozen)
    assert frozen <= vars(poly._Frozen).keys() and core <= vars(poly._Sparse).keys()
    assert not frozen & vars(poly._Sparse).keys()
    for cls in (poly._Rational, poly._Rows, Poly, zariski.ZElem, NuObject, zariski.ZNu,
                zariski.TaylorElem):
        assert not (core | frozen) & vars(cls).keys(), cls
    assert not hasattr(poly, "_summed")


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


def _int_term_map(space, rng, used):
    """2-4 integer terms of degree <= 3 in the variables of ``used``."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        terms[tuple(rng.randint(0, 3) if i in used else 0 for i in range(space.nvars))] = (
            rng.choice([-3, -2, -1, 1, 2, 5]))
    return terms


def _fraction_rows(space, rows, d):
    """{m: {exponent: Fraction}} of integer rows over d, zero entries dropped."""
    return {m: Poly._of(space, row, d).terms for m, row in rows.items()}


@pytest.mark.parametrize("npairs", [1, 2, 3])
def test_even_poisson_sum_drops_odd_orders(rng, npairs):
    # even=True keeps exactly the positive even Poisson orders r of each job
    # (the caller forms the order 0, the plain product, itself), whatever the
    # parity of its nu-shift, also where a pair has kmax or lmax zero
    space = coordinate_space(2 * npairs + 1, npairs)
    a, b = space.pairs[-1]
    rest = set(range(space.nvars)) - {a, b}
    for trial in range(12):
        jobs = []
        for shift in range(4):
            # on the last pair kmax = min(deg_a f, deg_b g) is 0 in the trials
            # 1 mod 3, and lmax = min(deg_b f, deg_a g) in the trials 2 mod 3
            f = _int_term_map(space, rng, rest | ({b} if trial % 3 == 1 else {a, b}))
            g = _int_term_map(space, rng, rest | ({b} if trial % 3 == 2 else {a, b}))
            jobs.append((shift, rng.choice([-2, 1, 3]), f, g))
        expect: dict = {}
        for shift, w, f, g in jobs:
            rows, d = poly._poisson_sum([(shift, w, f, g)], space)
            for (m,), row in _fraction_rows(space, rows, d).items():
                if m > shift and (m - shift) % 2 == 0:
                    expect[m,] = sum_oracle(expect.get((m,), {}), row)
        rows, d = poly._poisson_sum(jobs, space, even=True)
        expect = {m: nz for m, row in expect.items() if (nz := {e: c for e, c in row.items() if c})}
        assert {m: row for m, row in _fraction_rows(space, rows, d).items() if row} == expect


@pytest.mark.parametrize("f, g, derivatives", [
    ({(3, 0): 1}, {(0, 3): 1}, 4),  # k = 3 is odd: orders 1 and 2 of each chain
    ({(3, 1): 1}, {(1, 3): 1}, 10),  # orders 1-3 in k, and l = 1 where k is odd
])
def test_even_poisson_sum_takes_no_derivative_only_odd_orders_use(monkeypatch, f, g, derivatives):
    calls = []
    diff = poly._diff_terms
    monkeypatch.setattr(poly, "_diff_terms", lambda terms, i: calls.append(i) or diff(terms, i))
    poly._poisson_sum([(0, 1, f, g)], QP, even=True)
    assert len(calls) == derivatives


def test_jacobian_examples():
    x, y, z = xs()
    assert jacobian_det([x, y, z], (0, 1, 2)) == Poly.const(X3, 1)
    assert jacobian_det([x, x, z], (0, 1, 2)).is_zero()
    assert jacobian_det([x * x, y, z], (0, 1, 2)) == 2 * x


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
        (5, (4, 1, 3, 0, 2)),
        (6, (5, 0, 3, 2, 4, 1)),
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
        assert det == det_oracle(fs, idx)
        assert all(type(c) is Fraction for c in det.terms.values())


def test_jacobian_is_one_laplace_expansion(monkeypatch):
    # seven dense linear forms: every partial is a nonzero constant, so the
    # expansion forms one product per (column set, new column) pair, at most
    # 7 * 2^6, where a sum over the 5040 permutations forms 35,280
    sympy = pytest.importorskip("sympy")
    space = coordinate_space(7)
    rng = random.Random(7)
    coeffs = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8)) for _ in range(7)]
              for _ in range(7)]
    fs = [sum((Poly.variable(space, j) * c for j, c in enumerate(row)), Poly.zero(space))
          for row in coeffs]
    calls = []
    original = poly._mul_into

    def counting(*args):
        calls.append(1)
        original(*args)

    monkeypatch.setattr(poly, "_mul_into", counting)
    det = jacobian_det(fs, range(7))
    monkeypatch.undo()
    assert 0 < len(calls) <= 7 * 2 ** 6
    want = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in coeffs]).det()
    assert want != 0
    assert det == Poly.const(space, Fraction(int(want.p), int(want.q)))


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
        # a Poly stands for the NuObject at nu^0 on either side of *
        f = random_poly(QP, rng)
        assert f * a == a * f == a * NuObject.from_poly(f)
    x = NuObject(QP, {0: Poly.variable(QP, 0), 2: Poly.const(QP, 3)})
    assert x.nu_shift(-2).nu_shift(2) == x
    assert x.classical() == Poly.variable(QP, 0)


def test_poly_evaluate():
    x, y, z = xs()
    f = x * x * 3 + y * z * Fraction(1, 2)
    assert f.evaluate([1, 2, 4]) == 3 + 4


@pytest.mark.parametrize("values", [[], [2], [2, 3], [2, 3, 4, 5]])
def test_poly_evaluate_needs_one_value_per_variable(values):
    # zip would drop the missing variables' terms or ignore the extra values
    f = parse_expr("x1*x2*x3 + x3^2", X3)
    with pytest.raises(InvalidArgumentError, match=f"needs 3 values, got {len(values)}"):
        f.evaluate(values)


def _mul_cases():
    x, y, z = xs()
    half = Fraction(1, 2)
    return [
        (x * half + y * Fraction(2, 3), x * Fraction(-3, 4) + z * Fraction(5, 6)),  # rational
        (x + y, x - y),  # the mixed terms cancel
        (x * half - y, Poly.zero(X3)),  # the product is zero
        (Poly.zero(X3), Poly.zero(X3)),
        (Poly.const(X3, Fraction(7, 3)), x * y * half + z),  # constants
        (Poly.const(X3, Fraction(-2, 5)), Poly.const(X3, Fraction(5, 4))),
        (random_poly(X3, random.Random(3), degree=3, terms=5) * Fraction(1, 6),
         random_poly(X3, random.Random(4), degree=2, terms=4) * Fraction(4, 9)),
    ]


@pytest.mark.parametrize("f, g", _mul_cases())
def test_poly_mul_builds_one_fraction_per_output_term(monkeypatch, f, g):
    # integer numerators over one denominator in and out: a product builds no
    # Fraction at all, fewer than the one per output term the name records
    out, built = fractions_built(monkeypatch, lambda: f * g)
    assert built == 0
    assert out == mul_oracle(f, g) == g * f
    assert list(out.terms) == list(mul_oracle(f, g).terms)


def _lowest(p: Poly) -> bool:
    """Whether p is stored in lowest terms: den > 0, no zero numerator, the
    gcd of den and the numerators 1 (so den is 1 for zero)."""
    return p.den > 0 and all(p.num.values()) and gcd(p.den, *p.num.values()) == 1


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def test_integer_storage_matches_fraction_dicts(rng):
    # every operation on num and den agrees term by term with the same
    # operation on the Fraction dicts that .terms reads, and leaves its
    # result in lowest terms
    zero = Poly.zero(X3)
    assert zero.num == {} and zero.den == 1 and _lowest(zero)
    for trial in range(60):
        f, g = _rational_poly(X3, rng, 3), _rational_poly(X3, rng, 3)
        if trial % 10 == 3:
            g = zero
        elif trial % 10 == 7:
            g = Poly.const(X3, Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
        c = Fraction(rng.choice([-3, 1, 2, 5]), rng.randint(1, 6))
        ft, gt = f.terms, g.terms
        cube = mul_oracle(mul_oracle(f, f), f)
        cases = [
            (f + g, sum_oracle(ft, gt)),
            (f - g, sum_oracle(ft, gt, -1)),
            (g - f, sum_oracle(gt, ft, -1)),
            (-f, {e: -v for e, v in ft.items()}),
            (f - f, {}),
            (f * g, mul_oracle(f, g).terms),
            (f * c, {e: v * c for e, v in ft.items()}),
            (c * g, {e: c * v for e, v in gt.items()}),
            (f * 3, {e: v * 3 for e, v in ft.items()}),
            (f * 0, {}),
            (f**0, {(0, 0, 0): Fraction(1)}),
            (f**3, cube.terms),
        ]
        for i in range(3):
            cases.append((f.diff(i), {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
                                      for e, v in ft.items() if e[i]}))
        for got, want in cases:
            assert got.terms == _nonzero(want), (str(f), str(g))
            assert _lowest(got), (str(f), str(g))
        twice = (f + f) - f
        assert twice == f and twice.den == f.den and twice.num == f.num
        F = NuObject(X3, {0: f, 2: g * c, -1: _rational_poly(X3, rng, 2)})
        G = NuObject(X3, {0: g - f, 1: _rational_poly(X3, rng, 2)})
        for sign, got in ((1, F + G), (-1, F - G)):
            want = {k: _nonzero(sum_oracle(F.coefficient(k).terms, G.coefficient(k).terms, sign))
                    for k in F.coeffs.keys() | G.coeffs.keys()}
            assert {k: p.terms for k, p in got.coeffs.items()} == {k: t for k, t in want.items() if t}
            assert all(map(_lowest, got.coeffs.values()))


def test_nuobject_stores_integer_rows_over_one_denominator(rng):
    # every operation on rows and den agrees power by power with the same
    # operation on {nu: Poly} dicts whose values have unlike denominators,
    # and leaves its result in lowest terms with int numerators
    L = poly.su2_space()
    products = [(star.moyal_product(QP), QP), (star.standard_ordering_product(QP), QP),
                (star.partial_moyal_product(coordinate_space(3, 1)), coordinate_space(3, 1)),
                (star.su2_product(), L)]
    for product, space in products:
        for _ in range(2):
            a = random_poly(space, rng, 2, 3)
            b = random_poly(space, rng, 2, 3) * Fraction(1, 5)
            c = random_poly(space, rng, 2, 3) * Fraction(2, 7)
            da, db = {0: a, 1: b, 3: c}, {-1: b, 0: -a, 2: c}
            F, G = NuObject(space, da), NuObject(space, db)
            assert len({a.den, b.den, c.den}) == 3 and F.den == lcm(a.den, b.den, c.den)
            product_dicts: dict = {}
            star_dicts: dict = {}
            for (i, x), (j, y) in itertools.product(da.items(), db.items()):
                poly._bump(product_dicts, i + j, x * y)
                for k, z in star.star_mul(product, x, y).coeffs.items():
                    poly._bump(star_dicts, i + j + k, z)
            checks = [
                (F + G, sum_oracle(da, db)),
                (F - G, sum_oracle(da, db, -1)),
                (F - F, {}),
                (-F, {k: -x for k, x in da.items()}),
                (F.nu_shift(2), {k + 2: x for k, x in da.items()}),
                (F.nu_shift(-3), {k - 3: x for k, x in da.items()}),
                (F * G, product_dicts),
                (F * c, {k: x * c for k, x in da.items()}),
                (star.star_mul(product, F, G), star_dicts),
            ]
            for q in (Fraction(-4, 15), 0, 6):
                checks.append((F.scale(q), {k: x * q for k, x in da.items()}))
            for got, expect in checks:
                expect = {k: x for k, x in expect.items() if not x.is_zero()}
                assert got.coeffs == expect and got == NuObject(space, expect), product.kind
                assert got.rows == NuObject(space, expect).rows and all(len(k) == 1 for k in got.rows)
                nums = [n for row in got.rows.values() for n in row.values()]
                assert got.den > 0 and gcd(got.den, *nums) == 1
                assert all(type(n) is int and n for n in nums)
            assert F.scale(0).den == 1 and (F - F).den == 1
            # a Poly operand's num is the one row it stands for
            assert NuObject.from_poly(b).rows[0,] is b.num


def test_kernels_leave_operand_rows_unchanged(rng):
    # the kernels read the operands' own num dicts and rows (a Poly operand's
    # num is its one row), so none may write to them
    def rows(x):
        return x.rows if isinstance(x, NuObject) else {(): x.num}

    def held(*xs):
        return [(x, {k: dict(row) for k, row in rows(x).items()}) for x in xs]

    L = poly.su2_space()
    products = [(star.moyal_product(QP), QP), (star.standard_ordering_product(QP), QP),
                (star.partial_moyal_product(coordinate_space(3, 1)), coordinate_space(3, 1)),
                (star.su2_product(), L)]
    for product, space in products:
        for _ in range(3):
            F = NuObject(space, {0: random_poly(space, rng, 3, 4),
                                 1: _rational_poly(space, rng, 2)})
            G = NuObject(space, {0: random_poly(space, rng, 2, 3), -1: random_poly(space, rng)})
            before = held(F, G)
            star.star_mul(product, F, G)
            star.star_mul(product, G, F)
            assert all(rows(x) == n for x, n in before), product.kind
    fs = [random_poly(L, rng, 3, 4) * Fraction(1, 3), random_poly(L, rng, 2, 3),
          _rational_poly(L, rng, 3)]
    before = held(*fs)
    sun.sun_mul(sun.sun_su2(), fs[0], fs[1])
    jacobian_det(fs, (0, 1, 2))
    x1, x2, x3 = xs()
    f = (x1 * x2 + 3 * x3) * (x1 - 2 * x2) ** 2 * Fraction(5, 2)
    before += held(f)
    factor.factorize(f)
    assert all(rows(x) == n for x, n in before)


def test_sums_and_scale_copy_the_left_operand_fresh(rng):
    # a sum or scale whose left factor is 1 copies that operand's entries at
    # C level; the copy is fresh, row by row, so adding the right operand
    # into it leaves both operands as they were
    def held(x):
        return {k: dict(v) if isinstance(v, dict) else v for k, v in x._parts.items()}

    space = coordinate_space(3, 1)
    f, g = random_poly(space, rng, 2, 4), random_poly(space, rng, 2, 4)
    u = Poly.variable(zariski.zariski_space(3), 0)
    zf, zg = zariski.zelem_from_poly(u), zariski.zelem_from_poly(u * u + 1)
    jf, jg = zariski.jmap(zf + zg), zariski.jmap(zg)
    for a, b in ((f, g), (NuObject(space, {0: f, 2: g}), NuObject(space, {0: g, 1: f})),
                 (zf + zg, zg), (zariski.ZNu({0: zf, 1: zg}), zariski.ZNu({1: zg})), (jf, jg)):
        before = [(x, held(x)) for x in (a, b)]
        for got in (a + b, a - b, b - a, a + a, a.scale(1), a.scale(Fraction(1, 3)), -a):
            assert got._parts is not a._parts and got._parts is not b._parts
            if type(a) is not Poly and type(a) is not zariski.ZElem:
                shared = {id(r) for r in a._parts.values()} | {id(r) for r in b._parts.values()}
                assert not shared & {id(r) for r in got._parts.values()}
            assert all(held(x) == h for x, h in before), type(a).__name__
        assert (a + b) - b == a and a.scale(1) == a and -(-a) == a


def test_values_copy_and_pickle():
    import copy
    import pickle

    x1, x2, _ = xs()
    f = x1 * x1 * Fraction(-3, 4) + x2 + 5
    nu = NuObject(X3, {0: f, 2: x2 * 7, -1: Poly.const(X3, Fraction(1, 3))})
    for v in (f, nu, Poly.const(X3, 2), Poly.zero(X3), NuObject.zero(X3)):
        assert copy.copy(v) is v and copy.deepcopy(v) is v
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v)
        assert back == v and hash(back) == hash(v) and str(back) == str(v)
        assert back.space == v.space and back.den == v.den and back._parts == v._parts
    assert pickle.loads(pickle.dumps(f)).sort_key() == f.sort_key()


def _record_pairs():
    """(name, a, b): two records of one class built apart from equal fields,
    one pair per record class that callers build."""

    def twice(build):
        return build(), build()

    t = NuObject.one(QP), NuObject.zero(QP)
    return [
        ("VarSpace", qp_space(), poly.VarSpace(("q", "p"), ((0, 1),))),
        ("StarProduct", *twice(lambda: star.moyal_product(qp_space()))),
        ("TSeries", *twice(lambda: poly.TSeries(1, t))),
        ("SunProduct", *twice(sun.sun_su2)),
        ("DiffOpSeries", *twice(lambda: sun.weak_trivializer(2))),
        ("Factorization", *twice(lambda: factor.factorize(parse_expr("x1^2 - x2^2", X3)))),
        ("NambuBracket", *twice(lambda: nambu.canonical_bracket(3))),
        ("FockTruncation", *twice(lambda: weyl.FockTruncation(4, 0.5))),
    ]


def test_records_have_frozen_dataclass_semantics():
    import copy
    import pickle

    for name, a, b in _record_pairs():
        assert type(a).__name__ == name and a is not b
        assert a == b and not a != b and hash(a) == hash(b), name
        fields = tuple(getattr(a, f) for f in a._fields)
        # == holds within one class only: not against a tuple of the same
        # fields, nor against an instance of a subclass over the same fields
        other = type("Other", (type(a),), {"__slots__": ()})(*fields)
        assert a != fields and fields != a and a != other and other != a, name
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], fields[0])
        with pytest.raises(AttributeError):
            delattr(a, a._fields[0])
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        back = pickle.loads(pickle.dumps(a))
        assert type(back) is type(a) and back == a and hash(back) == hash(a), name
    space = qp_space()
    assert repr(space) == "VarSpace(names=('q', 'p'), pairs=((0, 1),))"
    assert repr(star.moyal_product(space)) == (
        "StarProduct(kind='moyal', space=VarSpace(names=('q', 'p'), pairs=((0, 1),)))")
    # the constructors validate as before
    with pytest.raises(InvalidArgumentError, match="variable name 'x' appears twice"):
        poly.VarSpace(("x", "x"))
    with pytest.raises(InvalidArgumentError, match="truncation needs dim >= 2"):
        weyl.FockTruncation(1)


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
