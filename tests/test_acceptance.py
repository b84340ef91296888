"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import numpy as np

from nambu_forge import nambu as nambu_mod
from nambu_forge import sun as sun_mod
from nambu_forge import weyl as weyl_mod
from nambu_forge import zariski as zmod
from nambu_forge.expr import parse_expr, render
from nambu_forge.factor import factorize, is_irreducible, normalize
from nambu_forge.poly import NuObject, Poly, qp_space, su2_space
from nambu_forge.star import (
    moyal_product,
    partial_moyal_product,
    standard_ordering_product,
    star_exponential,
    star_mul,
    su2_product,
)

from conftest import brute_sun_lift, random_poly, star_power

GOLDEN = pathlib.Path(__file__).parent / "golden"
SP3 = zmod.zariski_space(3)
ST3 = zmod.zariski_star(3)
L = su2_space()
QP = qp_space()


class budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"{self.name} PASS ({elapsed:.1f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"
        else:
            print(f"{self.name} FAIL ({elapsed:.1f}s)")
        return False


def _irreducible_pool(rng, degree, count, space=SP3):
    pool = []
    while len(pool) < count:
        p = random_poly(space, rng, degree=degree, terms=rng.randint(2, 3))
        if p.is_zero() or p.is_constant():
            continue
        if is_irreducible(p):
            pool.append(normalize(p)[1])
    return pool


def test_ac01_fundamental_identity_canonical():
    rng = random.Random(101)
    with budget("AC-1", 30):
        for n in (2, 3, 4):
            bracket = nambu_mod.canonical_bracket(n)
            for _ in range(100):
                fs = [random_poly(bracket.space, rng, degree=2) for _ in range(2 * n - 1)]
                assert nambu_mod.check_fi(bracket, fs).is_zero()


def test_ac02_linear_bracket_identities():
    rng = random.Random(102)
    bracket = nambu_mod.linear_bracket(3)
    with budget("AC-2", 30):
        for _ in range(50):
            f, g, h, e = (random_poly(bracket.space, rng, degree=2) for _ in range(4))
            assert nambu_mod.bracket_eval(bracket, [f, g, h]) == -nambu_mod.bracket_eval(
                bracket, [g, f, h]
            )
            lhs = nambu_mod.bracket_eval(bracket, [f * g, h, e])
            rhs = f * nambu_mod.bracket_eval(bracket, [g, h, e]) + nambu_mod.bracket_eval(
                bracket, [f, h, e]
            ) * g
            assert lhs == rhs
            fs = [random_poly(bracket.space, rng, degree=2) for _ in range(5)]
            assert nambu_mod.check_fi(bracket, fs).is_zero()


def test_ac03_star_associativity():
    rng = random.Random(103)
    products = [
        moyal_product(QP),
        partial_moyal_product(SP3),
        standard_ordering_product(QP),
        su2_product(),
    ]
    with budget("AC-3", 60):
        for product in products:
            for _ in range(50):
                f, g, h = (
                    random_poly(product.space, rng, degree=3, terms=3) for _ in range(3)
                )
                lhs = star_mul(product, star_mul(product, f, g), h)
                rhs = star_mul(product, f, star_mul(product, g, h))
                assert lhs == rhs


def test_ac04_su2_structure():
    SU = su2_product()
    eps = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1),
           (1, 0): (2, -1), (2, 1): (0, -1), (0, 2): (1, -1)}
    with budget("AC-4", 1):
        from nambu_forge.star import star_commutator

        for i in range(3):
            for j in range(3):
                li, lj = Poly.variable(L, i), Poly.variable(L, j)
                expected = {0: li * lj}
                if i == j:
                    expected[2] = Poly.const(L, 2)
                else:
                    k, s = eps[(i, j)]
                    expected[1] = Poly.variable(L, k) * s
                assert star_mul(SU, li, lj) == NuObject(L, expected)
                comm = star_commutator(SU, li, lj)
                if i == j:
                    assert comm.is_zero()
                else:
                    k, s = eps[(i, j)]
                    assert comm == NuObject.from_poly(Poly.variable(L, k) * s)


def test_ac05_sun_diagonal():
    SU = sun_mod.sun_su2()
    with budget("AC-5", 1):
        for i in range(3):
            for j in range(3):
                li, lj = Poly.variable(L, i), Poly.variable(L, j)
                expected = {0: li * lj}
                if i == j:
                    expected[2] = Poly.const(L, 2)
                assert sun_mod.sun_mul(SU, li, lj) == NuObject(L, expected)


def test_ac06_closed_form_theorem():
    SU = sun_mod.sun_su2()
    monos = [
        (a, b, c)
        for a in range(5)
        for b in range(5 - a)
        for c in range(5 - a - b)
    ]
    with budget("AC-6", 300):
        checked = 0
        for m1 in monos:
            for m2 in monos:
                if sum(m1) + sum(m2) > 4:
                    continue
                f, g = Poly.monomial(L, m1), Poly.monomial(L, m2)
                expect = brute_sun_lift(SU, f * g)
                assert sun_mod.sun_closed_form(f, g) == expect, (m1, m2)
                assert sun_mod.sun_mul(SU, f, g) == expect, (m1, m2)
                checked += 1
        assert checked == 210


def test_ac07_coefficient_tables():
    with budget("AC-7", 5):
        table = sun_mod.sun_coefficients(10, 5)
        assert table.agree()
        assert table.recursion[(2, 1)] == 1
        assert table.closed[(2, 1)] == 1


def test_ac08_deformed_zariski_algebra():
    rng = random.Random(108)
    pool = _irreducible_pool(rng, 2, 10)

    def rand_zelem():
        out = zmod.ZElem.zero()
        for _ in range(rng.randint(1, 2)):
            factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            out = out + zmod.ZElem.basis(
                zmod.ZMonomial(factors, trusted=True),
                Fraction(rng.choice([-2, -1, 1, 2])),
            )
        return out

    with budget("AC-8", 120):
        elems = [rand_zelem() for _ in range(50)]
        for idx in range(50):
            a = elems[idx]
            b = elems[(idx + 1) % 50]
            c = elems[(idx + 2) % 50]
            ab = zmod.z_mul_nu(a, b, ST3)
            assert ab == zmod.z_mul_nu(b, a, ST3)
            assert zmod.z_mul_nu(ab, c, ST3) == zmod.z_mul_nu(a, zmod.z_mul_nu(b, c, ST3), ST3)
            assert ab.classical() == zmod.z_mul_classical(a, b)


def test_ac09_frobenius_failure_and_commuting_repair():
    rng = random.Random(109)
    with budget("AC-9", 120):
        witness = zmod.frobenius_counterexample_search(4)
        assert witness is not None
        assert witness.verify()
        assert witness.u.total_degree() <= 4
        golden = json.loads((GOLDEN / "frobenius_witness.json").read_text())
        assert str(witness.u) == golden["witness_u"]
        pool = _irreducible_pool(rng, 2, 8)
        for idx in range(50):
            factors = [pool[idx % len(pool)], pool[(idx * 3 + 1) % len(pool)]]
            a = zmod.jmap(zmod.ZElem.basis(zmod.ZMonomial(factors, trusted=True)))
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert zmod.delta_y(i, zmod.delta_y(j, a)) == zmod.delta_y(
                        j, zmod.delta_y(i, a)
                    )


def test_ac10_taylor_algebra_deformation():
    rng = random.Random(110)
    pool = _irreducible_pool(rng, 2, 8)

    def rand_jimage():
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        return zmod.jmap(zmod.ZElem.basis(zmod.ZMonomial(factors, trusted=True)))

    def bracket(a, b, c):
        return zmod.quantum_nambu(a, b, c, ST3)

    with budget("AC-10", 600):
        for _ in range(10):
            a, b, c = rand_jimage(), rand_jimage(), rand_jimage()
            ab = zmod.a_mul_nu(a, b, ST3)
            assert ab == zmod.a_mul_nu(b, a, ST3)
            assert zmod.a_mul_nu(ab, c, ST3) == zmod.a_mul_nu(a, zmod.a_mul_nu(b, c, ST3), ST3)
        for _ in range(25):
            a, b, c = rand_jimage(), rand_jimage(), rand_jimage()
            assert bracket(a, b, c) == -bracket(b, a, c)
            assert bracket(a, a, c).is_zero()
        for _ in range(25):
            fs = [zmod.jmap(zmod.ZElem.basis(zmod.ZMonomial([rng.choice(pool)], trusted=True)))
                  for _ in range(5)]
            lhs = bracket(fs[0], fs[1], bracket(fs[2], fs[3], fs[4]))
            rhs = zmod.TaylorElem.zero(SP3)
            for k in range(3):
                inner = bracket(fs[0], fs[1], fs[2 + k])
                args = fs[2:]
                args[k] = inner
                rhs = rhs + bracket(args[0], args[1], args[2])
            assert (lhs - rhs).is_zero()


def test_ac11_power_coincidence():
    x1, x2 = Poly.variable(SP3, 0), Poly.variable(SP3, 1)
    h = x1 * x1 + x2 * x2
    zh = zmod.zelem_from_poly(h)
    with budget("AC-11", 30):
        for m in range(1, 5):
            assert zmod.znu_power_nu(zh, m, ST3) == zmod.zeta(star_power(ST3, h, m))


def test_ac12_quantized_bracket_via_sun():
    rng = random.Random(112)
    SU = sun_mod.sun_su2()
    with budget("AC-12", 300):
        for _ in range(50):
            fs = [random_poly(L, rng, degree=2, terms=3) for _ in range(5)]
            assert sun_mod.fi_residual_sun(SU, fs).is_zero()
        for _ in range(25):
            f, g, h = (random_poly(L, rng, degree=2, terms=3) for _ in range(3))
            axis = rng.randrange(3)
            assert sun_mod.weak_leibniz_residual(SU, f, g, h, axis).is_zero()


def test_ac13_triviality():
    rng = random.Random(113)
    SU = sun_mod.sun_su2()
    with budget("AC-13", 60):
        s = sun_mod.weak_trivializer(3)
        for _ in range(10):
            f = random_poly(L, rng, degree=3, terms=3)
            g = random_poly(L, rng, degree=3, terms=3)
            residual = sun_mod.apply_equivalence(
                s, "B", sun_mod.USUAL_PRODUCT, SU, f, g, 6
            )
            assert residual.is_zero()
            # S(FG) = F sun G up to nu^6, the sun product by brute force
            assert s.apply(f * g).truncate(6) == brute_sun_lift(SU, f * g).truncate(6)
        L3 = Poly.variable(L, 2)
        diff = sun_mod.sun_mul(SU, L3, L3) - NuObject.from_poly(L3 * L3)
        assert diff == NuObject(L, {2: Poly.const(L, 2)})


def test_ac14_weyl_oracle():
    q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
    with budget("AC-14", 30):
        trunc = weyl_mod.FockTruncation(40, 1.0)
        values = weyl_mod.ho_spectrum(trunc, 5)
        assert max(abs(v - (n + 0.5)) for n, v in enumerate(values)) < 1e-9
        pairs = [(q, p), (q * q, p * p), (q * q * p, p), (q * p, q * p), (q**2 * p**2, q)]
        for f, g in pairs:
            assert weyl_mod.star_vs_operator(f, g, trunc, 12) < 1e-9, (str(f), str(g))
        h = (q * q + p * p) * Fraction(1, 2)
        series = star_exponential(moyal_product(QP), h, 6)
        assert weyl_mod.star_exponential_deviation(series, h, trunc, 12) < 1e-8


def test_ac15_dynamics_conservation():
    with budget("AC-15", 30):
        d = nambu_mod.euler_top_dynamics((1, 2, 3), (1.0, 1.0, 1.0))
        res = nambu_mod.evolve(d, 10.0, 1e-3)
        assert res.divergence_zero
        assert all(drift < 1e-8 for drift in res.max_relative_drift)
        d = nambu_mod.nahm_dynamics()
        res = nambu_mod.evolve(d, 1.0, 1e-3)
        assert res.divergence_zero
        assert all(drift < 1e-8 for drift in res.max_relative_drift)


def test_ac16_factorization_round_trip():
    rng = random.Random(116)
    pool = _irreducible_pool(rng, 3, 25)
    with budget("AC-16", 120):
        for _ in range(500):
            k = rng.randint(1, 3)
            prod = Poly.const(SP3, Fraction(rng.choice([-2, -1, 1, 2, 3])))
            for _ in range(k):
                prod = prod * rng.choice(pool)
            assert factorize(prod).expand() == prod


def test_ac17_parser_round_trip():
    rng = random.Random(117)
    pool = _irreducible_pool(random.Random(1170), 2, 6)
    with budget("AC-17", 10):
        values = []
        for _ in range(500):
            values.append(random_poly(SP3, rng, degree=3, terms=rng.randint(1, 5)))
        for _ in range(300):
            values.append(
                NuObject(
                    QP,
                    {
                        0: random_poly(QP, rng, degree=2, terms=3),
                        rng.randint(1, 4): random_poly(QP, rng, degree=2, terms=2),
                    },
                )
            )
        for _ in range(200):
            out = zmod.ZElem.zero()
            for _ in range(rng.randint(1, 3)):
                factors = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
                out = out + zmod.ZElem.basis(
                    zmod.ZMonomial(factors, trusted=True),
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
                )
            values.append(out)
        assert len(values) == 1000
        for value in values:
            text = render(value)
            space = QP if getattr(value, "space", None) == QP else SP3
            assert render(parse_expr(text, space)) == text
