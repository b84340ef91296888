import itertools
import random
from fractions import Fraction

import pytest

from nambu_forge.poly import NuObject, Poly, VarSpace, _bump
from nambu_forge.star import star_mul
from nambu_forge.zariski import TaylorElem, ZElem, ZNu, eval_T, zariski_space, zelem_from_poly


def random_poly(space: VarSpace, rng: random.Random, degree: int = 2, terms: int = 3) -> Poly:
    """Small random polynomial with coefficients in [-3, 3] \\ {0}."""
    out = {}
    for _ in range(terms):
        e = [rng.randint(0, degree) for _ in range(space.nvars)]
        while sum(e) > degree:
            e[e.index(max(e))] -= 1
        out[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(space, out)


def compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``, in
    lexicographic order: each choice of parts - 1 bar positions among
    total + parts - 1 slots, taken in order, is one composition."""
    end = (total + parts - 1,)
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))


def det_oracle(fs, idx) -> Poly:
    """Determinant of the matrix of partials d f_i / d x_{idx[j]} as the
    Leibniz sum over permutations of Fraction-coefficient Poly products, the
    sign read off from the inversion count: the oracle for poly.jacobian_det."""
    space = fs[0].space
    total = Poly.zero(space)
    for perm in itertools.permutations(range(len(fs))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Poly.const(space, (-1) ** inversions)
        for f, j in zip(fs, perm):
            term = term * f.diff(idx[j])
        total = total + term
    return total


def mul_oracle(f: Poly, g: Poly) -> Poly:
    """f * g as the double loop over Fraction coefficients: the oracle for
    Poly.__mul__, which multiplies integer numerators over one denominator."""
    out: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            _bump(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return Poly(f.space, out)


def brute_sun_lift(sp, x) -> NuObject:
    """The sun lift by brute force, the oracle for sun.sun_lift: each monomial
    c x^e of the classical part becomes c eval_T(x^e as a multiset of
    coordinate factors) for the coordinate-monomial kind, and c q^a * p^b for
    the Moyal-standard split."""
    space = sp.space
    f = x if isinstance(x, Poly) else x.classical()
    out = NuObject.zero(space)
    for e, c in f.terms.items():
        if sp.alpha_kind == "moyal_standard_split":
            q, p = Poly.variable(space, 0), Poly.variable(space, 1)
            term = star_mul(sp.star, q ** e[0], p ** e[1])
        else:
            factors = [Poly.variable(space, i) for i, k in enumerate(e) for _ in range(k)]
            term = eval_T(factors, sp.star)
        out = out + term * c
    return out


def taylor_elem(space: VarSpace, coeffs: dict, in_a: bool = False) -> TaylorElem:
    """The TaylorElem with ZNu coefficient coeffs[e] at y^e, built from its
    flat terms {e + (nu power,): ZElem}."""
    return TaylorElem(space, {e + (r,): z for e, x in coeffs.items() for r, z in x.coeffs.items()},
                      in_a=in_a)


def jmap_oracle(z: ZElem, space: VarSpace = None) -> TaylorElem:
    """J(z) = sum_I y^I / I! Z_{d^I u} by the per-derivative recursion, each
    term c Z_m of z expanded on its own with c carried down: the oracle for
    zariski.jmap, which scales one cached image per Z-monomial."""
    if space is None:
        space = zariski_space(3)
    n = space.nvars
    rows: dict = {}

    def accumulate(u: Poly, c: Fraction, e: tuple, fact: int, start: int):
        row = rows.setdefault(e, {})
        scale = Fraction(c, fact)
        for m, v in zelem_from_poly(u).terms.items():
            _bump(row, m, v * scale)
        for i in range(start, n):
            d = u.diff(i)
            if d.is_zero():
                continue
            e2 = list(e)
            e2[i] += 1
            accumulate(d, c, tuple(e2), fact * e2[i], i)

    for mono, c in z.terms.items():
        accumulate(mono.product_poly(space), c, (0,) * n, 1, 0)
    return taylor_elem(space, {e: ZNu.from_zelem(ZElem(row)) for e, row in rows.items()}, in_a=True)


def fractions_built(monkeypatch, call) -> tuple:
    """(result of call(), number of Fractions constructed while it ran)."""
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(1)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    out = call()
    monkeypatch.undo()
    return out, len(built)


@pytest.fixture
def rng():
    return random.Random(20240817)
