import itertools
import random
from fractions import Fraction

import pytest

from nambu_forge.poly import NuObject, Poly, VarSpace, _bump
from nambu_forge.star import star_mul
from nambu_forge.sun import USUAL_PRODUCT, a_closed_form, sun_lift
from nambu_forge.zariski import TaylorElem, ZElem, ZNu, zariski_space, zelem_from_poly


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


def fi_oracle(bracket, n: int, fs):
    """The Fundamental Identity residual written out for the n-ary callable
    ``bracket`` on fs = f1..f_{n-1}, g1..gn: the right side is summed first,
    from its k = 0 term, with each inner bracket put in place of g_k in a
    copy of the g list, and then taken from the left side in one
    subtraction: the oracle for nambu.fi_residual."""
    head, gs = list(fs[: n - 1]), list(fs[n - 1 :])
    lhs = bracket(*head, bracket(*gs))
    terms = []
    for k in range(n):
        args = list(gs)
        args[k] = bracket(*head, gs[k])
        terms.append(bracket(*args))
    return lhs - sum(terms[1:], terms[0])


def star_power(s, h: Poly, r: int) -> NuObject:
    """h * ... * h (r factors) folded from the left with star_mul: the oracle
    that znu_power_nu is held to, through zeta."""
    out = NuObject.one(s.space)
    for _ in range(r):
        out = star_mul(s, out, h)
    return out


def sum_oracle(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b entry by entry over coefficient maps ({key: Fraction} or
    {nu power: Poly}): the oracle for the value sums, which add integer
    entries over one denominator.  Entries that cancel stay as zeros."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + sign * v if k in out else sign * v
    return out


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
    c x^e of the classical part becomes c T(x^e as a multiset of coordinate
    factors) for the coordinate-monomial kind, and c q^a * p^b for the
    Moyal-standard split.  T, the star product symmetrized over every
    ordering, is the recursion T(S) = (1/|S|) sum over distinct u of
    mult(u) T(S - u) * u over star_mul itself (the orderings ending in u),
    memoized per sub-multiset of variable indices within the call."""
    space = sp.space
    f = x if isinstance(x, Poly) else x.classical()
    memo = {(): NuObject.one(space)}

    def symmetrized(factors: tuple) -> NuObject:
        got = memo.get(factors)
        if got is None:
            total = NuObject.zero(space)
            for i in sorted(set(factors)):
                rest = list(factors)
                rest.remove(i)
                u = Poly.variable(space, i)
                total = total + star_mul(sp.star, symmetrized(tuple(rest)), u) * factors.count(i)
            got = memo[factors] = total * Fraction(1, len(factors))
        return got

    out = NuObject.zero(space)
    for e, c in f.terms.items():
        if sp.alpha_kind == "moyal_standard_split":
            q, p = Poly.variable(space, 0), Poly.variable(space, 1)
            term = star_mul(sp.star, q ** e[0], p ** e[1])
        else:
            term = symmetrized(tuple(i for i, k in enumerate(e) for _ in range(k)))
        out = out + term * c
    return out


def apply_oracle(s, x) -> NuObject:
    """S(x) coefficient by coefficient, the oracle for sun.DiffOpSeries.apply:
    each homogeneous degree-m part of each nu^k coefficient of x gives
    a_closed_form(m, r) times its r-th Laplacian, built from Poly.diff, at
    nu^(k + 2r) for r = 0..min(s.r_max, m // 2)."""
    x = x if isinstance(x, NuObject) else NuObject.from_poly(x)
    out: dict = {}
    for k, p in x.coeffs.items():
        for m in {sum(e) for e in p.num}:
            part = Poly(p.space, {e: c for e, c in p.terms.items() if sum(e) == m})
            for r in range(min(s.r_max, m // 2) + 1):
                _bump(out, k + 2 * r, part * a_closed_form(m, r))
                part = sum((part.diff(i).diff(i) for i in range(p.space.nvars)), Poly.zero(p.space))
    return NuObject(s.space, out)


def mode_a_oracle(s, p1, p2, f: Poly, g: Poly, nu_order: int) -> NuObject:
    """The mode-A residual of sun.apply_equivalence as the double cochain sum
    over {nu: Poly} coefficients: sum nu^(r+s) S_s(rho_r(FG)) minus sum
    nu^(r+s+s') rho'_r(S_s(F) S_s'(G)), S from apply_oracle and the cochains
    rho_r of a sun product from sun_lift (rho_0 = id for the usual one)."""
    def cochains(prod, h: Poly) -> dict:
        return {0: h} if prod is USUAL_PRODUCT else sun_lift(prod, h).coeffs

    out: dict = {}
    for r, rho in cochains(p1, f * g).items():
        for ss, v in apply_oracle(s, rho).coeffs.items():
            _bump(out, r + ss, v)
    sg = apply_oracle(s, g).coeffs
    for ss, a in apply_oracle(s, f).coeffs.items():
        for tt, b in sg.items():
            for r, rho in cochains(p2, a * b).items():
                _bump(out, r + ss + tt, -rho)
    return NuObject(s.space, out).truncate(nu_order)


def weyl_normal_product(F: NuObject, G: NuObject) -> NuObject:
    """F * G in the Weyl algebra on one pair (q, p) with q p - p q = 2 nu, the
    oracle for the standard-ordering product: each monomial q^a p^b stands for
    the q-left word q...q p...p, the words of each pair of terms are joined,
    and every p q is rewritten to q p - 2 nu, one swap at a time, until the
    word is q-left again.  No derivative formula is used."""
    (iq, ip), = F.space.pairs
    pending: dict = {}  # {(word, nu power): coefficient}
    for k, f in F.coeffs.items():
        for l, g in G.coeffs.items():
            for (e1, c1), (e2, c2) in itertools.product(f.terms.items(), g.terms.items()):
                word = "q" * e1[iq] + "p" * e1[ip] + "q" * e2[iq] + "p" * e2[ip]
                pending[word, k + l] = pending.get((word, k + l), 0) + c1 * c2
    out: dict = {}
    while pending:
        rewritten: dict = {}
        for (word, k), c in pending.items():
            i = word.find("pq")
            if i < 0:
                e = [0] * F.space.nvars
                e[iq], e[ip] = word.count("q"), word.count("p")
                _bump(out, k, Poly(F.space, {tuple(e): c}))
                continue
            swapped, dropped = (word[:i] + "qp" + word[i + 2:], k), (word[:i] + word[i + 2:], k + 1)
            rewritten[swapped] = rewritten.get(swapped, 0) + c
            rewritten[dropped] = rewritten.get(dropped, 0) - 2 * c
        pending = rewritten
    return NuObject(F.space, out)


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
