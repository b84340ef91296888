import itertools
import random
from fractions import Fraction

import pytest

from nambu_forge.poly import NuObject, Poly, VarSpace
from nambu_forge.star import star_mul
from nambu_forge.zariski import eval_T


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


@pytest.fixture
def rng():
    return random.Random(20240817)
