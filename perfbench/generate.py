"""Seeded input generator for the nambu-forge benchmark.

It never imports the engine: polynomials are built as exponent -> Fraction
dicts, rendered to the engine's canonical expression text, and the
irreducible pools are certified with ``sympy.factor_list``.  The workload
process parses the text during its set-up, so the engine's caches are still
cold when timing starts, and the inputs do not change when the engine does.

Usage: python3 perfbench/generate.py WORKLOAD SEED  (writes JSON to stdout)
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

ZVARS = ("x1", "x2", "x3")
LVARS = ("L1", "L2", "L3")
QPVARS = ("q", "p")
COEFFS = (-3, -2, -1, 1, 2, 3)
UNITS = (-2, -1, 1, 2, 3)

# How many checks each workload gets.  A run stops early (and says so) if it
# uses them all before its time is up; the counts leave a wide margin.  Checks
# come in rounds ("round" in the inputs) that hold each kind of check once, and
# a run's timed phase ends only at the end of a round.
STAR_ROUNDS = 120
FACTOR_PRODUCTS = 1500
TAYLOR_CHECKS = 1500
SUN_CHECKS = 2000
CLI_ROUNDS = 400

FACTOR_POOL_PER_DEGREE = 40
FACTOR_MAX_DEGREE = 6
FACTOR_PATTERN = (1, 2, 3, 2, 3)  # factors per product, cycled
TAYLOR_POOL = 6
TAYLOR_SIZES = (2, 1, 1)  # Zariski factors per operand, in a seeded order


def grlex_key(e: tuple):
    return (sum(e), e)


def render(names: tuple, terms: dict) -> str:
    """Canonical text: graded-lex descending, as the engine renders it."""
    parts = []
    for e in sorted(terms, key=grlex_key, reverse=True):
        c = terms[e]
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        else:
            body = str(mag) if not mono else f"{mag}*{mono}"
        parts.append((c < 0, body))
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def normalized(terms: dict) -> dict:
    """Scale so the graded-lex leading coefficient is 1."""
    lead = terms[max(terms, key=grlex_key)]
    return {e: c / lead for e, c in terms.items()}


def random_terms(rng: random.Random, nvars: int, degree: int, nterms: int) -> dict:
    """Exactly ``nterms`` distinct monomials of total degree <= ``degree``,
    at least one of them of degree exactly ``degree``."""
    exps = set()
    top = [0] * nvars
    for _ in range(degree):
        top[rng.randrange(nvars)] += 1
    exps.add(tuple(top))
    while len(exps) < nterms:
        d = rng.randint(0, degree)
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        exps.add(tuple(e))
    return {e: Fraction(rng.choice(COEFFS)) for e in sorted(exps)}


def graded_terms(rng: random.Random, nvars: int, degrees: tuple) -> dict:
    """One monomial of each of the given (distinct) total degrees."""
    out = {}
    for d in degrees:
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        out[tuple(e)] = Fraction(rng.choice(COEFFS))
    return out


def _sympy_irreducible(names: tuple, terms: dict) -> bool:
    import sympy

    syms = sympy.symbols(names)
    expr = sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
          for e, c in terms.items())
    )
    _, factors = sympy.factor_list(expr, *syms)
    return len(factors) == 1 and factors[0][1] == 1


def pool_rng(workload: str) -> random.Random:
    """The irreducible pools are drawn once per workload, not per seed: the
    cost of these workloads depends so much on the pool that a pool per seed
    makes runs incomparable.  The seed chooses the work drawn from the pool."""
    return random.Random(f"{workload}:pool")


def irreducible_pool(rng: random.Random, degrees: tuple, per_degree: int) -> list:
    """Normalized irreducibles of each degree with 2-3 terms, certified by
    sympy and distinct."""
    pool = []
    seen = set()
    for d in degrees:
        got = 0
        while got < per_degree:
            terms = normalized(random_terms(rng, 3, d, rng.randint(2, 3)))
            key = tuple(sorted(terms.items()))
            if key in seen or not _sympy_irreducible(ZVARS, terms):
                continue
            seen.add(key)
            pool.append(terms)
            got += 1
    return pool


def gen_star_assoc(rng: random.Random) -> dict:
    """Operands of degree 3 with one term each of degree 3, 2 and 1: the cost
    of an su2 product grows steeply with the number of top-degree terms of
    its right factor, and letting that vary made su2 checks differ by 3x."""
    spaces = (("moyal", QPVARS), ("partial_moyal", ZVARS), ("standard_ordering", QPVARS),
              ("su2", LVARS))
    checks = []
    for _ in range(STAR_ROUNDS):
        for kind, names in spaces:
            fgh = [render(names, graded_terms(rng, len(names), (3, 2, 1))) for _ in range(3)]
            checks.append({"product": kind, "operands": fgh})
    return {"checks": checks, "round": len(spaces)}


def terms_json(terms: dict) -> list:
    return [[list(e), str(c)] for e, c in sorted(terms.items())]


def gen_factor_roundtrip(rng: random.Random) -> dict:
    """Distinct products of pool irreducibles.  Their factorization is known
    by construction and stored under "expected": the unit, and pool indices
    with multiplicities (the pool is normalized as the engine normalizes)."""
    pool = irreducible_pool(pool_rng("factor-roundtrip"), (1, 2, 3), FACTOR_POOL_PER_DEGREE)
    degree = [max(sum(e) for e in p) for p in pool]
    products = []
    expected = []
    seen = set()
    while len(products) < FACTOR_PRODUCTS:
        k = FACTOR_PATTERN[len(products) % len(FACTOR_PATTERN)]
        idx = sorted(rng.randrange(len(pool)) for _ in range(k))
        if sum(degree[i] for i in idx) > FACTOR_MAX_DEGREE:
            continue
        unit = rng.choice(UNITS)
        key = (tuple(idx), unit)
        if key in seen:
            continue
        seen.add(key)
        prod = {(0, 0, 0): Fraction(unit)}
        for i in idx:
            prod = mul(prod, pool[i])
        products.append(render(ZVARS, prod))
        expected.append({"unit": unit, "factors": [[i, idx.count(i)] for i in sorted(set(idx))]})
    return {"products": products, "expected": expected,
            "pool": [terms_json(p) for p in pool], "round": len(FACTOR_PATTERN)}


def gen_taylor_bracket(rng: random.Random) -> dict:
    pool = irreducible_pool(pool_rng("taylor-bracket"), (2,), TAYLOR_POOL)

    def operands(sizes: tuple) -> list:
        sizes = list(sizes)
        rng.shuffle(sizes)
        return [sorted(rng.randrange(len(pool)) for _ in range(k)) for k in sizes]

    checks = []
    kinds = ("commutative-associative", "antisymmetric", "fundamental-identity")
    for n in range(TAYLOR_CHECKS):
        kind = kinds[n % 3]
        sizes = (1,) * 5 if kind == "fundamental-identity" else TAYLOR_SIZES
        checks.append({"kind": kind, "operands": operands(sizes)})
    return {"pool": [render(ZVARS, p) for p in pool], "checks": checks, "round": len(kinds)}


def gen_sun_su2(rng: random.Random) -> dict:
    def poly(lo: int, hi: int, nterms: int = 3) -> str:
        return render(LVARS, random_terms(rng, 3, rng.randint(lo, hi), nterms))

    checks = []
    kinds = ("closed-form", "fundamental-identity", "weak-leibniz", "equivalence")
    for n in range(SUN_CHECKS):
        kind = kinds[n % 4]
        if kind == "closed-form":
            checks.append({"kind": kind, "operands": [poly(2, 4), poly(2, 4)]})
        elif kind == "fundamental-identity":
            checks.append({"kind": kind, "operands": [poly(2, 2) for _ in range(5)]})
        elif kind == "weak-leibniz":
            checks.append({"kind": kind, "operands": [poly(2, 2) for _ in range(3)],
                           "axis": rng.randrange(3)})
        else:
            checks.append({"kind": kind, "operands": [poly(2, 3), poly(2, 3)]})
    return {"checks": checks, "round": len(kinds)}


def gen_cli_mix(rng: random.Random) -> dict:
    """Every call once per round, in a seeded order; rounds alternate between
    text and JSON output."""
    from cli_calls import CALLS

    order = []
    for n in range(CLI_ROUNDS):
        cycle = list(range(len(CALLS)))
        rng.shuffle(cycle)
        order.extend([i, "text" if n % 2 == 0 else "json"] for i in cycle)
    return {"order": order, "round": len(CALLS)}


GENERATORS = {
    "star-assoc": gen_star_assoc,
    "factor-roundtrip": gen_factor_roundtrip,
    "taylor-bracket": gen_taylor_bracket,
    "sun-su2": gen_sun_su2,
    "cli-mix": gen_cli_mix,
}


def generate(workload: str, seed: int) -> str:
    """The inputs of one run as canonical JSON text (byte-stable per seed)."""
    rng = random.Random(f"{workload}:{seed}")
    doc = {"workload": workload, "seed": seed, **GENERATORS[workload](rng)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2])))
