"""Checks of ``factorize`` results that do not trust the engine.

Every product was built from sympy-certified irreducibles, so its
factorization is known by construction: each result must have the generated
unit and exactly the generated factors (as exponent -> coefficient maps), with
their multiplicities.  A sample of the results is also compared with
``sympy.factor_list``: factors up to rational scaling, with multiplicities,
and unit times factors must expand to the input.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

SYMPY_SAMPLE = 40


def _terms(pairs: list) -> frozenset:
    return frozenset((tuple(e), Fraction(c)) for e, c in pairs)


def check_by_construction(results: list, doc: dict) -> list:
    pool = [_terms(p) for p in doc["pool"]]
    failures = []
    for r, want in zip(results, doc["expected"]):
        got = Counter((_terms(g), m) for g, m in r["factors"])
        expected = Counter({(pool[i], m): 1 for i, m in want["factors"]})
        if Fraction(r["unit"]) != want["unit"] or got != expected:
            failures.append(f"{r['input']}: factorization differs from the generated one")
    return failures


def check_with_sympy(results: list) -> list:
    import sympy

    syms = sympy.symbols("x1 x2 x3")

    def expr(pairs: list):
        return sympy.Add(*(sympy.Rational(c) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
                           for e, c in pairs))

    def canonical(e, m: int):
        return (str(sympy.Poly(e, *syms).monic().as_expr()), m)

    names = {str(s): s for s in syms}
    failures = []
    step = max(1, len(results) // SYMPY_SAMPLE)
    for r in results[::step][:SYMPY_SAMPLE]:
        f = sympy.sympify(r["input"].replace("^", "**"), locals=names)
        factors = [(expr(g), m) for g, m in r["factors"]]
        product = sympy.Rational(r["unit"]) * sympy.Mul(*(g**m for g, m in factors))
        if sympy.expand(product - f) != 0:
            failures.append(f"{r['input']}: unit times factors does not expand to the input")
            continue
        _, ref = sympy.factor_list(f, *syms)
        if Counter(canonical(g, m) for g, m in factors) != Counter(canonical(g, m) for g, m in ref):
            failures.append(f"{r['input']}: factors differ from sympy.factor_list")
    return failures


def check_factorizations(results: list, doc: dict) -> list:
    """Descriptions of the results that fail; empty when all agree."""
    return check_by_construction(results, doc) + check_with_sympy(results)
