"""Factorization of multivariate rational polynomials into irreducibles.

Pipeline: the input is scaled to a primitive integer polynomial on the
variables it uses and monomial content comes out.  Several variables: the
content in a main variable x divides lc_x, which is factored recursively in
fewer variables; the other variables are evaluated at seeded small integers,
the image is factored as below, and subsets of the image factors are
Hensel-lifted back over all evaluated variables at once and confirmed by
exact trial division (Wang's method, with lc_x imposed on both sides).
Univariate integer factorization is classic Zassenhaus: squarefree part via
a primitive PRS gcd, distinct-degree and equal-degree splitting modulo a
small odd prime, quadratic Hensel lifting to a power of p beyond the
Mignotte bound, then subset recombination with exact trial division.

Irreducibility here means irreducibility over the rationals.  Real
irreducibles of degree 2 such as x^2 - 2 would split further over R; every
construction in this package only relies on polynomials whose rational and
real factorizations agree.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm, perm

from .errors import InvalidArgumentError, ResourceLimitError
from .poly import Poly, VarSpace, grlex_key

__all__ = ["Factorization", "normalize", "factorize", "is_irreducible", "DEFAULT_DEGREE_BOUND"]

DEFAULT_DEGREE_BOUND = 12

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


# ---------------------------------------------------------------------------
# Dense univariate helpers.  Polynomials are lists of ints, low degree first,
# normalized so the last entry is nonzero ([] is the zero polynomial).


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _deg(a: list) -> int:
    return len(a) - 1


def _zz_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _zz_content(a: list) -> int:
    c = 0
    for x in a:
        c = gcd(c, x)
    return c


def _zz_primitive(a: list) -> list:
    c = _zz_content(a)
    if c in (0, 1):
        return list(a)
    return [x // c for x in a]


def _zz_diff(a: list) -> list:
    return _trim([i * a[i] for i in range(1, len(a))])


def _zz_pseudo_rem(a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b, all over the integers."""
    r = list(a)
    lb = b[-1]
    db = _deg(b)
    while _deg(r) >= db and r:
        lead = r[-1]
        shift = _deg(r) - db
        r = [c * lb for c in r]
        for i, cb in enumerate(b):
            r[shift + i] -= lead * cb
        _trim(r)
    return r


def _zz_gcd(a: list, b: list) -> list:
    """Primitive-PRS gcd; result primitive with positive leading coefficient."""
    a, b = _zz_primitive(_trim(list(a))), _zz_primitive(_trim(list(b)))
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if _deg(a) < _deg(b):
            a, b = b, a
        while b:
            r = _zz_primitive(_zz_pseudo_rem(a, b))
            a, b = b, r
        g = a
    g = _zz_primitive(g)
    if g and g[-1] < 0:
        g = [-c for c in g]
    return g


def _zz_div_exact(a: list, b: list) -> list | None:
    """Quotient a/b over Z when it exists, else None.

    For primitive operands divisibility over Q forces an integer quotient, so
    a non-integer step or runaway coefficient growth rejects immediately.
    """
    r = _trim(list(a))
    db = _deg(b)
    if not r:
        return []
    if _deg(r) < db:
        return None
    lb = b[-1]
    q = [0] * (len(r) - len(b) + 1)
    # a true quotient never exceeds the factor coefficient bound; anything
    # growing far past the dividend is a failing division
    limit = max(abs(c) for c in r).bit_length() + len(r) + 16
    while r and _deg(r) >= db:
        c, rem = divmod(r[-1], lb)
        if rem or c.bit_length() > limit:
            return None
        shift = _deg(r) - db
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] -= c * cb
        _trim(r)
    return None if r else q


# ---------------------------------------------------------------------------
# Arithmetic modulo an integer m: a small prime, a prime power for the lifting
# stage, or a large prime for the multivariate lift.


def _zp_mul(a: list, b: list, m: int) -> list:
    if len(a) * len(b) <= 64:
        return _zp_norm(_zz_mul(a, b), m)
    # pack the coefficients into one big integer so CPython's fast multiply
    # performs the convolution; byte-aligned digits leave room for its sums
    width = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length() + 1
    nbytes = (width + 7) // 8
    pa = int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in b), "little")
    raw = (pa * pb).to_bytes((len(a) + len(b)) * nbytes, "little")
    out = [
        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") % m
        for i in range(len(a) + len(b) - 1)
    ]
    return _trim(out)


def _zp_norm(a: list, m: int) -> list:
    return _trim([c % m for c in a])


def _zp_add(a: list, b: list, m: int) -> list:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _zp_sub(a: list, b: list, m: int) -> list:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _zp_divmod(a: list, b: list, m: int) -> tuple:
    """Quotient and remainder modulo m; lc(b) must be a unit mod m."""
    inv = pow(b[-1], -1, m)
    r = list(a)
    db = _deg(b)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while r and _deg(r) >= db:
        c = (r[-1] * inv) % m
        shift = _deg(r) - db
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] = (r[shift + i] - c * cb) % m
        _trim(r)
    return _trim(q), _trim(r)


def _zp_monic(a: list, p: int) -> list:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _zp_gcd(a: list, b: list, p: int) -> list:
    a, b = _zp_norm(a, p), _zp_norm(b, p)
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p)


# ---------------------------------------------------------------------------
# Factorization modulo p of a monic squarefree polynomial.


def _zp_powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e modulo f and p."""
    result, base = [1], _zp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _zp_divmod(_zp_mul(result, base, p), f, p)[1]
        base = _zp_divmod(_zp_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _distinct_degree(f: list, p: int) -> list:
    """Split monic squarefree f mod p into (degree, product-of-factors) parts."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= _deg(f):
        d += 1
        h = _zp_powmod(h, p, f, p)
        g = _zp_gcd(_zp_sub(h, [0, 1], p), f, p)
        if _deg(g) > 0:
            out.append((d, g))
            f = _zp_divmod(f, g, p)[0]
            h = _zp_divmod(h, f, p)[1]
    if _deg(f) > 0:
        out.append((_deg(f), f))
    return out


def _equal_degree(f: list, d: int, p: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles mod p."""
    n = _deg(f)
    if n == d:
        return [f]
    exp = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _trim(r)
        if _deg(r) < 1:
            continue
        b = _zp_powmod(r, exp, f, p)
        g = _zp_gcd(_zp_sub(b, [1], p), f, p)
        if 0 < _deg(g) < n:
            rest = _zp_divmod(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Quadratic Hensel lifting (two factors plus Bezout data, then a binary tree).


def _bezout_mod_p(g: list, h: list, p: int) -> tuple | None:
    """s, t with s*g + t*h = 1 mod p, deg s < deg h, deg t < deg g; None
    when g and h are not coprime mod p."""
    r0, r1 = _zp_norm(g, p), _zp_norm(h, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        t0, t1 = t1, _zp_sub(t0, _zp_mul(q, t1, p), p)
    if _deg(r0) > 0:
        return None
    inv = pow(r0[0], -1, p)
    s = [(c * inv) % p for c in s0]
    t = [(c * inv) % p for c in t0]
    s = _zp_divmod(s, h, p)[1]
    num = _zp_sub([1], _zp_mul(s, g, p), p)
    t = _zp_divmod(num, h, p)[0]
    return s, t


def _hensel_step(m, f, g, h, s, t):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m), h monic, to modulus m^2."""
    mm = m * m
    e = _zp_sub(_zp_norm(f, mm), _zp_mul(g, h, mm), mm)
    q, r = _zp_divmod(_zp_mul(s, e, mm), h, mm)
    g1 = _zp_add(g, _zp_add(_zp_mul(t, e, mm), _zp_mul(q, g, mm), mm), mm)
    h1 = _zp_add(h, r, mm)
    b = _zp_sub(_zp_add(_zp_mul(s, g1, mm), _zp_mul(t, h1, mm), mm), [1], mm)
    c, d = _zp_divmod(_zp_mul(s, b, mm), h1, mm)
    s1 = _zp_sub(s, d, mm)
    t1 = _zp_sub(t, _zp_add(_zp_mul(t, b, mm), _zp_mul(c, g1, mm), mm), mm)
    return g1, h1, s1, t1


def _hensel_lift_list(f: list, factors: list, p: int, target: int) -> list:
    """Lift monic pairwise-coprime factors with f = lc(f) f_1 ... f_r (mod p)
    to the same congruence mod ``target`` = p^(2^j); the leading coefficient
    rides along in the left half of each split."""
    if len(factors) == 1:
        inv = pow(f[-1] % target, -1, target)
        return [_zp_norm([c * inv for c in f], target)]
    mid = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:mid]:
        g = _zp_mul(g, u, p)
    h = [1]
    for u in factors[mid:]:
        h = _zp_mul(h, u, p)
    s, t = _bezout_mod_p(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    g, h = _zp_norm(g, target), _zp_norm(h, target)
    return _hensel_lift_list(g, factors[:mid], p, target) + _hensel_lift_list(
        h, factors[mid:], p, target
    )


def _sym(a: list, m: int) -> list:
    half = m // 2
    return _trim([c - m if c > half else c for c in a])


# ---------------------------------------------------------------------------
# Zassenhaus for a monic squarefree integer polynomial.


def _pick_prime(f: list) -> tuple:
    """Choose a prime with squarefree reduction and few modular factors.

    Candidates are compared by factor count alone, which the distinct-degree
    pieces give without running the equal-degree splitting.
    """
    found = []
    for p in _SMALL_PRIMES:
        fp = _zp_norm(f, p)
        if _deg(fp) != _deg(f):
            continue
        if _deg(_zp_gcd(fp, _zp_norm(_zz_diff(f), p), p)) != 0:
            continue
        pieces = _distinct_degree(_zp_monic(fp, p), p)
        count = sum(_deg(part) // d for d, part in pieces)
        found.append((count, p, pieces))
        if count <= 9 or len(found) >= 2:
            break
    if not found:
        raise ResourceLimitError("no suitable small prime for modular factorization")
    found.sort(key=lambda item: item[0])
    count, p, pieces = found[0]
    rng = random.Random(0x5EED ^ (p * 7919) ^ _deg(f))
    return p, sorted(u for d, part in pieces for u in _equal_degree(part, d, p, rng))


def _primitive_pos(a: list) -> list:
    a = _zz_primitive(a)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _factor_squarefree_zz(f: list) -> list:
    """Zassenhaus for a primitive squarefree integer polynomial, lc > 0."""
    n = _deg(f)
    if n == 1:
        return [list(f)]
    p, modular = _pick_prime(f)
    if len(modular) == 1:
        return [list(f)]
    lc = f[-1]
    # factor-coefficient bound times (n + 2) so candidate values at 0 and 1
    # also stay inside the symmetric range of the lifted modulus
    bound = (1 << n) * (isqrt(sum(c * c for c in f)) + 1) * lc * (n + 2)
    target = p
    while target < 2 * bound + 1:
        target = target * target
    lifted = _hensel_lift_list(_zp_norm(f, target), modular, p, target)
    result = []
    remaining = list(lifted)
    fcur = list(f)
    half = target // 2

    def _scalar_ok(value_mod, reference):
        # symmetric representative of the candidate's value at a point must
        # divide the corresponding value of lc * fcur; kills most subsets
        # before any polynomial product is formed
        v = value_mod - target if value_mod > half else value_mod
        if v == 0:
            return reference == 0
        return reference % v == 0

    size = 1
    while 2 * size <= len(remaining):
        found = False
        at0 = [w[0] % target for w in remaining]
        at1 = [sum(w) % target for w in remaining]
        lc_cur = fcur[-1]
        f_at0 = fcur[0] * lc_cur
        f_at1 = sum(fcur) * lc_cur
        for combo in itertools.combinations(range(len(remaining)), size):
            c0 = lc_cur % target
            c1 = c0
            for i in combo:
                c0 = (c0 * at0[i]) % target
                c1 = (c1 * at1[i]) % target
            if not _scalar_ok(c0, f_at0) or not _scalar_ok(c1, f_at1):
                continue
            prod = [lc_cur % target]
            for i in combo:
                prod = _zp_mul(prod, remaining[i], target)
            cand = _primitive_pos(_sym(prod, target))
            q = _zz_div_exact(fcur, cand)
            if q is not None:
                result.append(cand)
                fcur = q
                remaining = [u for i, u in enumerate(remaining) if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if _deg(fcur) > 0:
        result.append(_primitive_pos(fcur))
    return result


def _factor_univariate_int(f: list) -> list:
    """Irreducible factors with multiplicity of a primitive integer polynomial.

    Returns a list of (primitive positive-lc factor, multiplicity); the input
    sign is the caller's business.
    """
    f = _primitive_pos(_trim(list(f)))
    out = []
    k = 0
    while f and f[0] == 0:
        f = f[1:]
        k += 1
    if k:
        out.append(([0, 1], k))
    if _deg(f) < 1:
        return out
    if _deg(f) == 1:
        out.append((f, 1))
        return out
    # a squarefree reduction modulo any good prime certifies squarefreeness
    # over Z, skipping the expensive integer PRS gcd in the common case
    w = None
    df = _zz_diff(f)
    for p in _SMALL_PRIMES[:4]:
        fp = _zp_norm(f, p)
        if _deg(fp) != _deg(f):
            continue
        if _deg(_zp_gcd(fp, _zp_norm(df, p), p)) == 0:
            w = list(f)
            break
    if w is None:
        sqf = _zz_gcd(f, df)
        w = _primitive_pos(_zz_div_exact(f, sqf))
    for g in sorted(_factor_squarefree_zz(w)):
        mult = 0
        while True:
            q = _zz_div_exact(f, g)
            if q is None:
                break
            f = q
            mult += 1
        out.append((g, mult))
    return out


# ---------------------------------------------------------------------------
# Multivariate layer.  An integer polynomial is a term map {exponent tuple:
# int}.  One variable is the main variable x, the others are evaluated at
# small integers, the univariate image is factored, and image factors are
# Hensel-lifted back to factors of the polynomial.


def _divide_terms(r: dict, g: dict) -> dict | None:
    """Quotient r/g of term maps when the division is exact, else None.

    Graded-lex division of integer term maps that consumes ``r`` as the
    remainder; every quotient coefficient must divide over Z.
    """
    glm = max(g, key=grlex_key)
    glc = g[glm]
    tail = [(e, c) for e, c in g.items() if e != glm]
    q = {}
    while r:
        lm = max(r, key=grlex_key)
        d = tuple(map(int.__sub__, lm, glm))
        if min(d) < 0:
            return None
        c, rem = divmod(r.pop(lm), glc)
        if rem:
            return None
        q[d] = c
        for e, gc in tail:
            m = tuple(map(int.__add__, d, e))
            s = r.get(m, 0) - c * gc
            if s:
                r[m] = s
            else:
                del r[m]
    return q


def _t_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(int.__add__, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _t_shift(f: dict, a: list) -> dict:
    """f with each variable y_j replaced by y_j + a_j."""
    for j, aj in enumerate(a):
        if aj:
            out: dict = {}
            for e, c in f.items():
                for i in range(e[j] + 1):
                    e2 = e[:j] + (i,) + e[j + 1 :]
                    out[e2] = out.get(e2, 0) + c * comb(e[j], i) * aj ** (e[j] - i)
            f = {e: c for e, c in out.items() if c}
    return f


def _t_lc(f: dict, v: int) -> dict:
    """Leading coefficient in variable v, as a term map free of v."""
    d = max(e[v] for e in f)
    return {e[:v] + (0,) + e[v + 1 :]: c for e, c in f.items() if e[v] == d}


def _t_image(f: dict, v: int, a: list) -> list:
    """f with every variable but v evaluated at a, as a dense list in v."""
    out = [0] * (max(e[v] for e in f) + 1)
    for e, c in f.items():
        for j, k in enumerate(e):
            if k and j != v:
                c *= a[j] ** k
        out[e[v]] += c
    return _trim(out)


def _t_primitive(f: dict) -> dict:
    c = _zz_content(list(f.values()))
    return f if c == 1 else {e: x // c for e, x in f.items()}


# Mersenne primes for the multivariate lift: the first one above twice the
# coefficient bound makes symmetric residues exact integers.
_LIFT_PRIMES = tuple(
    (1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 4423, 9689, 19937)
)
# evaluation points tried for one multivariate factorization
_EVAL_TRIES = 64
_POINT_SEED = 0x5EED


def _factor_terms(f: dict) -> list:
    """Irreducible factors with multiplicity of a nonzero integer term map.

    Returns [(primitive term map, multiplicity)]; integer content and signs
    are left to the caller.
    """
    f = _t_primitive(f)
    n = len(next(iter(f)))
    out = []
    mins = [min(e[i] for e in f) for i in range(n)]
    if any(mins):
        f = {tuple(map(int.__sub__, e, mins)): c for e, c in f.items()}
        out += [({tuple(int(j == i) for j in range(n)): 1}, k) for i, k in enumerate(mins) if k]
    degs = [max(e[i] for e in f) for i in range(n)]
    used = [i for i in range(n) if degs[i]]
    if len(used) < 2:
        for v in used:
            for g, k in _factor_univariate_int(_t_image(f, v, [0] * n)):
                terms = {tuple(i if j == v else 0 for j in range(n)): c for i, c in enumerate(g)}
                out.append(({e: c for e, c in terms.items() if c}, k))
        return out
    # main variable of least degree; a linear primitive part is irreducible
    v = min(used, key=lambda i: (degs[i], sum(1 for e in f if e[i] == degs[i])))
    # the content in v divides lc_v(f), so only the lc's factors can be in it
    lc_factors = [g for g, _ in _factor_terms(_t_lc(f, v))]
    for t in lc_factors:
        k = 0
        while (q := _divide_terms(dict(f), t)) is not None:
            f, k = q, k + 1
        if k:
            return out + [(t, k)] + _factor_terms(f)
    if degs[v] == 1:
        return out + [(f, 1)]
    return out + _factor_wang(f, v, lc_factors)


def _factor_wang(f: dict, v: int, lc_factors: list) -> list:
    """Factor f, primitive and of degree >= 2 in the main variable x = var v.

    The other variables are evaluated at seeded small integers until the
    image keeps deg_x.  Subsets of the image factors are then lifted,
    smallest first; a subset whose factors all have multiplicity m in the
    image is lifted on the (m-1)-th x-derivative of f, where G^m | f leaves
    exactly one factor G.  A leftover whose image factors all have
    multiplicity 1, no half of which lifted, is irreducible (an irreducible
    image proves it at once); any other leftover means the point merged
    factors and is retried at fresh points.
    """
    n = len(next(iter(f)))
    rng = random.Random(_POINT_SEED)
    seen = set()
    out = []
    for tries in range(_EVAL_TRIES):
        others = [i for i in range(n) if i != v and any(e[i] for e in f)]
        if not others:
            return out + _factor_terms(f)
        a = [0] * n
        if tries:
            for i in others:
                a[i] = rng.randint(-1 - tries // 8, 1 + tries // 8)
        if tuple(a) in seen:
            continue
        seen.add(tuple(a))
        image = _t_image(f, v, a)
        if _deg(image) != max(e[v] for e in f):
            continue
        remaining = _factor_univariate_int(image)
        size = 1
        while True:
            squarefree = all(k == 1 for _, k in remaining)
            if size > len(remaining) or (squarefree and 2 * size > len(remaining)):
                break
            for combo in itertools.combinations(range(len(remaining)), size):
                m = remaining[combo[0]][1]
                if any(remaining[i][1] != m for i in combo):
                    continue
                u = [1]
                for i in combo:
                    u = _zz_mul(u, remaining[i][0])
                fd = {
                    e[:v] + (e[v] - m + 1,) + e[v + 1 :]: c * perm(e[v], m - 1)
                    for e, c in f.items()
                    if e[v] >= m - 1
                }
                g = gm = _lift_factor(fd, v, a, u, lc_factors)
                if g is None:
                    continue
                for _ in range(m - 1):
                    gm = _t_mul(gm, g)
                if (rest := _divide_terms(dict(f), gm)) is not None:
                    out.append((g, m))
                    f = rest
                    remaining = [r for i, r in enumerate(remaining) if i not in combo]
                    break
            else:
                size += 1
        if squarefree:
            return out + ([(f, 1)] if any(e[v] for e in f) else [])
    raise ResourceLimitError(
        f"no evaluation point settled the factorization within the cap of {_EVAL_TRIES} tries"
    )


def _lift_factor(f: dict, v: int, a: list, u: list, lc_factors: list) -> dict | None:
    """The factor G of f whose image at a is u (up to a constant), or None.

    Lifts F = lc_x(f) * f, shifted so that the point is 0, to A*B with A(0)
    a multiple of u and lc_x(f) imposed as the leading coefficient of A and
    of B, so a true factor comes out as A = (lc_x(f) / lc_x(G)) * G; G is its
    primitive part.  Factors of F have coefficients of at most
    2^(sum of its degrees) * |F|_2, and A is rejected beyond that.
    """
    lc = _t_lc(f, v)
    big = _t_shift(_t_mul(lc, f), a)
    lcs = _t_shift(lc, a)
    degs = sum(max(e[i] for e in big) for i in range(len(a)))
    bound = (isqrt(sum(c * c for c in big.values())) + 1) << degs
    width = max(e[v] for e in f) + 1
    rows: dict = {}
    for e, c in big.items():
        rows.setdefault(e[:v] + (0,) + e[v + 1 :], [0] * width)[e[v]] = c
    zero = (0,) * len(a)
    a0 = [c * (lcs[zero] // u[-1]) for c in u]
    b0 = _zz_div_exact(_trim(rows[zero]), a0)
    for p in _LIFT_PRIMES:
        if p > 2 * bound and (lifted := _hensel_multi(rows, lcs, a0, b0, p)) is not None:
            break
    else:
        raise ResourceLimitError("coefficient bound exceeds the largest lifting modulus 2^19937 - 1")
    shifted = {}
    for alpha, row in lifted.items():
        for i, c in enumerate(row):
            c = c - p if c > p // 2 else c
            if abs(c) > bound:
                return None
            if c:
                shifted[alpha[:v] + (i,) + alpha[v + 1 :]] = c
    g = _t_primitive(_t_shift(shifted, [-x for x in a]))
    for t in lc_factors:
        while (q := _divide_terms(dict(g), t)) is not None:
            g = q
    return g


def _hensel_multi(rows: dict, lcs: dict, a0: list, b0: list, p: int) -> dict | None:
    """A with A*B = F mod p, A(0) = a0, B(0) = b0, lc_x(A) = lc_x(B) = L.

    F is ``rows`` ({alpha: dense list in x}, alpha a monomial in the shifted
    variables) and L is ``lcs``.  All shifted variables are lifted together,
    one total degree k at a time: the part E of the degree-k error at each
    monomial gets corrections with b0*dA + a0*dB = E from one Bezout pair.
    None when a0 and b0 are not coprime mod p.
    """
    a0, b0 = _zp_norm(a0, p), _zp_norm(b0, p)
    bez = _bezout_mod_p(a0, b0, p)
    if bez is None:
        return None
    s, t = bez
    top = max(map(sum, rows))
    zero = (0,) * len(next(iter(rows)))
    # each factor as {alpha: dense list in x}, and its monomials by degree
    sides = []
    for base in (a0, b0):
        polys, by_deg = {zero: base}, [[(zero, base)]] + [[] for _ in range(top)]
        for alpha, c in lcs.items():
            if 0 < sum(alpha) <= top:
                polys[alpha] = [0] * _deg(base) + [c % p]
                by_deg[sum(alpha)].append((alpha, polys[alpha]))
        sides.append((base, polys, by_deg))
    (_, big, big_by), (_, _, small_by) = sides
    for k in range(1, top + 1):
        err = {alpha: list(row) for alpha, row in rows.items() if sum(alpha) == k}
        for j in range(k + 1):
            for alpha, ra in big_by[j]:
                for beta, rb in small_by[k - j]:
                    key = tuple(map(int.__add__, alpha, beta))
                    acc = err.setdefault(key, [0] * (len(a0) + len(b0) - 1))
                    for i, ca in enumerate(ra):
                        if ca:
                            for jj, cb in enumerate(rb):
                                acc[i + jj] -= ca * cb
        for alpha, acc in err.items():
            if e := _zp_norm(acc, p):
                q, fix_a = _zp_divmod(_zp_mul(t, e, p), a0, p)
                fix_b = _zp_add(_zp_mul(s, e, p), _zp_mul(q, b0, p), p)
                for fix, (base, polys, by_deg) in zip((fix_a, fix_b), sides):
                    if alpha not in polys:
                        polys[alpha] = [0] * len(base)
                        by_deg[k].append((alpha, polys[alpha]))
                    row = polys[alpha]
                    for i, c in enumerate(fix):
                        row[i] = (row[i] + c) % p
    return big


@dataclass(frozen=True)
class Factorization:
    """unit * product(factor^multiplicity), factors normalized irreducible."""

    unit: Fraction
    factors: tuple  # ((Poly, int), ...) in canonical order
    space: VarSpace

    def expand(self) -> Poly:
        out = Poly.const(self.space, self.unit)
        for g, m in self.factors:
            out = out * g**m
        return out

    def factor_multiset(self) -> tuple:
        flat = []
        for g, m in self.factors:
            flat.extend([g] * m)
        return tuple(flat)


def normalize(f: Poly):
    """Split f into (leading graded-lex coefficient, normalized polynomial).

    The zero polynomial maps to (1, 0) by convention.
    """
    if f.is_zero():
        return Fraction(1), f
    c = f.leading_coeff()
    return c, f * (Fraction(1) / c)


def _factor_int_poly(f: Poly) -> list:
    """Factor a nonconstant Poly; returns [(primitive factor Poly, mult)]."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    terms = {e: int(c * scale) for e, c in f.terms.items()}
    return [(Poly(f.space, g), m) for g, m in _factor_terms(terms)]


def factorize(f: Poly, degree_bound: int = DEFAULT_DEGREE_BOUND) -> Factorization:
    """Complete factorization over Q with deterministic canonical ordering."""
    if f.is_zero():
        raise InvalidArgumentError("cannot factor the zero polynomial")
    if f.total_degree() > degree_bound:
        raise ResourceLimitError(
            f"total degree {f.total_degree()} exceeds the configured bound {degree_bound}"
        )
    return _factorize(f)


@cache
def _factorize(f: Poly) -> Factorization:
    space = f.space
    if f.is_constant():
        return Factorization(f.constant_value(), (), space)

    pieces = _factor_int_poly(f)
    unit = Fraction(1)
    normalized = []
    for g, m in pieces:
        c, gn = normalize(g)
        unit *= c**m
        normalized.append((gn, m))
    normalized.sort(key=lambda item: (item[0].sort_key(), item[1]))
    # the residual constant: f / (unit * prod) must be a rational unit
    total = Poly.const(space, unit)
    for g, m in normalized:
        total = total * g**m
    ratio = _constant_ratio(f, total)
    unit *= ratio
    return Factorization(unit, tuple(normalized), space)


def _constant_ratio(f: Poly, g: Poly) -> Fraction:
    lm = f.leading_monomial()
    cg = g.terms.get(lm)
    if not cg:
        raise InvalidArgumentError("internal factorization mismatch")
    ratio = f.terms[lm] / cg
    if not (g * ratio == f):
        raise InvalidArgumentError("internal factorization mismatch")
    return ratio


def is_irreducible(f: Poly, degree_bound: int = DEFAULT_DEGREE_BOUND) -> bool:
    """True when f is a unit times a single irreducible over Q."""
    if f.is_zero() or f.is_constant():
        raise InvalidArgumentError("irreducibility is decided for non-constant polynomials")
    fac = factorize(f, degree_bound)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
