"""Second, independent routes to what the library decides one way.

The library answers each question by one route; the tests compare it,
result for result, against the route kept here:

* ``a_poly_oracle``: the n-th D'Arcais polynomial as a sum over the
  integer partitions of n, exact but exponential in n (capped at
  ``max_n``), against both routes of ``a_poly``;
* ``a_poly_list_rows``: the row recursion with factorial weights that
  the n!/j!-scaled column recursion of ``a_poly_list`` replaced;
* ``tau_list_recurrence``: the O(N^2) integer recurrence that
  ``tau_list`` replaced; ``series_oracle``: the formal exponential at an
  integer argument, against A_n(x)/n!;
* ``hurwitz_check_fraction``: the Routh table in ``Fraction`` arithmetic
  that ``hurwitz_check`` replaced;
* ``divides_a_poly_mod``: division of the fully expanded A_n mod p, against
  membership in ``factor_a_poly_mod`` (the generic obstruction);
* ``generic_obstruction_proves`` and ``not_ramified_proves``: the generic
  obstruction at n, by membership in the factorization of the whole
  ``a_poly_mod(g, n, p)``, and the unramified criterion written out from its
  cases, against the searches that ``certify`` and ``scan_grid`` share;
* ``is_irreducible_rabin``: Rabin's irreducibility test over F_p, against
  ``is_irreducible``, which reads ``factor``; the tests that check the
  factors ``factor`` returns are irreducible use it, so that ``factor``
  does not check itself;
* ``periodic_residues``: the periodic obstruction in membership form, the
  residues r mod p where one prime rules out every n = r mod p; the
  closed-form criteria and the genuine-root corpus are checked against it;
* ``abs_sq_lower_bound_fraction`` and ``han_reach_fraction``: the absolute
  bound in ``Fraction`` arithmetic, the reach found by stepping along n,
  against the integer numerators and the one integer division of
  ``certify_han_bound``;
* ``scan_grid_per_n``: the grid scan that runs the whole strategy chain
  per (point, n), the generic obstruction and the unramified criterion by
  the two oracles above and every other method by its certificate, and the
  points with a = 0 by evaluating the polynomials A_n at b, against
  ``scan_grid``, which decides each n from facts computed once per point
  and reads an integer row per b (``series.row_at``);
* ``zmija_order_six``: the raw order criterion mod 11, against the degree
  rule of ``check_zmija_conditions``;
* ``evaluate_at_quadratic`` and ``evaluate_at_cyclotomic``: evaluation in
  the power basis of the ring, against the remainder by the minimal
  polynomial (``certify_exact``);
* ``cyclotomic_by_division``: Phi_m as X**m - 1 divided exactly by every
  Phi_d, d a proper divisor of m, against the Moebius product of
  ``cyclotomic``;
* ``index_via_determinant``: the index of Z[a*zeta_m + b] from a
  determinant, against the closed form ``CyclotomicShift.index``;
* ``multiplicative_order`` and ``inertia_degree_cyclotomic``: the residue
  degree of p in the m-th cyclotomic field, against Dedekind-Kummer
  factorizations.

None of these may be defined in the library (``tests/test_layers.py``).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import Iterator

from darcais import (
    DomainError,
    IntPoly,
    TableExhaustedError,
    a_poly_mod,
    cyclotomic,
    euler_phi,
    factor,
    reduce_mod,
)
from darcais.arith import divisors, prime_factors, require_prime, require_quadratic_d
from darcais.certify import _CHAIN, DEFAULT_CONFIG, GridPoint, GridResult, certify_all_n
from darcais.numfield import QuadraticShift, candidate_family
from darcais.polymod import ModPoly, poly_gcd, pow_mod
from darcais.series import a_poly_list


def a_poly_list_rows(g, n: int) -> list[IntPoly]:
    """A_0..A_n by A_j = X * sum_k g(k) (j-1)!/(j-k)! A_{j-k}, uncached.

    Every product is a factorial weight of up to log2((j-1)!) bits times a
    coefficient of A_{j-k}.
    """
    if n < 0:
        raise DomainError(f"a_poly_list requires n >= 0, got {n}")
    g.require_up_to(max(n, 1))
    gv = [0] + [g(k) for k in range(1, n + 1)]
    polys = [IntPoly.one()]
    for j in range(1, n + 1):
        acc = [0] * j  # coefficients of sum_k c_k g(k) A_{j-k}, degree <= j-1
        c = 1  # falling product (j-1)!/(j-k)!
        for k in range(1, j + 1):
            w = c * gv[k]
            if w:
                for idx, coeff in enumerate(polys[j - k].coeffs):
                    acc[idx] += w * coeff
            c *= j - k
        polys.append(IntPoly([0] + acc))  # multiply by X
    return polys


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity vectors (m_1, ..., m_n) with sum k*m_k = n."""

    def rec(remaining: int, largest: int, mults: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(mults)
            return
        for part in range(min(largest, remaining), 0, -1):
            count = remaining // part
            for m in range(count, 0, -1):
                mults[part - 1] = m
                yield from rec(remaining - part * m, part - 1, mults)
            mults[part - 1] = 0

    if n == 0:
        yield ()
        return
    yield from rec(n, n, [0] * n)


DEFAULT_ORACLE_BOUND = 25


def a_poly_oracle(g, n: int, max_n: int = DEFAULT_ORACLE_BOUND) -> IntPoly:
    """n-th integer D'Arcais polynomial by direct summation over partitions.

    Exponential in n; guarded by ``max_n`` so it stays a test oracle.
    Each partition with m_j copies of j contributes
    n! * prod_j (g(j)/j)**m_j / m_j!  to the coefficient of X**(sum m_j).
    """
    if n < 0:
        raise DomainError(f"a_poly_oracle requires n >= 0, got {n}")
    if n > max_n:
        raise DomainError(
            f"partition oracle capped at n <= {max_n} (asked for {n}); raise max_n to override"
        )
    g.require_up_to(max(n, 1))
    fact_n = factorial(n)
    coeffs = [Fraction(0)] * (n + 1)
    gv = [Fraction(0)] + [Fraction(g(j), j) for j in range(1, n + 1)]
    for mults in _partitions(n):
        weight = Fraction(fact_n)
        size = 0
        for j, m in enumerate(mults, start=1):
            if m:
                weight *= gv[j] ** m / factorial(m)
                size += m
        coeffs[size] += weight
    if any(c.denominator != 1 for c in coeffs):  # IntPoly takes ints only
        raise DomainError(f"partition sum for n = {n}: a coefficient is not an integer")
    return IntPoly(c.numerator for c in coeffs)


def _sigma_sieve(N: int) -> list[int]:
    """sigma(1..N) by summing each divisor over its multiples."""
    sig = [0] * (N + 1)
    for d in range(1, N + 1):
        for multiple in range(d, N + 1, d):
            sig[multiple] += d
    return sig


def tau_list_recurrence(N: int) -> list[int]:
    """Ramanujan tau(1..N), via the integer specialization x = -24.

    Same recurrence as ``series_oracle`` but with the argument substituted
    up front, so every intermediate value is an integer (the division by n
    is exact).
    """
    if N < 1:
        raise DomainError(f"tau_list requires N >= 1, got {N}")
    sig = _sigma_sieve(N)
    weights = [-24 * s for s in sig]
    values = [1]  # values[j] = (j-th rational D'Arcais polynomial at -24)
    for n in range(1, N):
        total = 0
        for k in range(1, n + 1):
            total += weights[k] * values[n - k]
        div, rem = divmod(total, n)
        if rem:
            raise AssertionError("tau recurrence produced a non-integer")
        values.append(div)
    return values


def hurwitz_check_fraction(p: IntPoly | list) -> bool:
    """True iff every root of p has strictly negative real part.

    p is an IntPoly, or the rational coefficients of a polynomial
    (constant term first), for which the library has no type.  Decided by
    the Routh table in exact rational arithmetic, each row divided through
    by its pivot.  Degenerate pivots (a zero leading entry, or an all-zero
    row) certify the presence of a root with nonnegative real part or a
    boundary configuration, so they report False rather than being
    perturbed away.
    """
    coeffs = [Fraction(c) for c in getattr(p, "coeffs", p)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise DomainError("the zero polynomial has no stability type")
    if not coeffs[0]:
        raise DomainError("polynomial has a root at the origin; strip it first")
    d = len(coeffs) - 1
    if d == 0:
        return True
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    # All coefficients strictly positive is necessary for real polynomials.
    if any(c <= 0 for c in coeffs):
        return False
    prev = coeffs[d::-2]  # row for degree d:   c_d, c_{d-2}, ...
    cur = coeffs[d - 1 :: -2]  # row for degree d-1: c_{d-1}, c_{d-3}, ...
    for _ in range(d - 1):
        if not any(cur):
            return False  # all-zero row: roots placed symmetrically about 0
        pivot = cur[0]
        if pivot <= 0:
            return False  # zero pivot with a nonzero row, or a sign change
        nxt = [
            (prev[j] if j < len(prev) else 0)
            - prev[0] * (cur[j] if j < len(cur) else 0) / pivot
            for j in range(1, len(prev))
        ]
        prev, cur = cur, nxt
    return bool(cur) and cur[0] > 0


def series_oracle(g, x: int, N: int) -> list[Fraction]:
    """Coefficients of q**0..q**N of exp(x * sum g(k) q**k / k).

    Entry n equals the n-th rational D'Arcais polynomial evaluated at x.
    Uses the logarithmic-derivative recurrence: n*E_n = sum_{k=1}^{n}
    x*g(k)*E_{n-k}.
    """
    if N < 0:
        raise DomainError(f"series_oracle requires N >= 0, got {N}")
    g.require_up_to(max(N, 1))
    weights = [0] + [x * g(k) for k in range(1, N + 1)]
    out = [Fraction(1)]
    for n in range(1, N + 1):
        total = sum(weights[k] * out[n - k] for k in range(1, n + 1))
        out.append(Fraction(total, n))
    return out


def divides_a_poly_mod(q: ModPoly, g, n: int, p: int) -> bool:
    """Whether q divides A_n mod p, by long division of the whole
    ``a_poly_mod(g, n, p)`` (degree n)."""
    return q.divides(a_poly_mod(g, n, p))


@lru_cache(maxsize=None)
def _a_poly_mod_factors(g, n: int, p: int) -> frozenset:
    """The monic irreducibles of the whole A_n mod p, held across candidates."""
    return frozenset(q for q, _ in factor(a_poly_mod(g, n, p)).factors)


def generic_obstruction_proves(g, f: IntPoly, n: int, primes) -> bool:
    """Whether some p of ``primes`` has an irreducible factor of f mod p that
    is missing from the factorization of ``a_poly_mod(g, n, p)`` (degree n,
    built whole); a p past the reach of a table-backed g proves nothing."""
    for p in primes:
        try:
            a_factors = _a_poly_mod_factors(g, n, p)
        except TableExhaustedError:
            continue
        if any(q not in a_factors for q, _ in factor(reduce_mod(f, p)).factors):
            return True
    return False


def not_ramified_proves(g, c, n: int, bound: int) -> bool:
    """Whether a prime p <= bound, within the reach of a table-backed g and
    found by trial division, has n = 0 or 1 mod p and meets case 1 (g(p) = 0
    mod p, p dividing none of 2, a, D) or case 2 (g(p) = 1 mod p, p odd and
    not dividing a, D a non-residue mod p by Euler's criterion) of the
    unramified criterion at the quadratic candidate c = a*w_D + b."""
    reach = bound if g.n_max is None else min(bound, g.n_max)
    for p in range(2, (reach if n == 1 else min(reach, n)) + 1):  # n mod p = n > 1 past n
        if n % p > 1 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            continue
        gp = g(p) % p
        if gp == 0 and (2 * c.a * c.D) % p:
            return True
        if gp == 1 and p > 2 and c.a % p and pow(c.D, (p - 1) // 2, p) == p - 1:
            return True
    return False


def is_irreducible_rabin(f: ModPoly) -> bool:
    """Rabin's test on the monic normalization of f, of degree n >= 1: f
    divides X**(p**n) - X and is coprime to X**(p**(n/l)) - X for each
    prime l dividing n."""
    if f.is_zero:
        raise DomainError("the zero polynomial is not classified")
    n = f.degree
    if n == 0:
        return False
    if n == 1:
        return True
    f = f.monic()
    p = f.p
    x = ModPoly.x(p)
    if pow_mod(x, p**n, f) != x % f:
        return False
    for ell in prime_factors(n):
        h = pow_mod(x, p ** (n // ell), f) - x
        if poly_gcd(f, h).degree != 0:
            return False
    return True


def periodic_residues(g, f: IntPoly, p: int) -> frozenset[int]:
    """Residues r mod p at which p proves that no root of the monic,
    irreducible f is a root of any A_n with n >= 1 and n = r mod p.

    If f divides A_n with n = l*p + r, then f mod p divides A_r * B**l mod p,
    where B = X**p - g(p)*X is ``a_poly_mod(g, p, p)``.  So every monic
    irreducible q dividing f mod p but not B divides A_r mod p, and r is
    covered when some such q does not.  r = 0 is covered as soon as one
    such q exists, since A_0 = 1.  The argument reads g(1..p) only: a p
    past the reach of a table-backed g covers nothing.
    """
    try:
        bracket = a_poly_mod(g, p, p)
        a_r = [reduce_mod(a, p) for a in a_poly_list(g, p - 1)]
    except TableExhaustedError:
        return frozenset()
    coprime = [q for q, _ in factor(reduce_mod(f, p)).factors
               if not q.divides(bracket)]
    return frozenset(r for r in range(p) if any(not q.divides(a_r[r]) for q in coprime))


# The exact square of the constant 9.7226 of the absolute bound.
HAN_C_SQ = Fraction(97226, 10000) ** 2


def abs_sq_lower_bound_fraction(c) -> Fraction:
    """A sound rational lower bound for |alpha|**2: exact for complex
    quadratic c and for m = 3, 4, 6, from a bracket of width 10**-8 around
    sqrt(D) for real quadratic c, and ||b| - |a||**2 otherwise."""
    if isinstance(c, QuadraticShift):
        D, a, b = c.D, c.a, c.b
        if D < 0:
            if D % 4 == 1:
                return (Fraction(b) + Fraction(a, 2)) ** 2 + Fraction(a * a * abs(D), 4)
            return Fraction(b * b + a * a * abs(D))
        s = isqrt(D * 10**16)
        lo, hi = Fraction(s, 10**8), Fraction(s + 1, 10**8)
        if D % 4 == 1:
            lo, hi = (1 + lo) / 2, (1 + hi) / 2
        ends = sorted((a * lo + b, a * hi + b))
        if ends[0] <= 0 <= ends[1]:
            return Fraction(0)
        return min(abs(ends[0]), abs(ends[1])) ** 2
    trace = {3: -1, 4: 0, 6: 1}.get(c.m)
    if trace is not None:
        return Fraction(c.a * c.a + trace * c.a * c.b + c.b * c.b)
    return Fraction((abs(c.b) - abs(c.a)) ** 2)


def han_reach_fraction(abs_sq: Fraction) -> int:
    """The largest n >= 1 with abs_sq > HAN_C_SQ * (n - 1)**2, or 0 when
    there is none: stepped to from a guess, by the inequality itself."""
    if not abs_sq > 0:
        return 0
    n = isqrt(int(abs_sq / HAN_C_SQ)) + 1
    while abs_sq > HAN_C_SQ * n**2:
        n += 1
    while not abs_sq > HAN_C_SQ * (n - 1) ** 2:
        n -= 1
    return n


def _per_n_method(g, c, n: int, config=DEFAULT_CONFIG) -> str | None:
    """The first method of the strategy chain that proves n at c, or None:
    ``generic_obstruction`` and ``not_ramified`` by the oracles above, every
    other method by its certificate; one that raises ``TableExhaustedError``
    does not prove."""
    for method, (applies, run) in _CHAIN.items():
        if not applies(g, c, n, config):
            continue
        if method == "generic_obstruction":
            proven = generic_obstruction_proves(g, c.min_poly, n, config.primes)
        elif method == "not_ramified":
            proven = not_ramified_proves(g, c, n, config.not_ramified_prime_bound)
        else:
            try:
                proven = run(g, c, n, config).proven
            except TableExhaustedError:
                proven = False
        if proven:
            return method
    return None


def scan_grid_per_n(g, kind: str, a_range, b_range, n_max: int, config=DEFAULT_CONFIG):
    """``scan_grid`` by ``_per_n_method`` for every (point, n) once
    ``certify_all_n`` is inconclusive; a point with a = 0 tries the absolute
    bound (sigma only) and then exact evaluation at b, for each n, of one
    list A_0..A_top built per scan."""
    if n_max < 1:
        raise DomainError(f"scan_grid requires n_max >= 1, got {n_max}")
    make = candidate_family(kind)
    top = n_max if g.n_max is None else min(n_max, g.n_max)
    rows = a_poly_list(g, top) if a_range[0] <= 0 <= a_range[1] else None
    points = []
    for a in range(a_range[0], a_range[1] + 1):
        for b in range(b_range[0], b_range[1] + 1):
            methods, uncertified = set(), []
            if a == 0:
                for n in range(1, n_max + 1):
                    if g.kind == "sigma" and b * b > HAN_C_SQ * (n - 1) ** 2:
                        methods.add("han_bound")
                    elif n <= top and rows[n].evaluate(b) != 0:
                        methods.add("exact_evaluation")
                    else:
                        uncertified.append(n)
            else:
                c = make(a, b)
                cert = certify_all_n(g, c, config)
                if cert.proven:
                    points.append(GridPoint(a, b, "all_n", (cert.method,), ()))
                    continue
                for n in range(1, n_max + 1):
                    method = _per_n_method(g, c, n, config)
                    if method is not None:
                        methods.add(method)
                    else:
                        uncertified.append(n)
            status = "up_to_nmax" if not uncertified else "partial" if methods else "unknown"
            points.append(GridPoint(a, b, status, tuple(sorted(methods)), tuple(uncertified)))
    return GridResult(g_name=g.name, kind=kind, a_range=tuple(a_range), b_range=tuple(b_range),
                      n_max=n_max, config=config, points=tuple(points))


_ZMIJA_EXPONENT = 11**6 - 1
_ZMIJA_OTHER_D = tuple(d for d in range(1, 11) if d != 6)


def zmija_order_six(q: ModPoly) -> bool:
    """Raw criterion mod 11: q divides X**(11**6 - 1) - 1 but none of
    X**(11**d - 1) - 1 for d = 1..10, d != 6."""
    x, one = ModPoly.x(11), ModPoly.one(11)
    if pow_mod(x, _ZMIJA_EXPONENT, q) != one % q:
        return False
    return not any(pow_mod(x, 11**d - 1, q) == one % q for d in _ZMIJA_OTHER_D)


def evaluate_at_quadratic(p, D: int, a: int, b: int):
    """Evaluate p at a*w + b, where w generates the ring of integers of Q(sqrt(D)).

    w is sqrt(D) when D != 1 mod 4 and (1 + sqrt(D))/2 when D = 1 mod 4.
    Returns the pair (u, v) meaning u + v*w; (0, 0) exactly when the
    argument is a root.  Coefficients may be ints or Fractions; the result
    follows suit.
    """
    require_quadratic_d(D)
    u, v = 0 * p.coeff(0), 0 * p.coeff(0)  # zero of the coefficient domain
    if D % 4 == 1:
        c = (D - 1) // 4  # w*w = w + c
        for coeff in reversed(p.coeffs):
            u, v = u * b + v * a * c + coeff, u * a + v * b + v * a
    else:
        for coeff in reversed(p.coeffs):
            u, v = u * b + v * a * D + coeff, u * a + v * b
    return u, v


@lru_cache(maxsize=None)
def cyclotomic_by_division(m: int) -> IntPoly:
    """m-th cyclotomic polynomial, by exact division of X**m - 1."""
    if m == 1:
        return IntPoly((-1, 1))
    numerator = IntPoly.monomial(m, 1) - IntPoly.one()
    for d in divisors(m)[:-1]:
        numerator = numerator.div_exact(cyclotomic_by_division(d))
    return numerator


def evaluate_at_cyclotomic(p, m: int, a: int, b: int) -> tuple:
    """Evaluate p at a*zeta + b for a primitive m-th root of unity zeta.

    The value is returned as its coordinate vector in the power basis
    1, zeta, ..., zeta**(phi(m)-1); the zero vector means the argument is
    a root.
    """
    if m < 3:
        raise DomainError(f"evaluate_at_cyclotomic requires m >= 3, got {m}")
    phi = cyclotomic(m)
    deg = phi.degree
    reducer = [-c for c in phi.coeffs[:-1]]  # zeta**deg in the power basis
    zero = 0 * p.coeff(0)
    vec = [zero] * deg
    for coeff in reversed(p.coeffs):
        # vec <- vec * (a*zeta + b) + coeff * e0
        shifted = [zero] + [a * c for c in vec[:-1]]
        top = a * vec[-1]
        if top:
            shifted = [s + top * r for s, r in zip(shifted, reducer)]
        vec = [s + b * c for s, c in zip(shifted, vec)]
        vec[0] += coeff
    return tuple(vec)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free elimination; all divisions are exact."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def index_via_determinant(m: int, a: int, b: int) -> int:
    """Index of Z[a*zeta_m + b] computed from first principles.

    Expresses the powers (a*zeta_m + b)**j, j < phi(m), in the power basis
    of zeta_m and returns |det| of the resulting change-of-basis matrix.
    """
    if m < 3:
        raise DomainError(f"index_via_determinant requires m >= 3, got {m}")
    if a == 0:
        raise DomainError("a = 0 degenerates to a rational integer")
    deg = euler_phi(m)
    rows = [evaluate_at_cyclotomic(IntPoly.monomial(j), m, a, b) for j in range(deg)]
    return abs(_bareiss_det(rows))


def multiplicative_order(a: int, m: int) -> int:
    """Least f >= 1 with a**f = 1 mod m; requires gcd(a, m) = 1."""
    if m < 1:
        raise DomainError(f"multiplicative_order requires m >= 1, got {m}")
    a %= m
    if m == 1:
        return 1
    # The order divides phi(m); test divisors in increasing order.
    for f in divisors(euler_phi(m)):
        if pow(a, f, m) == 1:
            return f
    raise DomainError(f"{a} is not invertible mod {m}")


def inertia_degree_cyclotomic(p: int, m: int) -> int:
    """Common residue degree of the primes above p in the m-th cyclotomic field.

    Strip the p-part of m, leaving m_p; the degree is the multiplicative
    order of p modulo m_p (1 when m_p <= 2).
    """
    require_prime(p)
    if m < 3:
        raise DomainError(f"inertia_degree_cyclotomic requires m >= 3, got {m}")
    m_p = m
    while m_p % p == 0:
        m_p //= p
    if m_p <= 2:
        return 1
    return multiplicative_order(p, m_p)
