"""D'Arcais polynomials: exact construction, tau, and Hurwitz stability.

The n-th D'Arcais polynomial for an arithmetic function g is the
coefficient of q**n in exp(X * sum_{k>=1} g(k) q**k / k).  Scaled by n!
it has integer coefficients, is monic of degree n, and has zero constant
term for n >= 1.  Both exact routes start from the integer form (N, E) of
``_log_derivative_form``, with E*S' = N for S = sum_k g(k) q**k / k:

* one recursion on the scaled rows B_j = A_j * n!/j!, a column of
  coefficients at a time, from E*F' = X*N*F for the generating function F
  (``_scaled_columns``).  A_0..A_n costs O(n^2.5) small-by-big products
  for sigma, whose E is Euler's pentagonal series, O(n^2) for the identity
  and O(n^3) for a table.  ``a_poly_list`` returns A_0..A_n, and ``a_poly``
  takes A_n alone from two columns when N != -E'; the module keeps no
  rows, so a caller that reuses rows holds the list it asked for
  (``hurwitz`` and ``certify.scan_grid`` each build one);
* when N = -E' (sigma), F = E**(-X) = sum_d C(X+d-1, d) * (1 - E)**d, and
  ``a_poly`` sums A_n in the rising-factorial basis
  (``_a_poly_from_powers``): O(n^2.5) additions of small integers for
  the coefficients [q**n] (1 - E)**d, then O(n^2) bigint multiply-adds.

At an integer x no polynomial is built: ``row_at`` reads E*F' = X*N*F
at X = x, one integer per q**j, each P_j(x) times one scale for the row.
Under sigma the scale is 1 and P_j(x) is the coefficient of E**(-x)
(x = -24 gives tau), in O(n^1.5) small-by-big products; the scan's
real-axis points read it (``certify.scan_grid``).

The sum over integer partitions, exact but exponential, is the test oracle
``a_poly_oracle`` in ``tests/oracles.py``; it shares no code path with
either route.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate, zip_longest
from math import factorial, gcd, isqrt
from operator import mul

from .arith import ArithmeticFunction
from .errors import DomainError, require_at_most
from .polynomial import IntPoly

# The largest size each function below builds: the size at which its traced
# peak, from measured bytes per unit, reaches 64 GiB, rounded down (Python
# 3.11, x86-64).  Each function checks its cap at entry.
# ``tau_list(N)``: 270-300 bytes per index (N = 10**5..10**6).
MAX_TAU_N = 2 * 10**8
# ``a_poly_list(g, n)``, the rows A_0..A_n: 0.245 * n**3 bytes (n = 200..800).
# ``hurwitz --max`` builds them, and ``certify.scan_grid`` holds them for
# exact evaluation, each under this cap.
MAX_ROWS_N = 6000
# ``a_poly(g, n)``, A_n alone: 0.18-0.30 * n**2 * log2(n) bytes from the powers
# of 1 - E (sigma, n = 200..800), 0.30-0.40 by the columns (the identity,
# n = 200..1600, and a table, n = 200..800).
MAX_A_POLY_N = 100000
# ``row_at(g, x, n)``, n + 1 integers, each at most about s*x**n, s the
# row's scale (1 for sigma, n! otherwise), so n * bits(s * x**n) =
# n * (n * bit_length(n) [s = n!] + n * max(1, bit_length(x))) bits in all:
# the traced peak stayed within 2/8 byte per bit (sigma, the identity and a
# random table, n = 1000..2000, |x| <= 10**100), and within 0.0007-0.04
# under sigma at x in {-24, -3, 1, 3, 15} (n = 5000..50000).  Every row has
# at least n**2 bits, so the cap on n is the size cap read on n alone,
# checked before (N, E) is built.
MAX_ROW_BITS = 25 * 10**10
MAX_ROW_N = isqrt(MAX_ROW_BITS)


def _log_derivative_form(
    g: ArithmeticFunction, n: int
) -> tuple[list[int], list[int], list[int] | None]:
    """Integer series (N, E), cut to q**0..q**(n-1), with E(0) = 1 and
    E * S' = N, where S = sum_k g(k) q**k / k, and Y = 1 - E cut to
    q**0..q**n when S = -log E, else None; n and g's reach are checked
    first.

    This is the only place that reads how g is given.  For sigma, E is
    Euler's pentagonal series prod (1 - q**m), about 1.6*sqrt(n) terms, and
    N = -E' since log E = -S, so Y is given; for the identity
    S' = 1/(1 - q)**2, so E = (1 - q)**2 and N = 1; a table has E = 1 and
    N = S', whose i-th coefficient is g(i + 1).
    """
    if n < 0:
        raise DomainError(f"D'Arcais polynomials need n >= 0, got {n}")
    g.require_up_to(max(n, 1))
    E = [1] + [0] * n
    if g.kind == "sigma":
        k = 1
        while (pent := k * (3 * k - 1) // 2) <= n:  # E[k(3k -/+ 1)/2] = (-1)**k
            E[pent] = -1 if k % 2 else 1
            if pent + k <= n:
                E[pent + k] = E[pent]
            k += 1
        N = [-(i + 1) * E[i + 1] for i in range(n)]
        return N, E[:n], [0] + [-e for e in E[1:]]
    if g.kind == "identity":
        E[1:3] = -2, 1
        N = [1] + [0] * n
    else:
        N = [g(i) for i in range(1, n + 1)]
    return N[:n], E[:n], None


def _back_offsets(support: list[int], n: int) -> list[tuple[int, ...]]:
    """For t = 0..n, the offsets -k of the k <= t in the ascending ``support``."""
    prefixes = [tuple(-k for k in support[:c]) for c in range(len(support) + 1)]
    return [prefixes[bisect_right(support, t)] for t in range(n + 1)]


def _scaled_columns(g: ArithmeticFunction, n: int) -> Iterator[list[int]]:
    """The columns u_1..u_n of B_j = A_j * n!/j! = n! * P_j: u_d[j] is the
    coefficient of X**d in B_j.  n and g's reach are checked before the
    first column, by ``_log_derivative_form``.

    F = sum_j P_j q**j = exp(X*S) solves E*F' = X*N*F for the (N, E) of
    ``_log_derivative_form``; at q**(j-1) and X**d, scaled by n!, this reads

        j*u_d[j] = sum_i N[i]*u_{d-1}[j-1-i] - sum_{i>=1} E[i]*(j-i)*u_d[j-i],

    divided exactly by j.  The column is built as j*u_d[j], so the E sum
    adds entries already there, and is divided by j once it is complete.
    When E != 1, both sums read only the nonzero terms of N and E, and the
    E sum is one sum per value of E; when E = 1 (a table), the N sum is one
    dot product per entry.
    """
    N, E, _ = _log_derivative_form(g, n)
    e_groups = [(v, _back_offsets([i for i in range(1, n) if E[i] == v], n))
                for v in set(E[1:]) - {0}]  # u_d[j-i], 1 <= i <= j-d
    if e_groups:
        n_support = [i for i in range(n) if N[i]]
        n_values = [N[i] for i in n_support]
        n_offsets = _back_offsets([i + 1 for i in n_support], n)  # u_{d-1}[j-1-i], i <= j-d
    else:
        n_desc = N[::-1]  # N[n-1], ..., N[0]
    scale = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # scale[j] = n!/j!
    prev = [scale[0]] + [0] * n  # u_0: B_0 = n!, and A_j(0) = 0 for j >= 1
    for d in range(1, n + 1):
        col = [0] * d
        if e_groups:
            past = prev[:d]  # u_{d-1}[0..j-1] at entry j
            past_at, at = past.__getitem__, col.__getitem__
            for j in range(d, n + 1):
                t = j - d
                s = sum(map(mul, n_values, map(past_at, n_offsets[t + 1])))
                for v, offsets in e_groups:
                    s -= v * sum(map(at, offsets[t]))
                col.append(s)
                past.append(prev[j])
        else:
            col += [sum(map(mul, n_desc[n - 1 - j + d :], prev[d - 1 : j]))
                    for j in range(d, n + 1)]
        for j in range(d, n + 1):
            col[j] //= j
        yield col
        prev = col


def a_poly_list(g: ArithmeticFunction, n: int) -> list[IntPoly]:
    """The integer D'Arcais polynomials A_0..A_n for g: A_j has coefficient
    u_d[j] // (n!/j!) of X**d."""
    require_at_most("a_poly_list: n", n, MAX_ROWS_N)
    scale = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]
    rows = [[1]] + [[0] for _ in range(n)]  # coefficients of A_0..A_n
    for d, col in enumerate(_scaled_columns(g, n), 1):
        for j in range(d, n + 1):
            rows[j].append(col[j] // scale[j])
    return [IntPoly(row) for row in rows]


def _a_poly_from_powers(Y: list[int], n: int) -> IntPoly:
    """A_n for F = (1 - Y)**(-X), Y = Y[0..n] with Y[0] = 0 and entries in
    {-1, 0, 1}.

    (1 - Y)**(-X) = sum_d X(X+1)...(X+d-1)/d! * Y**d, so A_n is the sum of
    t_d * n!/d! * X(X+1)...(X+d-1) over d = 1..n, t_d = [q**n] Y**d.  The
    columns [q**m] Y**d, m <= n, are built one d at a time, each entry two
    sums of the previous column, one per sign of Y; the sum over d is then
    taken by Horner's rule: from R = t_n, R <- t_d * n!/d! + (X + d)*R for
    d = n-1 down to 1, and A_n = X*R.
    """
    plus, minus = (_back_offsets([k for k in range(1, n + 1) if Y[k] == v], n)
                   for v in (1, -1))  # Y**(d-1)[m-k], k <= m-d+1
    t = [0] * (n + 1)
    prev = [1] + [0] * n  # Y**0
    for d in range(1, n + 1):
        col = [0] * d
        past = prev[:d]  # Y**(d-1)[0..m-1] at entry m
        at = past.__getitem__
        for m in range(d, n + 1):
            col.append(sum(map(at, plus[m - d + 1])) - sum(map(at, minus[m - d + 1])))
            past.append(prev[m])
        t[d] = col[n]
        prev = col
    R, scale = [t[n]], 1  # scale = n!/d!
    for d in range(n - 1, 0, -1):
        scale *= d + 1
        R = [d * a + b for a, b in zip(R + [0], [0] + R)]  # (X + d)*R
        R[0] += t[d] * scale
    return IntPoly([0] + R)


def a_poly(g: ArithmeticFunction, n: int) -> IntPoly:
    """n-th integer D'Arcais polynomial.

    When ``_log_derivative_form`` gives Y = 1 - E, that is S = -log E
    (sigma), and Y has entries in {-1, 0, 1}, F = (1 - Y)**(-X), and A_n
    comes from the powers of Y (``_a_poly_from_powers``) by O(n^2.5)
    small-integer additions and O(n^2) bigint multiply-adds.  Otherwise A_n
    is entry n (n!/n! = 1) of each scaled column u_0..u_n, with two columns
    live.
    """
    require_at_most("a_poly: n", n, MAX_A_POLY_N)
    _, _, Y = _log_derivative_form(g, n)
    if n and Y is not None and set(Y) <= {-1, 0, 1}:
        return _a_poly_from_powers(Y, n)
    return IntPoly([1 if n == 0 else 0] + [col[n] for col in _scaled_columns(g, n)])


def row_form(g: ArithmeticFunction, n: int, x: int) -> tuple[list[int], list[int], bool]:
    """The (N, E) of ``_log_derivative_form`` for ``row_at``'s row at x up
    to n, and whether its scale is 1 (S = -log E) rather than n!, which is
    also 1 at n = 0.  The row's size is refused past ``MAX_ROW_BITS`` before
    the row is built, and n past ``MAX_ROW_N``, that cap read on n alone,
    before (N, E) is."""
    require_at_most("row_at: n", n, MAX_ROW_N)
    N, E, Y = _log_derivative_form(g, n)
    unit = Y is not None
    bits = n * (0 if unit else n * n.bit_length()) + n * n * max(1, abs(x).bit_length())
    require_at_most("row_at: n * bits(s * x**n)", bits, MAX_ROW_BITS)
    return N, E, unit


def row_at(g: ArithmeticFunction, x: int, n: int) -> list[int]:
    """s*P_0(x), ..., s*P_n(x) at the integer x, for one scale s > 0: s = 1
    when N = -E' (sigma), where P_j(x) is the integer [q**j] E**(-x), and
    s = n! otherwise, where A_j(x) = s*P_j(x) // (n!/j!).  So the j-th entry
    is 0 exactly when A_j(x) is.  n, the row's size and g's reach are
    checked first (``row_form``).

    At X = x, E*F' = X*N*F for F = sum_j F_j q**j, F_0 = s, reads at q**(j-1)

        j*F_j = x * sum_i N[i]*F_{j-1-i} - sum_{i>=1} E[i]*(j-i)*F_{j-i},

    over the nonzero terms of N and E, divided exactly by j.  The list G
    holds j*F_j, so the E sum reads G[j-i]; at step j both lists hold
    entries 0..j-1, so an offset -k, k <= j, reads F[j-k] or G[j-k]: the
    first ``bisect_right`` offsets of N's support (a table's N is dense, so
    no tuple per j is held), and those of ``_back_offsets`` for E.
    """
    N, E, unit = row_form(g, n, x)
    F = [1 if unit else factorial(n)]
    G = [0]
    n_support = [i + 1 for i in range(n) if N[i]]  # F_{j-k}, k = i + 1 <= j
    n_values, n_offsets = [N[k - 1] for k in n_support], [-k for k in n_support]
    e_support = [i for i in range(1, n) if E[i]]  # G_{j-i}, G_0 = 0
    e_values, e_offsets = [E[i] for i in e_support], _back_offsets(e_support, n)
    for j in range(1, n + 1):
        k = bisect_right(n_support, j)
        s = (x * sum(map(mul, n_values, map(F.__getitem__, n_offsets[:k])))
             - sum(map(mul, e_values, map(G.__getitem__, e_offsets[j]))))
        G.append(s)
        F.append(s // j)
    return F


def _square_truncated(a: list[int], n: int) -> list[int]:
    """The first n coefficients of a*a, by one bigint multiply.

    Kronecker substitution: a, cut to n terms, is packed as its value at
    B = 2**w and squared.  Every coefficient of the square lies in
    [-l1**2, l1**2], l1 = sum |a_i|, so w is the bit length of l1**2 plus a
    sign bit, in whole bytes; adding B/2 to every slot before reading the
    slots back makes each digit nonnegative, so none borrows from the next.
    """
    a = (a + [0] * n)[:n]
    size = (sum(map(abs, a)) ** 2).bit_length() // 8 + 1
    half, width = 1 << (8 * size - 1), size * n
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")  # B/2 in every slot
    x = int.from_bytes(b"".join((c + half).to_bytes(size, "little") for c in a), "little")
    raw = ((x - offset) ** 2 + offset).to_bytes(2 * width, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, width, size)]


def tau_list(N: int) -> list[int]:
    """Ramanujan tau(1..N): the coefficients of q**0..q**(N-1) of prod (1 - q**n)**24.

    Jacobi's sparse series prod (1 - q**n)**3 = sum_k (-1)**k (2k+1)
    q**(k(k+1)/2) is squared three times, each square truncated to N terms
    and done by one bigint multiply (``_square_truncated``).
    """
    if N < 1:
        raise DomainError(f"tau_list requires N >= 1, got {N}")
    require_at_most("tau_list: N", N, MAX_TAU_N)
    values = [0] * N
    k = t = 0  # t = k(k+1)/2
    while t < N:
        values[t] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
        t += k
    for _ in range(3):
        values = _square_truncated(values, N)
    return values


def tau(n: int) -> int:
    """Ramanujan tau(n): P_{n-1}(-24) = A_{n-1}(-24) / (n-1)!."""
    if n < 1:
        raise DomainError(f"tau requires n >= 1, got {n}")
    return tau_list(n)[n - 1]


# ---------------------------------------------------------------------------
# Hurwitz stability of A_n / X = n! * P_n / X
# ---------------------------------------------------------------------------


def _routh(coeffs: list[int], bits: int) -> bool | None:
    """Routh table of sum coeffs[i] X**i with c_d > 0: True iff every pivot
    is > 0, False if one is <= 0, None if ``bits`` left a pivot's sign open.

    A row is a pair (lo, hi) enclosing a positive multiple of the rational
    table's row, so every sign agrees with that table.  While lo is hi the
    row is exact: pivot*prev[1:] - prev[0]*cur[1:], divided by its content,
    is alpha*beta*pivot times the rational row if prev and cur are alpha
    and beta times theirs, as each pivot is shown > 0 before it is used.
    Once an entry passes ``bits``, both ends are shifted right by one power
    of two, lo rounded down and hi up, and each update multiplies the two
    pivots, both > 0, by the end that bounds each product.  So no row is
    cut, and the answer is never None, once ``bits`` passes every entry of
    the exact table.  A zero pivot, an all-zero row included, reports False
    (a root on or right of the imaginary axis) rather than being perturbed
    away.  For d = 0 both rows are c_0, and the table reads True.
    """
    d = len(coeffs) - 1
    plo = phi = coeffs[d::-2]  # row for degree d:   c_d, c_{d-2}, ...
    lo = hi = coeffs[d - 1 :: -2]  # row for degree d-1: c_{d-1}, c_{d-3}, ...
    while True:
        if hi[0] <= 0:
            return False
        if lo[0] <= 0:
            return None
        if len(plo) == 1:  # lo is row d, the last
            return True
        x, xh, y, yh = lo[0], hi[0], plo[0], phi[0]
        nlo = [(x if p >= 0 else xh) * p - (yh if c >= 0 else y) * c
               for p, c in zip_longest(plo[1:], hi[1:], fillvalue=0)]
        if lo is hi:  # then prev is exact too
            content = gcd(*nlo) or 1
            nlo = nhi = [c // content for c in nlo]
        else:
            nhi = [(xh if p >= 0 else x) * p - (y if c >= 0 else yh) * c
                   for p, c in zip_longest(phi[1:], lo[1:], fillvalue=0)]
        if (s := max(max(nhi), -min(nlo)).bit_length() - bits) > 0:
            nlo, nhi = [c >> s for c in nlo], [-(-c >> s) for c in nhi]
        plo, phi, lo, hi = lo, hi, nlo, nhi


def hurwitz_check(p: IntPoly) -> bool:
    """True iff every root of p has strictly negative real part.

    Decided by ``_routh`` over Z, so A_n/X answers for P_n/X, its positive
    multiple by 1/n!: rows are cut to 8*deg + 64 bits, then 16*deg + 64,
    32*deg + 64, ..., until every pivot's sign is settled, which it is by
    the time no entry of the exact table is cut.
    """
    if p.is_zero:
        raise DomainError("the zero polynomial has no stability type")
    if not p.coeff(0):
        raise DomainError("polynomial has a root at the origin; strip it first")
    coeffs = list(p.coeffs) if p.leading > 0 else [-c for c in p.coeffs]
    per_degree = 8
    while (verdict := _routh(coeffs, per_degree * p.degree + 64)) is None:
        per_degree *= 2
    return verdict
