"""Slow, independent routes kept as test oracles for the series kernels.

``tau_list_recurrence`` is the O(N^2) integer recurrence that ``tau_list``
replaced, and ``hurwitz_check_fraction`` the Routh table in ``Fraction``
arithmetic that ``hurwitz_check`` replaced.  They share no code with the
library's kernels, so the tests compare the two routes result for result.
"""

from darcais import DomainError, RatPoly


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


def hurwitz_check_fraction(p: RatPoly) -> bool:
    """True iff every root of p has strictly negative real part.

    Decided by the Routh table in exact rational arithmetic.  Degenerate
    pivots (a zero leading entry, or an all-zero row) certify the presence
    of a root with nonnegative real part or a boundary configuration, so
    they report False rather than being perturbed away.
    """
    if p.is_zero:
        raise DomainError("the zero polynomial has no stability type")
    if not p.coeff(0):
        raise DomainError("polynomial has a root at the origin; strip it first")
    d = p.degree
    if d == 0:
        return True
    coeffs = list(p.coeffs)
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
