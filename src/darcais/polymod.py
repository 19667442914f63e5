"""Polynomials over prime fields F_p, their factorization, and A_n mod p.

``ModPoly`` derives from the dense-polynomial base of
``darcais.polynomial``: Z and F_p polynomials share one implementation of
the ring operations and of long division.  What is particular to the field
F_p stays here: the modulus, ``monic`` and ``divides``, reduced powers
(``pow_mod``), gcd, factorization, ``a_poly_mod`` and its factorization
``factor_a_poly_mod``.

These two read one identity over F_p: with n = l*p + r, 0 <= r < p, and
B = X**p - g(p)*X, A_n = A_r * B**l (mod p).  ``_split_index`` is the one
place that computes l, A_r mod p and g(p) mod p.

Factorization follows the classical pipeline: squarefree decomposition,
then distinct-degree splitting via the Frobenius map, then randomized
equal-degree splitting (Cantor-Zassenhaus).  Monic irreducible factors are
unique and sorted, so the splitter's random choices change no result and
it takes no seed.  p = 2 uses the trace-map variant because the
(p**d - 1)/2 exponent trick needs odd characteristic.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb
from operator import index

from . import arith, series
from .arith import FrozenValue
from .errors import DomainError, require_at_most
from .polynomial import IntPoly, format_poly, _BasePoly, _strip

# Single-precision moduli only; tiny primes are all the analysis ever needs.
_MAX_MODULUS = 1 << 31

# The largest degree built or factored, where the peak of the CLI run that
# prints the result reaches 64 GiB, rounded down (Python 3.11, x86-64, the
# larger of the json and text peaks).  ``a_poly_mod``: A_n mod p printed in
# 84 bytes per degree (n = 10**5..10**6).  ``factor``: 1.2 KB per degree
# factored (A_n mod p, p = 101..401); ``factor_a_poly_mod`` reads it for
# min(n, p), which bounds the degrees of A_r and of B that it builds.
MAX_A_POLY_MOD_N = 8 * 10**8
MAX_FACTOR_DEGREE = 5 * 10**7


@lru_cache(maxsize=None)
def _check_modulus(p: int) -> tuple:
    """Validate p once; the result ``(p,)`` is the ring shared by ModPolys mod p."""
    arith.require_prime(p, "modulus")
    if p >= _MAX_MODULUS:
        raise DomainError(f"modulus must be below 2**31, got {p}")
    return (p,)


class ModPoly(_BasePoly):
    """Dense polynomial over F_p; immutable, coefficients reduced into [0, p).

    Built as ``ModPoly(p, coeffs)``; operands with another modulus are
    rejected with ``DomainError``.
    """

    __slots__ = ("p", "_ring")

    def __init__(self, p: int, coeffs=()) -> None:
        object.__setattr__(self, "_ring", _check_modulus(p))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_coeffs", _strip([c % p for c in coeffs]))

    def _coerce(self, value) -> int:
        return index(value) % self.p

    def _inverse(self, value: int) -> int:
        return pow(value, self.p - 2, self.p)

    def _divider(self, lead: int):
        inv, p = self._inverse(lead), self.p
        return lambda value: value * inv % p

    def _same(self, other):
        if not isinstance(other, ModPoly):
            return None
        if other.p != self.p:
            raise DomainError(f"mixed moduli {self.p} and {other.p}")
        return other

    def divides(self, other: "ModPoly") -> bool:
        """True iff self divides other."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "ModPoly":
        if self.is_zero:
            raise DomainError("the zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        return self * self._inverse(lead)

    def derivative(self) -> "ModPoly":
        return ModPoly(self.p, [k * c % self.p for k, c in enumerate(self._coeffs)][1:])

    def evaluate(self, x: int) -> int:
        return super().evaluate(x) % self.p

    def __str__(self):
        return f"{format_poly(self._coeffs)} (mod {self.p})"

    def sort_key(self):
        """Canonical order: by degree, then coefficients constant-term first."""
        return (self.degree, self._coeffs)


def poly_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic greatest common divisor."""
    a._same(b)  # rejects mixed moduli even when b is zero
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def pow_mod(base: ModPoly, exponent: int, modulus: ModPoly) -> ModPoly:
    """base**exponent reduced mod modulus (exponent may be huge)."""
    if exponent < 0:
        raise DomainError("negative exponents are not defined")
    if not exponent:
        return ModPoly.one(base.p)
    base = base % modulus
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base % modulus
        exponent >>= 1
        if not exponent:
            return result
        base = base * base % modulus


def reduce_mod(poly: IntPoly, q: int) -> ModPoly:
    """Coefficient-wise reduction of an IntPoly modulo the prime q."""
    _check_modulus(q)
    if not isinstance(poly, IntPoly):
        raise TypeError(f"IntPoly expected, got {type(poly).__name__}")
    return ModPoly(q, poly.coeffs)


# ---------------------------------------------------------------------------
# Factorization over F_p
# ---------------------------------------------------------------------------


class Factorization(FrozenValue):
    """Complete factorization over F_p: unit * prod(factor**multiplicity).

    Factors are monic, irreducible, pairwise distinct, and sorted by
    (degree, coefficient tuple), so they are unique.  The JSON form prints
    the seed of the document that holds it.
    """

    p: int
    unit: int
    factors: tuple[tuple[ModPoly, int], ...]

    def product(self) -> ModPoly:
        out = ModPoly(self.p, (self.unit,))
        for poly, mult in self.factors:
            out = out * poly**mult
        return out

    def degrees(self) -> list[int]:
        return [poly.degree for poly, _ in self.factors]

    def to_json_dict(self, seed: int) -> dict:
        return {
            "p": self.p,
            "unit": self.unit,
            "seed": seed,
            "factors": [
                {"coeffs": list(poly.coeffs), "mult": mult} for poly, mult in self.factors
            ],
        }


def _pth_root(f: ModPoly) -> ModPoly:
    # f is a polynomial in X**p; over F_p the root keeps the same coefficients.
    p = f.p
    return ModPoly(p, [f.coeff(i * p) for i in range(f.degree // p + 1)])


def _squarefree_parts(f: ModPoly) -> list[tuple[ModPoly, int]]:
    """Decompose monic f into squarefree factors with multiplicities."""
    p = f.p
    parts: list[tuple[ModPoly, int]] = []
    scale = 1
    while f.degree > 0:
        deriv = f.derivative()
        if not deriv.is_zero:
            g = poly_gcd(f, deriv)
            h = f // g
            i = 1
            while h.degree > 0:
                step = poly_gcd(h, g)
                piece = h // step
                if piece.degree > 0:
                    parts.append((piece, i * scale))
                h = step
                g = g // step
                i += 1
            if g.degree == 0:
                break
            f = g
        # Whatever remains is a polynomial in X**p; take its p-th root.
        f = _pth_root(f)
        scale *= p
    return parts


def _distinct_degree(f: ModPoly) -> list[tuple[ModPoly, int]]:
    """Split monic squarefree f into products of equal-degree irreducibles."""
    p = f.p
    out = []
    x = ModPoly.x(p)
    h = x
    d = 1
    while 2 * d <= f.degree:
        h = pow_mod(h, p, f)
        g = poly_gcd(f, h - x)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
        d += 1
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _random_poly(rng: random.Random, p: int, max_degree: int) -> ModPoly:
    coeffs = [rng.randrange(p) for _ in range(max_degree + 1)]
    return ModPoly(p, coeffs)


def _equal_degree(f: ModPoly, d: int, rng: random.Random) -> list[ModPoly]:
    """Split a monic product of distinct irreducibles, all of degree d."""
    p = f.p
    if f.degree == d:
        return [f]
    while True:
        r = _random_poly(rng, p, f.degree - 1)
        if r.degree < 1:
            continue
        if p == 2:
            # Trace map over F_2: r + r^2 + r^4 + ... takes values 0/1 on roots.
            t = r
            s = r
            for _ in range(d - 1):
                s = s * s % f
                t = t + s
            g = poly_gcd(f, t)
        else:
            h = pow_mod(r, (p**d - 1) // 2, f)
            g = poly_gcd(f, h - ModPoly.one(p))
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


# Factorizations are immutable and canonical, so repeats (the same minimal
# polynomial for every n of a scan, the same small pieces of A_n mod p)
# are shared within a process.  The bound caps memory, not correctness.
@lru_cache(maxsize=1024)
def factor(f: ModPoly) -> Factorization:
    """Complete factorization of a nonzero polynomial over F_p (memoized)."""
    require_at_most("factor: degree", f.degree, MAX_FACTOR_DEGREE)
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    p = f.p
    unit = f.leading
    f = f.monic()
    found: list[tuple[ModPoly, int]] = []
    rng = random.Random(0)  # the sorted factors do not depend on the seed
    for part, mult in _squarefree_parts(f):
        for block, d in _distinct_degree(part):
            for irr in _equal_degree(block, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda pair: pair[0].sort_key())
    return Factorization(p=p, unit=unit, factors=tuple(found))


def is_irreducible(f: ModPoly) -> bool:
    """Whether f is irreducible over F_p: one factor, of multiplicity 1."""
    if f.is_zero:
        raise DomainError("the zero polynomial is not classified")
    return [mult for _, mult in factor(f).factors] == [1]


# ---------------------------------------------------------------------------
# D'Arcais polynomials modulo p
# ---------------------------------------------------------------------------


def _split_index(
    g: arith.ArithmeticFunction, n: int, p: int
) -> tuple[int, ModPoly, int | None]:
    """Write n = l*p + r with 0 <= r < p; return l, A_r mod p and g(p) mod p,
    the c of the bracket B = X**p - c*X (None when l = 0, so g(p) is read
    only then).

    A_n = A_r * B**l mod p.  A_r alone is built by the integer recursion
    (``series.a_poly``) and reduced; reduction mod p is a ring map, so this
    is the recursion run over F_p.  B itself is never built: its readers
    need c alone.
    """
    _check_modulus(p)
    if n < 0:
        raise DomainError(f"a_poly_mod requires n >= 0, got {n}")
    ell, r = divmod(n, p)
    g.require_up_to(max(r, p if ell else 0))
    a_r = reduce_mod(series.a_poly(g, r), p)  # r is refused past its cap before A_r is built
    return ell, a_r, g(p) % p if ell else None


def _binomial_power(u: int, ell: int, p: int) -> list[int]:
    """Coefficients of (Y + u)**ell over F_p, constant term first, in O(ell).

    Lucas' theorem: with ell = sum d_i p**i, (Y + u)**ell is the product of
    (Y**(p**i) + u)**d_i (as u**p = u).  The lower digits only reach
    exponents below p**i, so digit i places d_i + 1 scaled copies of the
    row built so far at spacing p**i, with no overlap.
    """
    row = [1]
    span = 1  # p**i
    while ell:
        ell, d = divmod(ell, p)
        block = row + [0] * (span - len(row))
        out: list[int] = []
        for j in range(d + 1):
            t = comb(d, j) * pow(u, d - j, p) % p
            out.extend([t * v % p for v in block])
        row = out[: d * span + len(row)]
        span *= p
    return row


def a_poly_mod(g: arith.ArithmeticFunction, n: int, p: int) -> ModPoly:
    """n-th integer D'Arcais polynomial for g, reduced mod p.

    A_n = A_r * B**l (see ``_split_index``), so only A_r is built over Z
    (degree r < p) and reduced; B**l is written down from its binomial
    coefficients.
    """
    require_at_most("a_poly_mod: n", n, MAX_A_POLY_MOD_N)
    ell, a_r, c = _split_index(g, n, p)
    if not ell:
        return a_r
    # B**l = X**l * (X**(p-1) + u)**l = sum_k C(l, k) u**(l-k) X**(l + (p-1)*k),
    # where u = -c is the coefficient of X in B.
    out = [0] * (ell * p + a_r.degree + 1)
    for k, t in enumerate(_binomial_power(-c % p, ell, p)):
        if t:
            base = ell + (p - 1) * k
            for i, a in enumerate(a_r.coeffs):
                out[base + i] += t * a
    return ModPoly(p, out)


def _factor_bracket(p: int, c: int) -> tuple[tuple[ModPoly, int], ...]:
    """``factor(B).factors`` for B = X**p - c*X, 0 <= c < p, in closed form.

    B = X**p if c = 0.  Otherwise, with e = ord_p(c), a root z of
    X**(p-1) - c has z**p = c*z, so its Frobenius orbit z, c*z, ... has e
    points and its minimal polynomial is X**e - z**e; hence
    B = X * prod (X**e - b) over the (p - 1)/e values b with b**((p-1)/e) = c.
    """
    x = ModPoly.x(p)
    if not c:
        return ((x, p),)
    e = next(e for e in range(1, p) if (p - 1) % e == 0 and pow(c, e, p) == 1)
    found = [ModPoly(p, [-b] + [0] * (e - 1) + [1])
             for b in range(1, p) if pow(b, (p - 1) // e, p) == c]
    return tuple((q, 1) for q in sorted([x, *found], key=ModPoly.sort_key))


def factor_a_poly_mod(g: arith.ArithmeticFunction, n: int, p: int) -> Factorization:
    """Exactly ``factor(a_poly_mod(g, n, p))``, assembled from the
    factorizations of A_r (``factor``) and of B (``_factor_bracket``, in
    closed form), of degree at most p; a scan holds what it reuses.

    A_n = A_r * B**l (see ``_split_index``), so a factor q**m of B enters
    with multiplicity l*m, added to that of q in A_r.
    """
    require_at_most("factor_a_poly_mod: min(n, p)", min(n, p), MAX_FACTOR_DEGREE)
    ell, a_r, c = _split_index(g, n, p)
    fact_r = factor(a_r)
    if not ell:
        return fact_r
    mults = dict(fact_r.factors)
    for q, mult in _factor_bracket(p, c):
        mults[q] = mults.get(q, 0) + ell * mult
    found = sorted(mults.items(), key=lambda pair: pair[0].sort_key())
    return Factorization(p=p, unit=fact_r.unit, factors=tuple(found))
