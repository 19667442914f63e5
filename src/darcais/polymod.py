"""Polynomials over prime fields F_p and their factorization.

Factorization follows the classical pipeline: squarefree decomposition,
then distinct-degree splitting via the Frobenius map, then randomized
equal-degree splitting (Cantor-Zassenhaus).  The equal-degree stage takes
an explicit seed so factorizations are reproducible bit for bit; p = 2
uses the trace-map variant because the (p**d - 1)/2 exponent trick needs
odd characteristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import arith, series
from .errors import DomainError, NotInvertibleError
from .polynomial import IntPoly, RatPoly, format_poly, _strip

# Single-precision moduli only; tiny primes are all the analysis ever needs.
_MAX_MODULUS = 1 << 31


@lru_cache(maxsize=None)
def _check_modulus(p: int) -> bool:
    arith.require_prime(p, "modulus")
    if p >= _MAX_MODULUS:
        raise DomainError(f"modulus must be below 2**31, got {p}")
    return True


class ModPoly:
    """Dense polynomial over F_p; immutable, coefficients reduced into [0, p)."""

    __slots__ = ("p", "_coeffs")

    def __init__(self, p: int, coeffs=()) -> None:
        _check_modulus(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_coeffs", _strip([c % p for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("ModPoly is immutable")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "ModPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "ModPoly":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> "ModPoly":
        return cls(p, (0, 1))

    # -- structure ----------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> int:
        if not self._coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int) -> int:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def _check(self, other: "ModPoly") -> None:
        if not isinstance(other, ModPoly):
            raise TypeError(f"ModPoly expected, got {type(other).__name__}")
        if other.p != self.p:
            raise DomainError(f"mixed moduli {self.p} and {other.p}")

    # -- ring operations -------------------------------------------------------------

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return ModPoly(self.p, out)

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        self._check(other)
        a, b = self._coeffs, other._coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % self.p
        return ModPoly(self.p, out)

    def __neg__(self) -> "ModPoly":
        return ModPoly(self.p, [-c % self.p for c in self._coeffs])

    def __mul__(self, other) -> "ModPoly":
        if isinstance(other, int):
            return ModPoly(self.p, [c * other % self.p for c in self._coeffs])
        self._check(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ModPoly.zero(self.p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return ModPoly(self.p, [c % self.p for c in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ModPoly":
        if n < 0:
            raise DomainError("negative powers are not defined")
        result = ModPoly.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "ModPoly"):
        self._check(other)
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        p = self.p
        rem = list(self._coeffs)
        dc = other._coeffs
        inv_lead = pow(other.leading, p - 2, p)
        qdeg = len(rem) - len(dc)
        if qdeg < 0:
            return ModPoly.zero(p), self
        quot = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            q = rem[k + len(dc) - 1] * inv_lead % p
            quot[k] = q
            if q:
                for i, c in enumerate(dc):
                    rem[k + i] = (rem[k + i] - q * c) % p
        return ModPoly(p, quot), ModPoly(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "ModPoly":
        if self.is_zero:
            raise DomainError("the zero polynomial cannot be made monic")
        lead = self.leading
        if lead == 1:
            return self
        inv = pow(lead, self.p - 2, self.p)
        return self * inv

    def derivative(self) -> "ModPoly":
        return ModPoly(self.p, [k * c % self.p for k, c in enumerate(self._coeffs)][1:])

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self._coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def divides(self, other: "ModPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    # -- comparison / output ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ModPoly):
            return self.p == other.p and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"ModPoly({self.p}, {list(self._coeffs)!r})"

    def __str__(self):
        return f"{format_poly(self._coeffs)} (mod {self.p})"

    def sort_key(self):
        """Canonical order: by degree, then coefficients constant-term first."""
        return (self.degree, self._coeffs)


def poly_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def pow_mod(base: ModPoly, exponent: int, modulus: ModPoly) -> ModPoly:
    """base**exponent reduced mod modulus (exponent may be huge)."""
    if exponent < 0:
        raise DomainError("negative exponents are not defined")
    result = ModPoly.one(base.p)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result


def reduce_mod(poly, q: int) -> ModPoly:
    """Coefficient-wise reduction of an IntPoly or RatPoly modulo the prime q.

    Rational coefficients require denominators invertible mod q.
    """
    _check_modulus(q)
    if isinstance(poly, IntPoly):
        return ModPoly(q, poly.coeffs)
    if isinstance(poly, RatPoly):
        out = []
        for c in poly.coeffs:
            den = c.denominator % q
            if den == 0:
                raise NotInvertibleError(
                    f"denominator {c.denominator} is divisible by {q}"
                )
            out.append(c.numerator * pow(den, q - 2, q) % q)
        return ModPoly(q, out)
    raise TypeError(f"IntPoly or RatPoly expected, got {type(poly).__name__}")


# ---------------------------------------------------------------------------
# Factorization over F_p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Complete factorization over F_p: unit * prod(factor**multiplicity).

    Factors are monic, irreducible, pairwise distinct, and sorted by
    (degree, coefficient tuple) so output is reproducible.  The seed fed
    to the equal-degree splitter is recorded for replay.
    """

    p: int
    unit: int
    seed: int
    factors: tuple[tuple[ModPoly, int], ...]

    def product(self) -> ModPoly:
        out = ModPoly(self.p, (self.unit,))
        for poly, mult in self.factors:
            out = out * poly**mult
        return out

    def irreducible_factors(self) -> list[ModPoly]:
        return [poly for poly, _ in self.factors]

    def degrees(self) -> list[int]:
        return [poly.degree for poly, _ in self.factors]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "unit": self.unit,
            "seed": self.seed,
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
def factor(f: ModPoly, seed: int = 0) -> Factorization:
    """Complete factorization of a nonzero polynomial over F_p (memoized)."""
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    p = f.p
    unit = f.leading
    f = f.monic()
    found: list[tuple[ModPoly, int]] = []
    rng = random.Random(seed)
    for part, mult in _squarefree_parts(f):
        for block, d in _distinct_degree(part):
            for irr in _equal_degree(block, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda pair: pair[0].sort_key())
    return Factorization(p=p, unit=unit, seed=seed, factors=tuple(found))


def is_irreducible(f: ModPoly) -> bool:
    """Rabin's irreducibility test on the monic normalization of f."""
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
    for ell in arith.prime_factors(n):
        h = pow_mod(x, p ** (n // ell), f) - x
        if poly_gcd(f, h).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# D'Arcais polynomials modulo p
# ---------------------------------------------------------------------------


def _split_index(g: arith.ArithmeticFunction, n: int, p: int) -> tuple[int, ModPoly]:
    """Write n = l*p + r with 0 <= r < p; return l and A_r mod p.

    A_r is taken from the memoized integer recursion (``series.a_poly``);
    reduction mod p is a ring map, so this is the recursion run over F_p.
    """
    _check_modulus(p)
    if n < 0:
        raise DomainError(f"a_poly_mod requires n >= 0, got {n}")
    ell, r = divmod(n, p)
    g.require_up_to(max(r, p if ell else 0))
    return ell, reduce_mod(series.a_poly(g, r), p)


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

    Write n = l*p + r with 0 <= r < p.  The residue factors as the r-th
    polynomial times the l-th power of X*(X**(p-1) - g(p)), so only A_r is
    built over Z (degree r < p, from the memoized recursion) and reduced;
    the power is written down from its binomial coefficients.
    """
    ell, a_r = _split_index(g, n, p)
    if not ell:
        return a_r
    # (X*(X**(p-1) - c))**l = sum_k C(l, k) (-c)**(l-k) X**(l + (p-1)*k)
    out = [0] * (ell * p + a_r.degree + 1)
    for k, t in enumerate(_binomial_power(-g(p) % p, ell, p)):
        if t:
            base = ell + (p - 1) * k
            for i, a in enumerate(a_r.coeffs):
                out[base + i] += t * a
    return ModPoly(p, out)


def factor_a_poly_mod(
    g: arith.ArithmeticFunction, n: int, p: int, seed: int = 0
) -> Factorization:
    """Exactly ``factor(a_poly_mod(g, n, p), seed)``, assembled from
    factorizations of degree below p.

    With n = l*p + r and c = g(p) mod p, A_n = A_r * X**l * (X**(p-1) - c)**l.
    For c != 0 the bracket is squarefree (X does not divide it, and its
    derivative is a power of X up to a unit), so each of its irreducible
    factors enters with multiplicity l; for c = 0 it is X**(p-1).
    Multiplicities of irreducibles shared with A_r add up.
    """
    ell, a_r = _split_index(g, n, p)
    fact_r = factor(a_r, seed=seed)
    if not ell:
        return fact_r
    mults = dict(fact_r.factors)
    x = ModPoly.x(p)
    c = g(p) % p
    if c:
        bracket = factor(ModPoly(p, [-c] + [0] * (p - 2) + [1]), seed=seed)
        extra = [(x, ell)] + [(q, ell) for q in bracket.irreducible_factors()]
    else:
        extra = [(x, ell * p)]
    for q, mult in extra:
        mults[q] = mults.get(q, 0) + mult
    found = sorted(mults.items(), key=lambda pair: pair[0].sort_key())
    return Factorization(p=p, unit=fact_r.unit, seed=seed, factors=tuple(found))
