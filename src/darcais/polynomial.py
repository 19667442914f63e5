"""Dense exact polynomials over the integers and F_p.

Coefficients are stored constant-term first, one entry per degree, with
trailing zeros stripped so that representations are canonical.  IntPoly
holds Python ints; ``polymod.ModPoly`` (ints reduced into [0, p)) derives
from the same base, so Z and F_p polynomials share one implementation of
the ring operations and one long division (``divmod``, ``//``, ``%``).
Over Z each quotient coefficient is an exact integer division, and one
that leaves a remainder raises ``DomainError``; a monic divisor never
does.  All of them are immutable and hashable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from math import prod

from . import arith
from .errors import DomainError


def _strip(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def format_poly(coeffs: Sequence) -> str:
    """Human-readable form, highest degree first, e.g. 'X^2 + 21*X + 8'."""
    if not any(coeffs):
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            term = str(abs(c) if c < 0 else c)
        else:
            mag = abs(c) if c < 0 else c
            head = "" if mag == 1 else f"{mag}*"
            term = f"{head}X" + (f"^{k}" if k > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


class _BasePoly:
    """Shared machinery; subclasses fix the coefficient domain.

    ``_ring`` holds the constructor arguments that come before the
    coefficients (none over Z, the modulus over F_p), so every
    polynomial is built as ``cls(*ring, coeffs)``.  ``_coerce`` maps a
    scalar into the coefficient domain, and ``_divider(lead)`` gives the
    map c -> c / lead that long division takes each quotient coefficient by.
    """

    __slots__ = ("_coeffs",)

    _coeffs: tuple
    _ring: tuple = ()

    @staticmethod
    def _coerce(value):  # pragma: no cover - overridden
        raise NotImplementedError

    def _divider(self, lead):  # pragma: no cover - overridden
        raise NotImplementedError

    def __init__(self, coeffs: Iterable = ()) -> None:
        object.__setattr__(self, "_coeffs", _strip([self._coerce(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (*self._ring, self._coeffs))

    def _new(self, coeffs):
        """A polynomial of this type and ring."""
        return type(self)(*self._ring, coeffs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, *ring):
        return cls(*ring, ())

    @classmethod
    def one(cls, *ring):
        return cls(*ring, (1,))

    @classmethod
    def x(cls, *ring):
        return cls(*ring, (0, 1))

    # -- structure -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self):
        if not self._coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int):
        """Coefficient of X**k (0 beyond the degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return self._coerce(0)

    # -- arithmetic -------------------------------------------------------------

    def _same(self, other):
        """``other`` as an operand of this type and ring, or None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, int):
            return self._new((other,))
        return None

    def __add__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        a, b = self._coeffs, o._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self._coeffs])

    def __sub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, _BasePoly):
            o = self._same(other)
            if o is None:
                return NotImplemented
            a, b = self._coeffs, o._coeffs
            if not a or not b:
                return self._new(())
            out = [self._coerce(0)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return self._new(out)
        try:
            scalar = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._new([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial powers are not defined here")
        result = self._new((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _divmod(self, den):
        """Long division by ``den``, a polynomial of this type and ring.

        Each quotient coefficient is the leading remainder coefficient taken
        by ``_divider``: times the inverse of the lead mod p over F_p, and
        over Z an exact integer division that rejects a remainder.
        """
        if den.is_zero:
            raise DomainError("division by the zero polynomial")
        rem = list(self._coeffs)
        dc = den._coeffs
        qdeg = len(rem) - len(dc)
        if qdeg < 0:
            return self._new(()), self
        divide, top = self._divider(den.leading), len(dc) - 1
        quot = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            q = divide(rem[k + top])
            quot[k] = q
            if q:
                for i, c in enumerate(dc):
                    rem[k + i] -= q * c
        return self._new(quot), self._new(rem)

    def __divmod__(self, other):
        den = self._same(other)
        if den is None:
            return NotImplemented
        return self._divmod(den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        """Exact Horner evaluation; the result type follows the inputs."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _BasePoly):
            return (
                type(self) is type(other)
                and self._ring == other._ring
                and self._coeffs == other._coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self._ring, self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        args = [*map(repr, self._ring), repr(list(self._coeffs))]
        return f"{type(self).__name__}({', '.join(args)})"

    def __str__(self):
        return format_poly(self._coeffs)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [str(c) for c in self._coeffs],
        }


class IntPoly(_BasePoly):
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"integer coefficient expected, got {value!r}")
        return value

    @staticmethod
    def _divider(lead: int):
        def divide(value: int) -> int:
            q, r = divmod(value, lead)
            if r:
                raise DomainError(f"quotient coefficient {value}/{lead} is not an integer")
            return q

        return divide

    @classmethod
    def monomial(cls, degree: int, coeff=1):
        if degree < 0:
            raise DomainError("monomial degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    def div_exact(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self / divisor; DomainError unless it is exact over Z."""
        quot, rem = self._divmod(divisor)
        if rem:
            raise DomainError("division left a nonzero remainder")
        return quot


def cyclotomic(m: int) -> IntPoly:
    """m-th cyclotomic polynomial.

    For m > 1, Phi_m = prod_{d | m} (1 - X**d)**mu(m/d), whose signs cancel
    since sum_{d | m} mu(m/d) = 0, taken as a power series cut at degree
    phi(m): one pass over the coefficients per squarefree m/d, a product of
    distinct primes of m.  Multiplying by 1 - X**d subtracts c[i-d] from
    c[i] downwards, and dividing by it adds c[i-d] to c[i] upwards.
    """
    if m < 1:
        raise DomainError(f"cyclotomic requires m >= 1, got {m}")
    if m == 1:
        return IntPoly((-1, 1))
    primes = arith.prime_factors(m)
    deg = arith.euler_phi(m, primes)
    c = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in combinations(primes, k):
            d = m // prod(chosen)
            if k % 2:  # mu(m/d) = -1
                for i in range(d, deg + 1):
                    c[i] += c[i - d]
            else:
                for i in range(deg, d - 1, -1):
                    c[i] -= c[i - d]
    return IntPoly(c)
