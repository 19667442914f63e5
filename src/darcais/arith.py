"""Elementary number theory and the integer-valued arithmetic function g.

Everything here is exact arithmetic on Python ints.  Primality is always
verified, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from .errors import DomainError, TableExhaustedError

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24 (covers 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PRIMALITY_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 2:
        return False
    if n >= _PRIMALITY_LIMIT:
        raise DomainError(f"primality test is only deterministic below 2**64, got {n}")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int, what: str = "p") -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{what} must be prime, got {p!r}")


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(2, bound + 1) if sieve[i])


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise DomainError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) with p**e exactly dividing |n| > 0, p ascending; by trial division."""
    n = abs(n)
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending; n must be nonzero."""
    if n == 0:
        raise DomainError("prime_factors requires a nonzero argument")
    return [p for p, _ in _factorization(n)]


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise DomainError(f"sigma requires n >= 1, got {n}")
    return sum(divisors(n))


def euler_phi(m: int) -> int:
    """Count of 1 <= k <= m coprime to m."""
    if m < 1:
        raise DomainError(f"euler_phi requires m >= 1, got {m}")
    result = m
    for p, _ in _factorization(m):
        result -= result // p
    return result


def require_quadratic_d(D: int) -> None:
    """D names a quadratic field: squarefree and outside {0, 1}."""
    if D in (0, 1):
        raise DomainError(f"D must avoid 0 and 1, got {D}")
    if not is_squarefree(D):
        raise DomainError(f"D must be squarefree, got {D}")


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n; n must be nonzero."""
    if n == 0:
        raise DomainError("is_squarefree requires a nonzero argument")
    return all(e == 1 for _, e in _factorization(n))


def legendre_symbol(D: int, p: int) -> int:
    """Legendre symbol (D|p) for an odd prime p, by Euler's criterion."""
    require_prime(p)
    if p == 2:
        raise DomainError("legendre_symbol requires an odd prime")
    r = pow(D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class ArithmeticFunction:
    """Integer-valued function g on positive integers with g(1) = 1.

    Three kinds are supported: the divisor sum ("sigma"), the identity
    ("identity"), and a finite table ("table").  A table never
    extrapolates; evaluation past its last entry raises
    TableExhaustedError.
    """

    kind: str
    name: str
    table: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sigma", "identity", "table"):
            raise DomainError(f"unknown arithmetic-function kind {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise DomainError("table kind requires at least one value")
            if any(not isinstance(v, int) for v in self.table):
                raise DomainError("table values must be integers")
            if self.table[0] != 1:
                raise DomainError(f"g(1) must equal 1, table starts with {self.table[0]}")
        elif self.table is not None:
            raise DomainError(f"kind {self.kind!r} does not take a table")
        # g keys every memo of the library; hashing a long table on each
        # lookup would cost more than many of the cached computations.
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes.
        return (type(self), (self.kind, self.name, self.table))

    @classmethod
    def sigma(cls) -> "ArithmeticFunction":
        return cls(kind="sigma", name="sigma")

    @classmethod
    def identity(cls) -> "ArithmeticFunction":
        return cls(kind="identity", name="id")

    @classmethod
    def from_table(cls, values, name: str = "table") -> "ArithmeticFunction":
        return cls(kind="table", name=name, table=tuple(int(v) for v in values))

    @classmethod
    def from_file(cls, path) -> "ArithmeticFunction":
        """Load a table: one integer per line, line k holding g(k)."""
        path = Path(path)
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not a text file: {exc}") from None
        values = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: not an integer: {line!r}") from None
        if not values:
            raise DomainError(f"{path}: empty g-table")
        return cls.from_table(values, name=path.stem)

    @property
    def n_max(self) -> int | None:
        """Largest argument this g can be evaluated at (None = unbounded)."""
        return len(self.table) if self.kind == "table" else None

    def require_up_to(self, n: int) -> None:
        """Fail fast if some g(k), k <= n, would be out of range."""
        if self.kind == "table" and n > len(self.table):
            raise TableExhaustedError(
                f"g={self.name!r} is tabulated up to {len(self.table)}, need {n}"
            )

    def __call__(self, n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"arithmetic functions are defined for integers n >= 1, got {n!r}")
        if self.kind == "sigma":
            return sigma(n)
        if self.kind == "identity":
            return n
        if n > len(self.table):
            raise TableExhaustedError(
                f"g={self.name!r} is tabulated up to {len(self.table)}, asked for g({n})"
            )
        return self.table[n - 1]
