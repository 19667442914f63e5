"""Elementary number theory and the integer-valued arithmetic function g.

Everything here is exact arithmetic on Python ints.  Primality is always
verified, never assumed.
"""

from __future__ import annotations

import os
from math import isqrt
from operator import attrgetter

from .errors import DomainError, TableExhaustedError, read_at_most, require_at_most

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24 (covers 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PRIMALITY_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 2:
        return False
    if n >= _PRIMALITY_LIMIT:
        raise DomainError(f"primality test is only deterministic below 2**64, got {n}")
    for p in _MR_WITNESSES:
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


def euler_phi(m: int, primes=None) -> int:
    """Count of 1 <= k <= m coprime to m; ``primes``, when given, are the
    distinct prime factors of m, which then is not factored again."""
    if m < 1:
        raise DomainError(f"euler_phi requires m >= 1, got {m}")
    result = m
    for p in prime_factors(m) if primes is None else primes:
        result -= result // p
    return result


# Largest |D| accepted for a quadratic field.  Squarefreeness is checked by
# trial division up to sqrt|D|, at most about 31,623 divisors under this cap.
MAX_QUADRATIC_D = 10**9


def require_quadratic_d(D: int) -> None:
    """D names a quadratic field: squarefree, outside {0, 1}, and |D| at most
    ``MAX_QUADRATIC_D``, which is checked first."""
    if D in (0, 1):
        raise DomainError(f"D must avoid 0 and 1, got {D}")
    require_at_most("|D|", abs(D), MAX_QUADRATIC_D, "trial-division")
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


class FrozenValue:
    """Base of the library's immutable value classes; it generates no code at import.

    The fields are the class-body annotations, in order, with their class-level
    defaults.  Instances run ``__post_init__``, compare by (type, field values),
    hash by field values (computed once) and refuse assignment.
    """

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__dict__["__annotations__"])
        cls._fields, cls._names, cls._values = fields, frozenset(fields), attrgetter(*fields)
        cls._required = frozenset(f for f in fields if f not in cls.__dict__)

    def __init__(self, *args, **kwargs) -> None:
        # Defaults stay class attributes; the instance holds what was passed.
        values = self.__dict__
        if args:
            values.update(zip(self._fields, args))
            if len(values) != len(args) or not values.keys().isdisjoint(kwargs):
                raise TypeError(f"{type(self).__name__}() got bad positional arguments {args!r}")
        values.update(kwargs)
        if not self._required <= values.keys() <= self._names:
            raise TypeError(f"{type(self).__name__} takes {self._fields}, got {sorted(values)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        # g and the candidates key the library's memos: hash their fields
        # (a long g-table, say) once, not on every lookup.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            self.__dict__["_hash"] = value = hash(self._values(self))
            return value

    def __reduce__(self):
        # Rebuild through __init__: string hashes differ between processes.
        return (type(self), self._values(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({pairs})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


def replace(value: FrozenValue, /, **changes) -> FrozenValue:
    """A copy of ``value`` with some fields changed, validated anew."""
    return type(value)(**({f: getattr(value, f) for f in value._fields} | changes))


# The largest g-table file read, in bytes: where parsing it would peak at
# 64 GiB, from its 10.5-34.0 bytes per file byte (lines such as "1", "-6",
# "300", "123456789012", 4400 digits or non-ASCII digits; 2-5 MB files,
# Python 3.11, x86-64), rounded down.
MAX_TABLE_BYTES = 2 * 10**9


class ArithmeticFunction(FrozenValue):
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
        """Load a table: one integer per line, line k holding g(k); the
        table is named after the file's stem.  At most ``MAX_TABLE_BYTES``
        + 1 bytes are read, and a file past the cap is refused before it is
        parsed."""
        path = os.fspath(path)
        data = read_at_most(f"g-table {path}: bytes", path, MAX_TABLE_BYTES)
        try:
            text = data.decode()
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
        base = os.path.basename(path)
        dot = base.rfind(".")  # the stem: a leading or trailing dot is no suffix
        return cls.from_table(values, name=base[:dot] if 0 < dot < len(base) - 1 else base)

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
