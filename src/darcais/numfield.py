"""Shifted cyclotomic and quadratic generators and their prime splitting.

A candidate is an algebraic integer of the form a*zeta_m + b (cyclotomic
shift) or a*w_D + b (quadratic shift, w_D the standard generator of the
ring of integers of Q(sqrt(D))).  For such generators the index of
Z[alpha] inside the full ring of integers has a closed form, which is
what makes the Dedekind-Kummer analysis trivially applicable away from
finitely many primes.
"""

from __future__ import annotations

from functools import cached_property

from . import arith, polymod
from .arith import FrozenValue
from .errors import DomainError
from .polynomial import IntPoly, cyclotomic
from .polymod import Factorization, ModPoly


def min_poly_cyclotomic_shift(m: int, a: int, b: int) -> IntPoly:
    """Monic integer minimal polynomial of a*zeta_m + b, degree phi(m).

    Obtained by clearing denominators in Phi_m((X - b) / a).
    """
    if m < 3:
        raise DomainError(f"cyclotomic shifts require m >= 3, got {m}")
    if a == 0:
        raise DomainError("a = 0 degenerates to a rational integer")
    phi_m = cyclotomic(m)
    deg = phi_m.degree
    shift = IntPoly((-b, 1))  # X - b
    result = IntPoly.zero()
    power = IntPoly.one()  # (X - b)**j, built incrementally
    for j, c in enumerate(phi_m.coeffs):
        if c:
            result = result + power * (c * a ** (deg - j))
        power = power * shift
    return result


def min_poly_quadratic_shift(D: int, a: int, b: int) -> IntPoly:
    """Monic integer minimal polynomial of a*w_D + b (degree 2)."""
    arith.require_quadratic_d(D)
    if a == 0:
        raise DomainError("a = 0 degenerates to a rational integer")
    if D % 4 == 1:
        # w**2 = w + (D-1)/4, so (X-b)**2 - a(X-b) + a**2 (1-D)/4 kills a*w + b.
        c0 = b * b + a * b + a * a * (1 - D) // 4
        c1 = -2 * b - a
        return IntPoly((c0, c1, 1))
    return IntPoly((b * b - a * a * D, -2 * b, 1))


class CyclotomicShift(FrozenValue):
    """Candidate a*zeta_m + b with m >= 3 and a != 0."""

    m: int
    a: int
    b: int

    kind = "cyclotomic"

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"cyclotomic shifts require m >= 3, got {self.m}")
        if self.a == 0:
            raise DomainError("a = 0 degenerates to a rational integer")

    @cached_property
    def degree(self) -> int:
        return arith.euler_phi(self.m)

    @cached_property
    def min_poly(self) -> IntPoly:
        return min_poly_cyclotomic_shift(self.m, self.a, self.b)

    @cached_property
    def index(self) -> int:
        d = self.degree
        return abs(self.a) ** (d * (d - 1) // 2)

    def describe(self) -> str:
        return f"{self.a}*zeta_{self.m} + {self.b}"

    def spec_string(self) -> str:
        return f"cyc:{self.m},{self.a},{self.b}"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "m": self.m, "a": self.a, "b": self.b}


class QuadraticShift(FrozenValue):
    """Candidate a*w_D + b for squarefree D outside {0, 1} and a != 0."""

    D: int
    a: int
    b: int

    kind = "quadratic"

    def __post_init__(self) -> None:
        arith.require_quadratic_d(self.D)
        if self.a == 0:
            raise DomainError("a = 0 degenerates to a rational integer")

    @classmethod
    def gaussian(cls, a: int, b: int) -> "QuadraticShift":
        return cls(D=-1, a=a, b=b)

    @property
    def degree(self) -> int:
        return 2

    @cached_property
    def min_poly(self) -> IntPoly:
        return min_poly_quadratic_shift(self.D, self.a, self.b)

    @property
    def index(self) -> int:
        return abs(self.a)

    @property
    def discriminant(self) -> int:
        return self.D if self.D % 4 == 1 else 4 * self.D

    def describe(self) -> str:
        return f"{self.a}*w({self.D}) + {self.b}"

    def spec_string(self) -> str:
        if self.D == -1:
            return f"gauss:{self.a},{self.b}"
        return f"quad:{self.D},{self.a},{self.b}"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "D": self.D, "a": self.a, "b": self.b}


AlgebraicCandidate = CyclotomicShift | QuadraticShift


def candidate_from_json(doc: dict) -> AlgebraicCandidate:
    if doc["kind"] == "cyclotomic":
        return CyclotomicShift(m=doc["m"], a=doc["a"], b=doc["b"])
    if doc["kind"] == "quadratic":
        return QuadraticShift(D=doc["D"], a=doc["a"], b=doc["b"])
    raise DomainError(f"unknown candidate kind {doc.get('kind')!r}")


def parse_candidate(text: str) -> AlgebraicCandidate:
    """Parse 'cyc:m,a,b', 'quad:D,a,b', or 'gauss:a,b'."""
    head, _, tail = text.partition(":")
    try:
        nums = [int(tok) for tok in tail.split(",")] if tail else []
    except ValueError:
        raise DomainError(f"malformed candidate {text!r}") from None
    if head == "cyc" and len(nums) == 3:
        return CyclotomicShift(m=nums[0], a=nums[1], b=nums[2])
    if head == "quad" and len(nums) == 3:
        return QuadraticShift(D=nums[0], a=nums[1], b=nums[2])
    if head == "gauss" and len(nums) == 2:
        return QuadraticShift.gaussian(a=nums[0], b=nums[1])
    raise DomainError(
        f"malformed candidate {text!r}; expected cyc:m,a,b | quad:D,a,b | gauss:a,b"
    )


def ramifies(c: AlgebraicCandidate, p: int) -> bool:
    """Whether p ramifies in the field generated by the candidate.

    Cyclotomic field of level m: an odd p ramifies iff p | m, and 2
    ramifies iff 4 | m (for m = 2 mod 4 the field equals the one of level
    m/2, where 2 is unramified).  Quadratic field of discriminant D or 4D:
    p ramifies iff it divides the discriminant.
    """
    arith.require_prime(p)
    if isinstance(c, CyclotomicShift):
        if p == 2:
            return c.m % 4 == 0
        return c.m % p == 0
    return c.discriminant % p == 0


class SplittingReport(FrozenValue):
    """Dedekind-Kummer data for a prime p and a candidate.

    When p divides the candidate's index the method does not apply and the
    report carries no factors.  Otherwise each irreducible factor of the
    minimal polynomial mod p corresponds to a prime ideal above p, with
    ramification index e = multiplicity and inertia degree f = degree.
    """

    candidate: AlgebraicCandidate
    p: int
    applicable: bool
    ramified: bool
    factorization: Factorization | None

    @property
    def entries(self) -> tuple[tuple[ModPoly, int, int], ...]:
        """(irreducible factor, e, f) triples; empty when not applicable."""
        if not self.applicable or self.factorization is None:
            return ()
        return tuple(
            (poly, mult, poly.degree) for poly, mult in self.factorization.factors
        )

    def to_json_dict(self) -> dict:
        doc = {
            "candidate": self.candidate.to_json_dict(),
            "p": self.p,
            "applicable": self.applicable,
            "ramified": self.ramified,
            "e": [e for _, e, _ in self.entries],
            "f": [f for _, _, f in self.entries],
        }
        if self.factorization is not None:
            doc["factorization"] = self.factorization.to_json_dict()
        return doc


def dedekind_kummer_split(c: AlgebraicCandidate, p: int, seed: int = 0) -> SplittingReport:
    """Split p in Q(alpha) by factoring the minimal polynomial mod p.

    Only valid for p not dividing the index; such p yield a report with
    ``applicable=False`` (this is data, not an error).
    """
    ram = ramifies(c, p)
    if c.index % p == 0:
        return SplittingReport(
            candidate=c, p=p, applicable=False, ramified=ram, factorization=None
        )
    reduced = polymod.reduce_mod(c.min_poly, p)
    fact = polymod.factor(reduced, seed=seed)
    return SplittingReport(
        candidate=c, p=p, applicable=True, ramified=ram, factorization=fact
    )
