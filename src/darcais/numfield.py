"""Shifted cyclotomic and quadratic generators and their prime splitting.

A candidate is an algebraic integer of the form a*zeta_m + b (cyclotomic
shift) or a*w_D + b (quadratic shift, w_D the standard generator of the
ring of integers of Q(sqrt(D))).  For such generators the index of
Z[alpha] inside the full ring of integers has a closed form, which is
what makes the Dedekind-Kummer analysis trivially applicable away from
finitely many primes.
"""

from __future__ import annotations

from functools import cached_property, partial

from . import arith, polymod
from .arith import FrozenValue
from .errors import DomainError, require_at_most
from .polynomial import IntPoly, cyclotomic
from .polymod import Factorization, ModPoly


# The largest phi(m) whose minimal polynomial (and index) a run builds: the
# degree at which ``minpoly --candidate cyc:m,2,3`` would peak at 64 GiB, from
# its 2.48-2.65 bytes per phi(m)**2 (m = 1009..4001, measured at prime m
# only; Python 3.11, x86-64, the larger of the json and text peaks), rounded
# down.  It is a memory cap, not a time cap: the shift in ``min_poly`` took
# 222 s at cyc:30030,6,1, phi(m) = 5760 (2-vCPU Xeon).
MAX_CYCLOTOMIC_DEGREE = 160000

# The largest level m a candidate takes.  phi(m) and the prime factors of m
# come from trial division up to sqrt(m) (``arith._factorization``), which
# took 0.002 s at m = 1000000007, 0.048 s at 999999999989 and 1.39 s at
# 10**15 + 37 (m prime, Python 3.11, 2-vCPU Xeon), so m is refused past this
# before it is factored.
MAX_CYCLOTOMIC_LEVEL = 10**12


class CyclotomicShift(FrozenValue):
    """Candidate a*zeta_m + b with m >= 3 and a != 0."""

    m: int
    a: int
    b: int

    kind = "cyclotomic"

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"cyclotomic shifts require m >= 3, got {self.m}")
        require_at_most("cyc:m: m", self.m, MAX_CYCLOTOMIC_LEVEL, "trial-division")
        if self.a == 0:
            raise DomainError("a = 0 degenerates to a rational integer")

    @cached_property
    def level_primes(self) -> tuple[int, ...]:
        """The distinct prime factors of m, ascending, by one trial division
        that the candidates of a family share (``candidate_family``)."""
        return tuple(arith.prime_factors(self.m))

    @cached_property
    def degree(self) -> int:
        return arith.euler_phi(self.m, self.level_primes)

    def _capped_degree(self) -> int:
        """phi(m), refused past ``MAX_CYCLOTOMIC_DEGREE`` before anything of
        that size is built; the all-n criteria, which read m alone, have no cap."""
        require_at_most("cyc:m: phi(m)", self.degree, MAX_CYCLOTOMIC_DEGREE)
        return self.degree

    @cached_property
    def min_poly(self) -> IntPoly:
        """Monic, degree phi(m): Phi_m((X - b) / a) with denominators cleared."""
        self._capped_degree()
        phi_m = cyclotomic(self.m)
        deg = phi_m.degree
        shift = IntPoly((-self.b, 1))  # X - b
        result = IntPoly.zero()
        power = IntPoly.one()  # (X - b)**j, built incrementally
        for j, c in enumerate(phi_m.coeffs):
            if c:
                result = result + power * (c * self.a ** (deg - j))
            power = power * shift
        return result

    @cached_property
    def index(self) -> int:
        d = self._capped_degree()
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
    degree = 2

    def __post_init__(self) -> None:
        arith.require_quadratic_d(self.D)
        if self.a == 0:
            raise DomainError("a = 0 degenerates to a rational integer")

    @classmethod
    def gaussian(cls, a: int, b: int) -> "QuadraticShift":
        return cls(D=-1, a=a, b=b)

    @cached_property
    def min_poly(self) -> IntPoly:
        """Monic, degree 2."""
        D, a, b = self.D, self.a, self.b
        if D % 4 == 1:
            # w**2 = w + (D-1)/4, so (X-b)**2 - a(X-b) + a**2 (1-D)/4 kills a*w + b.
            return IntPoly((b * b + a * b + a * a * (1 - D) // 4, -2 * b - a, 1))
        return IntPoly((b * b - a * a * D, -2 * b, 1))

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


class _UnknownFamily(DomainError):
    """A family spec outside the grammar gauss | quad:D | cyc:m."""


# The classes by spec head; each takes D or m, then a and b.  gauss is quad:-1.
_FAMILIES = {"quad": QuadraticShift, "cyc": CyclotomicShift}

# The grammar as the CLI's help and the parse errors spell it.
FAMILY_GRAMMAR = "gauss | quad:D | cyc:m"
CANDIDATE_GRAMMAR = "cyc:m,a,b | quad:D,a,b | gauss:a,b"


def candidate_family(kind: str):
    """The map (a, b) -> candidate of the family 'gauss', 'quad:D' or 'cyc:m'.

    D or m is checked here, once, with the candidate class's own message.
    The level m is factored once, at the family's first candidate, and
    every candidate holds that factorization: a cached property lives in
    the instance dict, outside the fields that ==, hash, repr and JSON read.
    """
    head, _, tail = ("quad:-1" if kind == "gauss" else kind).partition(":")
    try:
        make = partial(_FAMILIES[head], int(tail))
    except (KeyError, ValueError):
        raise _UnknownFamily(
            f"unknown grid kind {kind!r}; expected {FAMILY_GRAMMAR}"
        ) from None
    make(1, 0)  # a = 1 is valid in every family, so only D or m can fail
    if head != "cyc":
        return make
    held = []  # the prime factors of m, from the family's first candidate

    def make_sharing(a: int, b: int) -> CyclotomicShift:
        c = make(a, b)
        if not held:
            held.append(c.level_primes)
        c.__dict__["level_primes"] = held[0]
        return c

    return make_sharing


def parse_candidate(text: str) -> AlgebraicCandidate:
    """Parse 'cyc:m,a,b', 'quad:D,a,b' or 'gauss:a,b': a family spec, then a,b."""
    head, _, tail = text.partition(":")
    fields = tail.split(",")
    try:
        a, b = map(int, fields[-2:])
        make = candidate_family(":".join([head, *fields[:-2]]))
    except ValueError as exc:  # DomainError derives from ValueError
        if isinstance(exc, DomainError) and not isinstance(exc, _UnknownFamily):
            raise  # a well-formed spec with an invalid D or m
        raise DomainError(
            f"malformed candidate {text!r}; expected {CANDIDATE_GRAMMAR}"
        ) from None
    return make(a, b)


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

    def to_json_dict(self, seed: int) -> dict:
        doc = {
            "candidate": self.candidate.to_json_dict(),
            "p": self.p,
            "applicable": self.applicable,
            "ramified": self.ramified,
            "e": [e for _, e, _ in self.entries],
            "f": [f for _, _, f in self.entries],
        }
        if self.factorization is not None:
            doc["factorization"] = self.factorization.to_json_dict(seed)
        return doc


def dedekind_kummer_split(c: AlgebraicCandidate, p: int) -> SplittingReport:
    """Split p in Q(alpha) by factoring the minimal polynomial mod p.

    Only valid for p not dividing the index; such p yield a report with
    ``applicable=False`` (this is data, not an error).  Both closed forms of
    the index are |a|**k with k >= 1, so p divides it exactly when p
    divides a, and the index is never built here.
    """
    ram = ramifies(c, p)
    applicable = c.a % p != 0
    fact = polymod.factor(polymod.reduce_mod(c.min_poly, p)) if applicable else None
    return SplittingReport(candidate=c, p=p, applicable=applicable, ramified=ram,
                           factorization=fact)
