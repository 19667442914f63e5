"""Non-root certificates for D'Arcais polynomials at algebraic integers.

A certificate either proves that the candidate c is not a root of the
n-th D'Arcais polynomial for g (possibly for a whole residue class of n,
or for every n), or reports Inconclusive.  Certificates come from one
ordered strategy table (``_CHAIN``), cheap closed-form criteria before
factorization-based ones.  Each method reads (g, c, n):

1. ``han_bound``: |alpha| > 9.7226 * (n - 1)  (g = sigma only),
2. ``translated_shift``: the shift criteria mod 2 and mod 3, valid for
   every n (it reads g and c only),
3. ``gaussian_sigma``: the Gaussian-integer criterion mod 3/7 (g = sigma,
   c = a*i + b),
4. ``not_ramified``: the unramified/inert criterion (quadratic c),
5. ``generic_obstruction``: an irreducible factor of the minimal
   polynomial mod p that fails to divide the n-th integer D'Arcais
   polynomial mod p,
6. ``exact_evaluation``: division of the n-th integer D'Arcais
   polynomial by the minimal polynomial over Z (bounded n).

Each method builds one certificate, proven or not, with the same details
keys either way (null where no proof was found).  ``certify``,
``certify_all_n`` and ``verify_certificate`` all read the table; when no
method proves anything the result has method ``"none"``, whose evidence
keeps each method's verdict and no inconclusive certificate.
``scan_grid`` asks the per-n methods in table order without a certificate
per n, from facts computed once per point: a threshold in n, a case of n
mod 7, and the searches the certificates read (witness primes p against n
mod p; a witness at p per class of n, n below p and p + n mod p from p on,
as A_n = A_r * B**l mod p); only ``exact_evaluation`` runs per n, on rows
the scan holds (integers at a = 0).  A method that would raise
``TableExhaustedError`` does not prove.  So past O(n_max) lookups per point,
and the integer rows at a = 0, a scan's cost does not depend on n_max.
Every certificate carries enough recorded inputs to be re-derived bit for
bit (a seed it records is a label that no computation reads);
``verify_certificate`` does exactly that, under the g it is given.  Each
method reads g and raises ``DomainError`` for a g its criterion does not
cover, so replay binds a proof to the g it is checked under.
``check_zmija_conditions`` is an audit report on g, not a certificate.
"""

from __future__ import annotations

import itertools
import json
from math import gcd, inf, isqrt

from . import arith, polymod, series
from .arith import ArithmeticFunction, FrozenValue, replace
from .errors import DomainError, TableExhaustedError, require_at_most
from .numfield import AlgebraicCandidate, CyclotomicShift, QuadraticShift, candidate_family

PROVEN = "proven_nonroot"
INCONCLUSIVE = "inconclusive"

# Bounds on |alpha|**2 are numerators over _ABS_SQ_DEN; 9.7226**2 = _HAN_C_SQ_NUM / _HAN_C_SQ_DEN.
_ABS_SQ_DEN = 4 * 10**16
_HAN_C_SQ_NUM, _HAN_C_SQ_DEN = 97226**2, 10**8


class Scope(FrozenValue):
    """The set of indices n a certificate speaks about."""

    kind: str  # "single" | "residues" | "all"
    n: int | None = None
    modulus: int | None = None
    residues: tuple[int, ...] = ()

    @classmethod
    def single(cls, n: int) -> "Scope":
        return cls(kind="single", n=n)

    @classmethod
    def residue_classes(cls, modulus: int, residues) -> "Scope":
        return cls(kind="residues", modulus=modulus, residues=tuple(sorted(residues)))

    @classmethod
    def all_n(cls) -> "Scope":
        return cls(kind="all")

    def covers(self, n: int) -> bool:
        if n < 1:
            return False
        if self.kind == "single":
            return n == self.n
        if self.kind == "residues":
            return n % self.modulus in self.residues
        return True

    def describe(self) -> str:
        if self.kind == "single":
            return f"n = {self.n}"
        if self.kind == "residues":
            keys = ",".join(str(r) for r in self.residues)
            return f"n = {keys} mod {self.modulus}"
        return "all n >= 1"

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "single":
            doc["n"] = self.n
        elif self.kind == "residues":
            doc["modulus"] = self.modulus
            doc["residues"] = list(self.residues)
        return doc


class Certificate(FrozenValue):
    """Outcome of one certification attempt, with replayable evidence."""

    g_name: str
    candidate: AlgebraicCandidate
    scope: Scope
    verdict: str
    method: str
    details: dict
    evidence: dict
    witness_prime: int | None = None

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN

    def to_json_dict(self) -> dict:
        return {
            "g": self.g_name,
            "candidate": self.candidate.to_json_dict(),
            "scope": self.scope.to_json_dict(),
            "verdict": self.verdict,
            "method": self.method,
            "details": self.details,
            "evidence": self.evidence,
            "witness_prime": self.witness_prime,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# The unramified criterion sieves the primes up to its bound: 1 MB here.
MAX_NOT_RAMIFIED_PRIME_BOUND = 10**6


class CertifyConfig(FrozenValue):
    primes: tuple[int, ...] = (2, 3, 5, 7, 11, 13)
    exact_eval_bound: int = 30
    not_ramified_prime_bound: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for p in self.primes:
            arith.require_prime(p, "configured prime")
            polymod._check_modulus(p)  # a modulus polymod takes: below 2**31
        require_at_most("the not-ramified prime bound", self.not_ramified_prime_bound,
                        MAX_NOT_RAMIFIED_PRIME_BOUND, "sieve")

    def to_json_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "exact_eval_bound": self.exact_eval_bound,
            "not_ramified_prime_bound": self.not_ramified_prime_bound,
            "seed": self.seed,
        }


DEFAULT_CONFIG = CertifyConfig()


# ---------------------------------------------------------------------------
# Absolute-value bound
# ---------------------------------------------------------------------------


def _require_n(n: int) -> None:
    if n < 1:
        raise DomainError(f"certification requires n >= 1, got {n}")


def _ratio(num: int, den: int) -> str:
    """num/den >= 0, den > 0, in lowest terms, as ``str(Fraction(num, den))`` spells it."""
    d = gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def abs_sq_lower_bound(c: AlgebraicCandidate) -> int:
    """A sound lower bound for |alpha|**2 (exact where possible), over ``_ABS_SQ_DEN``."""
    if isinstance(c, QuadraticShift):
        D, a, b = c.D, c.a, c.b
        if D < 0:
            if D % 4 == 1:  # |b + a/2 + a*sqrt(D)/2|**2
                return ((2 * b + a) ** 2 + a * a * -D) * 10**16
            return (b * b - a * a * D) * _ABS_SQ_DEN
        # s/10**8 <= sqrt(D) <= (s + 1)/10**8: a*w + b lies between ends over 2 * 10**8.
        s = isqrt(D * 10**16)
        if D % 4 == 1:  # w = (1 + sqrt(D))/2
            ends = sorted(a * (10**8 + t) + 2 * b * 10**8 for t in (s, s + 1))
        else:
            ends = sorted(2 * (a * t + b * 10**8) for t in (s, s + 1))
        return 0 if ends[0] <= 0 <= ends[1] else min(abs(ends[0]), abs(ends[1])) ** 2
    # |a*zeta + b|**2 = a**2 + b**2 + a*b*(zeta + 1/zeta), exact when the
    # trace zeta + 1/zeta is an integer (-1, 0, 1 for m = 3, 4, 6).
    trace = {3: -1, 4: 0, 6: 1}.get(c.m)
    if trace is not None:
        return (c.a * c.a + trace * c.a * c.b + c.b * c.b) * _ABS_SQ_DEN
    # |a*zeta + b| >= ||b| - |a|| because |zeta| = 1.
    return (abs(c.b) - abs(c.a)) ** 2 * _ABS_SQ_DEN


def _han_reach(abs_sq: int) -> int:
    """The largest n with abs_sq / _ABS_SQ_DEN > (9.7226 * (n - 1))**2, or 0: for t the
    left side over 9.7226**2 > 0, (n - 1)**2 < t exactly when (n - 1)**2 <= ceil(t) - 1."""
    ceil_t = -(-abs_sq * _HAN_C_SQ_DEN // (_ABS_SQ_DEN * _HAN_C_SQ_NUM))
    return isqrt(ceil_t - 1) + 1 if abs_sq > 0 else 0


def _han_open(top: int) -> int:
    """The largest |b| with ``_han_reach(b*b*_ABS_SQ_DEN)`` < top, top >= 1: the reach
    is at least top exactly when the integer b*b > (9.7226 * (top - 1))**2, that is
    when b*b passes the floor of that square."""
    return isqrt((top - 1) ** 2 * _HAN_C_SQ_NUM // _HAN_C_SQ_DEN)


def certify_han_bound(g: ArithmeticFunction, c: AlgebraicCandidate, n: int) -> Certificate:
    """Non-root when |alpha| provably exceeds 9.7226 * (n - 1); sigma only.

    The comparison is done on exact squares, as integer numerators over
    fixed denominators, so there is no boundary fuzz.
    """
    if g.kind != "sigma":
        raise DomainError(f"the absolute-value bound holds for sigma only, got g={g.name!r}")
    _require_n(n)
    lower_sq = abs_sq_lower_bound(c)
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.single(n),
        verdict=PROVEN if n <= _han_reach(lower_sq) else INCONCLUSIVE,
        method="han_bound",
        details={"n": n},
        evidence={
            "abs_sq_lower_bound": _ratio(lower_sq, _ABS_SQ_DEN),
            "threshold_sq": _ratio(_HAN_C_SQ_NUM * (n - 1) ** 2, _HAN_C_SQ_DEN),
        },
    )


# ---------------------------------------------------------------------------
# Closed-form shift criteria (valid for every n >= 1)
# ---------------------------------------------------------------------------


def _g3_is_0_or_1_mod_3(g: ArithmeticFunction) -> bool:
    return (g.n_max is None or g.n_max >= 3) and g(3) % 3 in (0, 1)


def certify_theorem_translated(g: ArithmeticFunction, c: AlgebraicCandidate) -> Certificate:
    """Shift criteria that hold for every n at once.

    Each item pins a prime lens ell not dividing a and shows the minimal
    polynomial keeps a non-linear irreducible factor mod ell while the
    integer D'Arcais polynomials split into linear factors mod ell:

    1. cyclotomic, m has an odd prime factor, a odd           (lens 2),
    2. cyclotomic, m divisible by a prime > 3 or by 4,
       3 does not divide a, g(3) = 0 or 1 mod 3               (lens 3),
    3. quadratic, D = 5 mod 8, a odd                          (lens 2),
    4. quadratic, D = 2 mod 3, 3 does not divide a,
       g(3) = 0 or 1 mod 3                                    (lens 3).
    """
    item = None
    facts: dict = {}
    if isinstance(c, CyclotomicShift):
        odd_primes = [p for p in c.level_primes if p != 2]
        if odd_primes and c.a % 2 != 0:
            item, facts = 1, {"odd_prime_divisor": odd_primes[0]}
        elif (
            (any(p > 3 for p in odd_primes) or c.m % 4 == 0)
            and c.a % 3 != 0
            and _g3_is_0_or_1_mod_3(g)
        ):
            item, facts = 2, {"g3_mod_3": g(3) % 3}
    else:
        if c.D % 8 == 5 and c.a % 2 != 0:
            item, facts = 3, {"D_mod_8": c.D % 8}
        elif c.D % 3 == 2 and c.a % 3 != 0 and _g3_is_0_or_1_mod_3(g):
            item, facts = 4, {"D_mod_3": c.D % 3, "g3_mod_3": g(3) % 3}
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.all_n(),
        verdict=INCONCLUSIVE if item is None else PROVEN,
        method="translated_shift",
        details={"item": item},
        evidence=facts,
        witness_prime=None if item is None else 2 if item in (1, 3) else 3,
    )


# ---------------------------------------------------------------------------
# Gaussian-integer criterion for sigma
# ---------------------------------------------------------------------------

_GAUSSIAN_OK_RESIDUES = (0, 1, 2, 3, 4, 6)  # n mod 7 away from the hard class


def certify_theorem_gaussian_sigma(
    g: ArithmeticFunction, c: AlgebraicCandidate, n: int
) -> Certificate:
    """Non-root of the n-th sigma D'Arcais polynomial at c = a*i + b.

    Case 1: n != 5 mod 7 and 21 does not divide a.
    Case 2: n = 5 mod 7 and one of
        (i) 3 does not divide a,
        (ii) a != 0, 1, -1 mod 7,
        (iii) 7 divides neither a nor b.
    """
    if g.kind != "sigma" or not (isinstance(c, QuadraticShift) and c.D == -1):
        raise DomainError(
            f"the Gaussian criterion holds for sigma at a*i + b only,"
            f" got g={g.name!r} at {c.describe()}"
        )
    _require_n(n)
    a, b = c.a, c.b
    case = None
    if n % 7 != 5:
        residues = _GAUSSIAN_OK_RESIDUES
        if a % 21 != 0:
            case = "1"
    else:
        residues = (5,)
        if a % 3 != 0:
            case = "2i"
        elif a % 7 not in (0, 1, 6):
            case = "2ii"
        elif a % 7 != 0 and b % 7 != 0:
            case = "2iii"
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.single(n) if case is None else Scope.residue_classes(7, residues),
        verdict=INCONCLUSIVE if case is None else PROVEN,
        method="gaussian_sigma",
        details={"n": n, "case": case},
        evidence={"a_mod_21": a % 21, "a_mod_7": a % 7, "b_mod_7": b % 7},
        # The obstruction needs p not dividing a, the index of Z[a*i + b] in
        # Z[i]: p = 3 when 3 does not divide a, else p = 7 (case 1 with 3 | a,
        # and cases 2ii and 2iii).
        witness_prime=None if case is None else 3 if a % 3 else 7,
    )


# ---------------------------------------------------------------------------
# Unramified / inert criterion for quadratic candidates
# ---------------------------------------------------------------------------


def _unramified_search(g: ArithmeticFunction, c: QuadraticShift, bound: int, sieve: list):
    """``n ->`` the first witness (p, case, g(p) mod p, (D|p) or None at p = 2)
    with n mod p < 2, or None.  Witnesses are the primes of ``sieve`` (one list
    per scan: up to ``bound`` and a table's reach) that meet case 1 or 2, read
    in order as searches need them, so g is read only up to the last p asked."""
    if not sieve:
        sieve.extend(arith.primes_up_to(min(bound, g.n_max or bound)))
    found, unread = {}, iter(sieve)  # p -> its witness, for the primes read so far

    def search(n: int):
        for p in itertools.chain(tuple(found), unread):  # the witnesses read so far first
            if p not in found:
                gp = g(p) % p
                legendre = arith.legendre_symbol(c.D, p) if p != 2 else None
                if gp == 0 and (2 * c.a * c.D) % p != 0:
                    found[p] = p, 1, gp, legendre
                elif gp == 1 and p != 2 and c.a % p != 0 and legendre == -1:
                    found[p] = p, 2, gp, legendre
                else:
                    continue
            if n % p < 2:
                return found[p]
            if p > n:  # witnesses ascend: the first above n ends the search
                return None
        return None

    return search


def certify_theorem_not_ramified(
    g: ArithmeticFunction,
    c: AlgebraicCandidate,
    n: int,
    prime_bound: int = DEFAULT_CONFIG.not_ramified_prime_bound,
) -> Certificate:
    """Quadratic-only criterion for n in the classes 0, 1 mod p.

    Case 1: g(p) = 0 mod p and p divides none of 2, a, D (then the n-th
    integer D'Arcais polynomial is X**n mod p while p is unramified).
    Case 2: g(p) = 1 mod p, p odd, p not dividing a, and D a non-residue
    mod p (then p is inert, but the polynomial splits into linear factors
    mod p).

    The search runs over primes up to ``prime_bound`` (capped by the reach
    of a table-backed g) and keeps only primes with n = 0 or 1 mod p.
    """
    if not isinstance(c, QuadraticShift):
        raise DomainError("the unramified criterion applies to quadratic candidates only")
    _require_n(n)
    p, case, gp, legendre = _unramified_search(g, c, prime_bound, [])(n) or (None,) * 4
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.single(n) if p is None else Scope.residue_classes(p, (0, 1)),
        verdict=INCONCLUSIVE if p is None else PROVEN,
        method="not_ramified",
        details={"n": n, "case": case, "p": p, "prime_bound": prime_bound},
        evidence={"g_p_mod_p": gp, "legendre_D_p": legendre},
        witness_prime=p,
    )


# ---------------------------------------------------------------------------
# Generic local obstruction
# ---------------------------------------------------------------------------


def _obstruction_search(g: ArithmeticFunction, f, primes, pieces: dict):
    """``n ->`` the first (p, q, f mod p factored, A_n mod p factored) over
    ``primes`` with q a factor of f mod p missing from A_n mod p, or None.
    ``pieces`` (one dict per scan) holds A_n mod p factored per (p, class of
    n): n below p, p + n mod p from p on, as A_n = A_r * B**l mod p."""
    found = {}  # (p, class of n) -> the witness there at f, or None

    def search(n: int):
        for p in primes:
            key = (p, n if n < p else p + n % p)
            w = found.get(key, False)
            if w is False:
                try:
                    if key not in pieces:
                        pieces[key] = polymod.factor_a_poly_mod(g, n, p)
                    min_fact = polymod.factor(polymod.reduce_mod(f, p))
                    a_irreducibles = {q for q, _ in pieces[key].factors}
                    q = next((q for q, _ in min_fact.factors if q not in a_irreducibles), None)
                    found[key] = w = None if q is None else (p, q, min_fact, pieces[key])
                except TableExhaustedError:
                    found[key] = w = None
            if w is not None:
                return w
        return None

    return search


def certify_generic(
    g: ArithmeticFunction,
    c: AlgebraicCandidate,
    n: int,
    primes=DEFAULT_CONFIG.primes,
    seed: int = DEFAULT_CONFIG.seed,
) -> Certificate:
    """Search the given primes for a local divisibility obstruction.

    If the candidate were a root, its monic minimal polynomial f would
    divide the n-th integer D'Arcais polynomial over Z, hence modulo every
    prime.  A prime p where some irreducible factor of f mod p fails to
    divide the polynomial mod p therefore proves the candidate is not a
    root; p may divide the candidate's index, since the argument never
    reads the prime ideals above p.  Only a prime past the reach of a
    table-backed g is skipped.

    A factor q fails to divide A_n mod p exactly when it is missing from
    the factorization of A_n mod p, which ``polymod.factor_a_poly_mod``
    assembles from pieces of degree at most p; A_n mod p is never built.
    """
    _require_n(n)
    primes = tuple(primes)
    for p in primes:
        arith.require_prime(p, "obstruction prime")
    pieces = {}  # A_n mod p factored per (p, class of n), for each p within reach
    search = _obstruction_search(g, c.min_poly, primes, pieces)
    p, q, min_fact, a_fact = search(n) or (None,) * 4
    assembled = {prime for prime, _ in pieces}
    evidence = {"skipped_primes": [prime for prime in primes if prime not in assembled]}
    if p is not None:
        evidence = {
            "witness_factor": list(q.coeffs),
            "min_poly_mod_p": min_fact.to_json_dict(seed),
            "a_poly_mod_p": a_fact.to_json_dict(seed),
        }
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.single(n),
        verdict=INCONCLUSIVE if p is None else PROVEN,
        method="generic_obstruction",
        details={"n": n, "p": p, "primes": list(primes), "seed": seed},
        evidence=evidence,
        witness_prime=p,
    )


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def certify_exact(g: ArithmeticFunction, c: AlgebraicCandidate, n: int) -> Certificate:
    """Non-root when the monic minimal polynomial f of the candidate leaves
    a nonzero remainder on the n-th integer D'Arcais polynomial.

    The candidate is a root exactly when f divides A_n; f is monic, so the
    division runs over Z.  A_n is built alone (``series.a_poly``); a scan
    holds its rows instead.  The evidence records the remainder (decimal
    strings, constant term first; empty at a root).
    """
    _require_n(n)
    remainder = series.a_poly(g, n) % c.min_poly
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.single(n),
        verdict=INCONCLUSIVE if remainder.is_zero else PROVEN,
        method="exact_evaluation",
        details={"n": n},
        evidence={
            "remainder": [str(v) for v in remainder.coeffs],
            "exact_zero": remainder.is_zero,
        },
    )


# ---------------------------------------------------------------------------
# The strategy chain
# ---------------------------------------------------------------------------


# Each chain method, in the order the chain tries it: when it applies to
# (g, c, n, config), and how to run it from the same inputs.  n is None in
# the all-n scope, where only the all-n criteria apply.  Runners call the
# certify_* functions through their module globals, so a rebinding (for
# instance by a tracer) reaches the chain.
_CHAIN = {
    "han_bound": (
        lambda g, c, n, config: n is not None and g.kind == "sigma",
        lambda g, c, n, config: certify_han_bound(g, c, n),
    ),
    "translated_shift": (
        lambda g, c, n, config: True,
        lambda g, c, n, config: certify_theorem_translated(g, c),
    ),
    "gaussian_sigma": (
        lambda g, c, n, config: n is not None
        and g.kind == "sigma"
        and isinstance(c, QuadraticShift)
        and c.D == -1,
        lambda g, c, n, config: certify_theorem_gaussian_sigma(g, c, n),
    ),
    "not_ramified": (
        lambda g, c, n, config: n is not None and isinstance(c, QuadraticShift),
        lambda g, c, n, config: certify_theorem_not_ramified(
            g, c, n, prime_bound=config.not_ramified_prime_bound
        ),
    ),
    "generic_obstruction": (
        lambda g, c, n, config: n is not None,
        lambda g, c, n, config: certify_generic(
            g, c, n, primes=config.primes, seed=config.seed
        ),
    ),
    "exact_evaluation": (
        lambda g, c, n, config: n is not None and n <= config.exact_eval_bound,
        lambda g, c, n, config: certify_exact(g, c, n),
    ),
}


def _chain(
    g: ArithmeticFunction, c: AlgebraicCandidate, n: int | None, config: CertifyConfig
) -> Certificate:
    """Run every applicable method in table order; first proof wins."""
    attempts = []
    for method, (applies, run) in _CHAIN.items():
        if not applies(g, c, n, config):
            continue
        try:
            cert = run(g, c, n, config)
        except TableExhaustedError:
            attempts.append({"method": method, "verdict": "skipped_table_exhausted"})
            continue
        if cert.proven:
            return cert
        attempts.append({"method": method, "verdict": cert.verdict})
    details = {"config": config.to_json_dict()}
    if n is not None:
        details["n"] = n
    return Certificate(
        g_name=g.name,
        candidate=c,
        scope=Scope.all_n() if n is None else Scope.single(n),
        verdict=INCONCLUSIVE,
        method="none",
        details=details,
        evidence={"attempts": attempts},
    )


def certify(
    g: ArithmeticFunction,
    c: AlgebraicCandidate,
    n: int,
    config: CertifyConfig = DEFAULT_CONFIG,
) -> Certificate:
    """Try every method in order of increasing cost; first proof wins."""
    _require_n(n)
    return _chain(g, c, n, config)


def certify_all_n(
    g: ArithmeticFunction,
    c: AlgebraicCandidate,
    config: CertifyConfig = DEFAULT_CONFIG,
) -> Certificate:
    """Certification for every n >= 1 at once; only all-n criteria qualify."""
    return _chain(g, c, None, config)


# The configuration fields a certificate may record, and where a chain
# method's details record them.
_CONFIG_FIELDS = frozenset(DEFAULT_CONFIG.to_json_dict())
_RECORDED_AS = {"primes": "primes", "not_ramified_prime_bound": "prime_bound", "seed": "seed"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _replay_config(config: CertifyConfig, recorded) -> CertifyConfig:
    """``config`` overridden by the fields a certificate records."""
    if not isinstance(recorded, dict) or not recorded.keys() <= _CONFIG_FIELDS:
        raise DomainError(f"certificate records a malformed configuration {recorded!r}")
    for key, value in recorded.items():
        values = value if key == "primes" else [value]
        if not isinstance(values, list) or not all(map(_is_int, values)):
            raise DomainError(f"certificate records a malformed {key} {value!r}")
    if "primes" in recorded:
        recorded = {**recorded, "primes": tuple(recorded["primes"])}
    return replace(config, **recorded)


def verify_certificate(
    g: ArithmeticFunction,
    cert: Certificate,
    config: CertifyConfig = DEFAULT_CONFIG,
) -> bool:
    """Re-derive the certificate from its recorded inputs and compare bytes.

    A chain method is replayed by its table entry, without the entry's
    applicability test, on the n, primes, seed and prime bound recorded in
    its details; an inconclusive chain result re-runs the whole chain under
    its recorded configuration.  Recorded inputs of the wrong type raise
    ``DomainError`` before anything is replayed.  The replay runs under
    ``g``, and a method raises ``DomainError`` for a g its criterion does
    not cover, so a proof holds only for the g it is checked under.
    """
    c, details = cert.candidate, cert.details
    n = None if cert.scope.kind == "all" else details.get("n")
    if cert.scope.kind != "all" and not (_is_int(n) and n >= 1):
        raise DomainError(f"certificate records no valid n (got {n!r})")
    if cert.method == "none":
        redo = _chain(g, c, n, _replay_config(config, details.get("config", {})))
    elif cert.method in _CHAIN:
        recorded = {f: details[key] for f, key in _RECORDED_AS.items() if key in details}
        _, run = _CHAIN[cert.method]
        redo = run(g, c, n, _replay_config(config, recorded))
    else:
        raise DomainError(f"unknown certificate method {cert.method!r}")
    return redo.canonical_json() == cert.canonical_json()


# ---------------------------------------------------------------------------
# Zmija-style cyclotomic audit
# ---------------------------------------------------------------------------

class ZmijaReport(FrozenValue):
    """Outcome of the three factor-degree conditions mod 5, 7, 11."""

    g_name: str
    cond_mod5: bool
    cond_mod7: bool
    cond_mod11: bool
    evidence: dict

    @property
    def passed(self) -> bool:
        return self.cond_mod5 and self.cond_mod7 and self.cond_mod11

    def to_json_dict(self) -> dict:
        return {
            "g": self.g_name,
            "cond_mod5_no_quadratic_factor": self.cond_mod5,
            "cond_mod7_no_quartic_factor": self.cond_mod7,
            "cond_mod11_no_order6_factor": self.cond_mod11,
            "passed": self.passed,
            "evidence": self.evidence,
        }


def check_zmija_conditions(g: ArithmeticFunction) -> ZmijaReport:
    """Audit the three local splitting conditions that force non-vanishing
    at every root of unity of order >= 3.

    1. mod 5:  no irreducible quadratic factor in the integer D'Arcais
       polynomials of index 3 and 4;
    2. mod 7:  no irreducible quartic factor for indices 2..6;
    3. mod 11: no irreducible factor whose roots have multiplicative order
       dividing 11**6 - 1 but none of 11**d - 1 (d = 1..10, d != 6), which
       reduces to: no irreducible factor of degree 6, for indices 2..10.
       (The roots of an irreducible q != X of degree d lie in F_{11**k}
       exactly when d divides k, so the raw criterion asks for d | 6 and
       d > 3.)  The evidence names both forms.
    """
    g.require_up_to(10)
    evidence: dict = {}

    def offenders(p: int, indices, bad) -> list[dict]:
        found = []
        profiles = {}
        for r in indices:
            fact = polymod.factor_a_poly_mod(g, r, p)
            profiles[str(r)] = fact.degrees()
            for q, _ in fact.factors:
                if bad(q):
                    found.append({"index": r, "factor": list(q.coeffs)})
        evidence[f"mod{p}_degree_profiles"] = profiles
        evidence[f"mod{p}_offenders"] = found
        return found

    bad5 = offenders(5, (3, 4), lambda q: q.degree == 2)
    bad7 = offenders(7, range(2, 7), lambda q: q.degree == 4)
    bad11 = offenders(11, range(2, 11), lambda q: q.degree == 6)
    evidence["mod11_raw_criterion"] = (
        "factor divides X^(11^6-1)-1 and no X^(11^d-1)-1 for d=1..10, d!=6"
    )
    evidence["mod11_reduced_criterion"] = "factor degree equals 6"
    return ZmijaReport(
        g_name=g.name,
        cond_mod5=not bad5,
        cond_mod7=not bad7,
        cond_mod11=not bad11,
        evidence=evidence,
    )


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

STATUS_ALL_N = "all_n"
STATUS_UP_TO_NMAX = "up_to_nmax"
STATUS_PARTIAL = "partial"
STATUS_UNKNOWN = "unknown"


class GridPoint(FrozenValue):
    a: int
    b: int
    status: str
    methods: tuple[str, ...]
    uncertified: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "status": self.status,
            "methods": list(self.methods),
            "uncertified": list(self.uncertified),
        }


class GridResult(FrozenValue):
    g_name: str
    kind: str
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    n_max: int
    config: CertifyConfig
    points: tuple[GridPoint, ...]

    def to_json_dict(self) -> dict:
        return {
            "g": self.g_name,
            "kind": self.kind,
            "a_range": list(self.a_range),
            "b_range": list(self.b_range),
            "n_max": self.n_max,
            "config": self.config.to_json_dict(),
            "points": [pt.to_json_dict() for pt in self.points],
        }

    def to_csv(self) -> str:
        rows = (f"{pt.a},{pt.b},{pt.status},{';'.join(pt.methods)}\n" for pt in self.points)
        return "a,b,status,methods\n" + "".join(rows)


def _grid_point(a: int, b: int, tests: list, n_max: int) -> GridPoint:
    """Settle n = 1..n_max by the first of the tests (method, n -> proves) that proves n."""
    methods, uncertified = set(), []
    for n in range(1, n_max + 1):
        for method, proves in tests:
            if proves(n):
                methods.add(method)
                break
        else:
            uncertified.append(n)
    status = (STATUS_PARTIAL if methods else STATUS_UNKNOWN) if uncertified else STATUS_UP_TO_NMAX
    return GridPoint(
        a=a, b=b, status=status, methods=tuple(sorted(methods)), uncertified=tuple(uncertified)
    )


def _held_rows(g: ArithmeticFunction, top: int):
    """``row(n)``: A_n for g, n <= top, from one list A_0..A_top built at the
    first read (top is checked now).  A scan holds one for all its points."""
    require_at_most("scan_grid: min(n_max, exact_eval_bound)", top, series.MAX_ROWS_N)
    rows = []

    def row(n: int):
        if not rows:
            rows[:] = series.a_poly_list(g, top)
        return rows[n]

    return row


def _rational_integer_tests(g: ArithmeticFunction, b: int, top: int) -> list:
    """The absolute bound, then exact evaluation at the real-axis point b up
    to ``top`` from the integer row of b (``series.row_at``: 0 exactly where
    A_n(b) is), built if the bound leaves some n <= top; an n past the reach
    of g's table stays uncertified, as at a != 0."""
    reach = _han_reach(b * b * _ABS_SQ_DEN) if g.kind == "sigma" else 0
    values = series.row_at(g, b, top) if reach < top else ()
    return [("han_bound", lambda n: n <= reach),
            ("exact_evaluation", lambda n: n <= top and values[n] != 0)]


def _point_tests(
    g: ArithmeticFunction, c: AlgebraicCandidate, config: CertifyConfig, row, last: int,
    pieces: dict, sieve: list
) -> list:
    """The per-n chain at c as tests (method, n -> a proof or a falsy value)
    in table order, each the method's own decision (see the module docstring)
    from the scan's ``pieces``, ``sieve`` and ``row`` up to ``last``,
    at most exact evaluation's bound: applicability reads n only there, so it
    is asked at n = 1.  ``translated_shift`` reads no n: the all-n verdict stands."""
    applicable = {method: applies(g, c, 1, config) for method, (applies, _) in _CHAIN.items()}
    generic = _obstruction_search(g, c.min_poly, config.primes, pieces)

    def exact(n: int) -> bool:  # certify_exact's verdict, past a table's reach too
        return n <= last and not (row(n) % c.min_poly).is_zero

    tests = {"generic_obstruction": generic, "exact_evaluation": exact}
    if applicable["han_bound"]:
        reach = _han_reach(abs_sq_lower_bound(c))
        tests["han_bound"] = lambda n: n <= reach
    if applicable["gaussian_sigma"]:
        # The criterion reads n through n mod 7 alone: one certificate per class.
        proven = [certify_theorem_gaussian_sigma(g, c, r or 7).proven for r in range(7)]
        tests["gaussian_sigma"] = lambda n: proven[n % 7]
    if applicable["not_ramified"]:
        tests["not_ramified"] = _unramified_search(g, c, config.not_ramified_prime_bound, sieve)
    return [(method, tests[method]) for method in _CHAIN if applicable[method] and method in tests]


# The largest walk of a scan, points x n_max: 132 bytes per (point, n)
# (n_max = 10**4..10**5), 64 GiB at this cap, rounded down.
MAX_SCAN_WALK = 5 * 10**8


def scan_grid(
    g: ArithmeticFunction,
    kind: str,
    a_range: tuple[int, int],
    b_range: tuple[int, int],
    n_max: int,
    config: CertifyConfig = DEFAULT_CONFIG,
) -> GridResult:
    """Certify every lattice point of the rectangle, n = 1..n_max.

    Points with a = 0 are rational integers and fall outside the candidate
    types; they are handled by the absolute bound and exact evaluation
    (genuine integer roots show up in their uncertified list).  Points are
    emitted row-major (a ascending, then b) so output files are stable.
    The bounds are resolved once: ``top``, the largest n asked (n_max, cut
    to a table's reach), and ``last``, the largest n exact evaluation reads
    at a != 0 (its bound, cut to ``top``).  The scan holds A_0..A_last over
    Z, built at the first read, A_n mod p factored per (p, class of n) its
    points ask, and one prime sieve; a point with a = 0 reads one integer
    row of values at b up to ``top`` instead of polynomials.  The caps of
    both rows and of the walk are checked before the first point, the a = 0
    row's at the largest |b| of the range whose row is built: under sigma,
    at most ``_han_open(top)``, past which the absolute bound settles every
    n <= top, and no check when it settles every b of the range.
    """
    if n_max < 1:
        raise DomainError(f"scan_grid requires n_max >= 1, got {n_max}")
    for name, (lo, hi) in (("a_range", a_range), ("b_range", b_range)):
        if lo > hi:
            raise DomainError(f"scan_grid requires {name} LO <= HI, got {lo}:{hi}")
    make = candidate_family(kind)  # checks m or D even when every row has a = 0
    top = n_max if g.n_max is None else min(n_max, g.n_max)
    last = min(config.exact_eval_bound, top)
    row = _held_rows(g, last if any(a_range) else 0)  # exact evaluation at a != 0 reads them
    if a_range[0] <= 0 <= a_range[1]:  # a b builds its row unless sigma's bound settles it
        built = min(max(map(abs, b_range)), _han_open(top) if g.kind == "sigma" else inf)
        if max(b_range[0], -b_range[1], 0) <= built:  # some b of the range builds it
            series.row_form(g, top, built)
    walk = (a_range[1] - a_range[0] + 1) * (b_range[1] - b_range[0] + 1) * n_max
    require_at_most("scan_grid: points x n_max", walk, MAX_SCAN_WALK)
    pieces = {}  # (p, class of n) -> A_n mod p factored, for every point
    sieve = []  # the primes not_ramified tries, for every point
    points = []
    for a in range(a_range[0], a_range[1] + 1):
        for b in range(b_range[0], b_range[1] + 1):
            if a == 0:
                points.append(_grid_point(a, b, _rational_integer_tests(g, b, top), n_max))
                continue
            c = make(a, b)
            cert = certify_all_n(g, c, config)
            if cert.proven:
                points.append(GridPoint(a, b, STATUS_ALL_N, (cert.method,), ()))
                continue
            tests = _point_tests(g, c, config, row, last, pieces, sieve)
            points.append(_grid_point(a, b, tests, n_max))
    return GridResult(
        g_name=g.name,
        kind=kind,
        a_range=tuple(a_range),
        b_range=tuple(b_range),
        n_max=n_max,
        config=config,
        points=tuple(points),
    )
