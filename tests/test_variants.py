"""Deliberately broken variants of the strategy chain, each caught by named checks.

A variant replaces one function of ``darcais.certify`` (through the module
global, which ``certify`` and ``scan_grid`` both call) with a broken copy:

* ``_obstruction_search`` accepting every factor of f mod p as a witness,
  whether or not it is missing from A_n mod p;
* ``_unramified_search`` taking every prime p with n mod p < 2 as a
  witness, whatever g(p) and (D|p).

Each check is a test of this suite, called as a plain function: the
genuine-root corpus, the definition oracles ``generic_obstruction_proves``
and ``not_ramified_proves`` against the scan's point tests, and the
``oracles.scan_grid_per_n`` byte comparison.  A variant that passed them all
would show that they cannot tell a broken search from the real one, as
happened once when ``certify`` and the scan began to share these searches.
"""

import importlib

import pytest

import test_periodic
import test_scan_by_class
from darcais import ArithmeticFunction, TableExhaustedError, arith, polymod

CERTIFY = importlib.import_module("darcais.certify")


def accepts_every_factor(g, f, primes, pieces):
    """``_obstruction_search`` with its test dropped: the first factor of
    f mod p at the first prime within g's reach is the witness."""

    def search(n: int):
        for p in primes:
            try:
                a_fact = polymod.factor_a_poly_mod(g, n, p)
            except TableExhaustedError:
                continue
            min_fact = polymod.factor(polymod.reduce_mod(f, p))
            return p, min_fact.factors[0][0], min_fact, a_fact
        return None

    return search


def takes_every_prime(g, c, bound, sieve):
    """``_unramified_search`` with both cases dropped: the first prime p within
    the bound and g's reach with n mod p < 2 is the witness."""
    primes = arith.primes_up_to(min(bound, g.n_max or bound))
    return lambda n: next(((p, 1, g(p) % p, None) for p in primes if n % p < 2), None)


SIGMA = ArithmeticFunction.sigma()
CHECKS = {
    "genuine-root-corpus":
        test_periodic.TestGenuineRootCorpus().test_certify_proves_no_quadratic_root,
    "definition-oracles": lambda: (
        test_scan_by_class.TestPointTestsMatchTheCertificates().test_each_method_up_to_60(SIGMA)),
    "scan-grid-per-n-bytes": lambda: (
        test_scan_by_class.TestScanMatchesThePerNChain().test_small_rectangles(SIGMA)),
}

# Each variant: the function it replaces, its broken copy, and the checks
# that catch it.  Under sigma and the default primes the real generic search
# proves every n the definition-oracle check asks, so that check cannot tell
# the first variant from it; the corpus and the byte comparison do.
VARIANTS = {
    "obstruction-accepts-every-factor": (
        "_obstruction_search", accepts_every_factor,
        ("genuine-root-corpus", "scan-grid-per-n-bytes")),
    "unramified-takes-every-prime": (
        "_unramified_search", takes_every_prime, tuple(CHECKS)),
}
CASES = [(variant, check) for variant, (_, _, checks) in VARIANTS.items() for check in checks]


@pytest.mark.parametrize("variant, check", CASES, ids=[f"{v}-{c}" for v, c in CASES])
def test_the_check_catches_the_variant(monkeypatch, variant, check):
    name, broken, _ = VARIANTS[variant]
    monkeypatch.setattr(CERTIFY, name, broken)
    with pytest.raises(AssertionError):
        CHECKS[check]()
