"""Deliberately broken variants of the strategy chain, each caught by named checks.

A variant replaces one function of ``darcais.certify`` with a broken copy,
wherever that function is bound: in the module, whose globals ``certify`` and
``scan_grid`` call through, and in every test module that imported it by
name.  The variants:

* ``_obstruction_search`` accepting every factor of f mod p as a witness,
  whether or not it is missing from A_n mod p;
* ``_obstruction_search`` keying A_n mod p by (p, n mod p) for every n, so
  that n = r + l*p reads A_r mod p without the bracket B**l;
* ``_unramified_search`` taking every prime p with n mod p < 2 as a
  witness, whatever g(p) and (D|p);
* ``translated_shift`` without its test of g(3) mod 3 (items 2 and 4);
* ``gaussian_sigma`` without case 1's condition that 21 not divide a.

Each check is a test of this suite, called as a plain function: the
genuine-root corpus, the closed forms as periodic proofs, the definition
oracles ``generic_obstruction_proves`` and ``not_ramified_proves`` against
the scan's point tests, and the ``oracles.scan_grid_per_n`` byte comparison.
A variant that passed them all would show that they cannot tell a broken
method from the real one, as happened once when ``certify`` and the scan
began to share their searches.  ``oracles.periodic_residues`` has a variant
of its own, without the step that sets aside the factors shared with B.
"""

import ast
import importlib
import inspect
import sys

import pytest

import test_periodic
import test_scan_by_class
from darcais import (ArithmeticFunction, IntPoly, TableExhaustedError, a_poly_mod, arith,
                     factor, polymod, reduce_mod)
from darcais.arith import replace
from darcais.certify import PROVEN, Scope

CERTIFY = importlib.import_module("darcais.certify")
GAUSSIAN = CERTIFY.certify_theorem_gaussian_sigma


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


def keys_by_residue(g, f, primes, pieces):
    """``_obstruction_search`` keying A_n mod p by (p, n mod p) for every n:
    the first n of a class assembles the pieces, so once n = r < p is asked,
    every later n = r + l*p reads A_r mod p, without the factors of B**l."""
    found = {}

    def search(n: int):
        for p in primes:
            key = (p, n % p)
            if key not in found:
                try:
                    if key not in pieces:
                        pieces[key] = polymod.factor_a_poly_mod(g, n, p)
                    min_fact = polymod.factor(polymod.reduce_mod(f, p))
                    a_irreducibles = {q for q, _ in pieces[key].factors}
                    q = next((q for q, _ in min_fact.factors if q not in a_irreducibles), None)
                    found[key] = None if q is None else (p, q, min_fact, pieces[key])
                except TableExhaustedError:
                    found[key] = None
            if found[key] is not None:
                return found[key]
        return None

    return search


def takes_every_prime(g, c, bound, sieve):
    """``_unramified_search`` with both cases dropped: the first prime p within
    the bound and g's reach with n mod p < 2 is the witness."""
    primes = arith.primes_up_to(min(bound, g.n_max or bound))
    return lambda n: next(((p, 1, g(p) % p, None) for p in primes if n % p < 2), None)


def g3_always_fits(g) -> bool:
    """``_g3_is_0_or_1_mod_3`` answering yes: the lens-3 items of
    ``translated_shift`` no longer ask whether A_n splits mod 3."""
    return True


def gaussian_at_every_a(g, c, n):
    """``certify_theorem_gaussian_sigma`` with case 1's condition that 21 not
    divide a dropped: every n != 5 mod 7 is proven, whatever a."""
    cert = GAUSSIAN(g, c, n)
    if cert.proven or n % 7 == 5:
        return cert
    return replace(cert, verdict=PROVEN, details={**cert.details, "case": "1"},
                   scope=Scope.residue_classes(7, CERTIFY._GAUSSIAN_OK_RESIDUES),
                   witness_prime=7)


SIGMA = ArithmeticFunction.sigma()
CLOSED_FORMS = test_periodic.TestClosedFormsArePeriodicProofs()
CHECKS = {
    "genuine-root-corpus":
        test_periodic.TestGenuineRootCorpus().test_certify_proves_no_quadratic_root,
    "translated-shift-is-periodic": CLOSED_FORMS.test_translated_shift_covers_every_residue,
    "gaussian-sigma-is-periodic":
        lambda: CLOSED_FORMS.test_gaussian_sigma_is_covered_mod_3_or_7(SIGMA),
    "definition-oracles": lambda: (
        test_scan_by_class.TestPointTestsMatchTheCertificates().test_each_method_up_to_60(SIGMA)),
    "scan-grid-per-n-bytes": lambda: (
        test_scan_by_class.TestScanMatchesThePerNChain().test_small_rectangles(SIGMA)),
}

# Each variant: the chain method it breaks, the function it replaces, its
# broken copy, and the checks that catch it.  certify asks one n per search,
# so only a scan, which asks many, can tell the class key apart.
VARIANTS = {
    "obstruction-accepts-every-factor": (
        "generic_obstruction", "_obstruction_search", accepts_every_factor,
        ("genuine-root-corpus", "definition-oracles", "scan-grid-per-n-bytes")),
    "obstruction-keys-by-residue": (
        "generic_obstruction", "_obstruction_search", keys_by_residue,
        ("definition-oracles", "scan-grid-per-n-bytes")),
    "unramified-takes-every-prime": (
        "not_ramified", "_unramified_search", takes_every_prime,
        ("genuine-root-corpus", "definition-oracles", "scan-grid-per-n-bytes")),
    "translated-without-g3": (
        "translated_shift", "_g3_is_0_or_1_mod_3", g3_always_fits,
        ("genuine-root-corpus", "translated-shift-is-periodic")),
    "gaussian-at-every-a": (
        "gaussian_sigma", "certify_theorem_gaussian_sigma", gaussian_at_every_a,
        ("gaussian-sigma-is-periodic",)),
}
CASES = [(variant, check) for variant, (*_, checks) in VARIANTS.items() for check in checks]


def install(monkeypatch, name: str, broken) -> None:
    """Bind ``broken`` wherever the function ``darcais.certify.<name>`` is bound."""
    original = getattr(CERTIFY, name)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(module, name, broken)


@pytest.mark.parametrize("variant, check", CASES, ids=[f"{v}-{c}" for v, c in CASES])
def test_the_check_catches_the_variant(monkeypatch, variant, check):
    _, name, broken, _ = VARIANTS[variant]
    install(monkeypatch, name, broken)
    with pytest.raises(AssertionError):
        CHECKS[check]()


def chain_methods_with_wide_scope() -> set[str]:
    """The ``_CHAIN`` methods whose certify_* function can build an all-n or
    a residue-class scope, read from the source of ``darcais.certify``."""
    tree = ast.parse(inspect.getsource(CERTIFY))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (chain,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["_CHAIN"]]
    wide = set()
    for key, entry in zip(chain.keys, chain.values):
        (called,) = [node.func.id for node in ast.walk(entry.elts[1].body)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        scopes = {ast.unparse(node) for node in ast.walk(funcs[called])
                  if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "Scope"}
        if scopes & {"Scope.all_n", "Scope.residue_classes"}:
            wide.add(key.value)
    return wide


def test_every_method_with_all_n_or_residue_scope_has_a_variant():
    wide = chain_methods_with_wide_scope()
    assert wide == {"translated_shift", "gaussian_sigma", "not_ramified"}
    assert wide <= {method for method, *_ in VARIANTS.values()}


def residues_ignoring_bracket(g, f: IntPoly, p: int) -> frozenset[int]:
    """``periodic_residues`` without its step that sets aside the factors
    of f mod p shared with B = X**p - g(p)*X; it is unsound."""
    factors = [q for q, _ in factor(reduce_mod(f, p)).factors]
    return frozenset(
        r for r in range(p) if any(not q.divides(a_poly_mod(g, r, p)) for q in factors)
    )


def test_catches_the_variant_without_the_bracket_step():
    # The genuine-root corpus check, on the oracle's own variant.
    assert len(test_periodic.covered_roots(residues_ignoring_bracket)) > 0
