"""The periodic obstruction as a test oracle, against known roots and proofs.

``oracles.periodic_residues`` states ROADMAP item 1's argument in
membership form: at a prime p it lists the residues r such that the
candidate is a root of no A_n with n = r mod p.  These tests hold it to
three things:

* the claims are sound, against the expanded A_n mod p and against exact
  division over Z;
* it never covers a genuine root from ``tests/data/genuine_roots.json``
  (``tests/test_variants.py`` holds the variant that skips the
  q-coprime-to-B step, which that corpus catches);
* each closed-form proof of ``certify`` is a periodic proof at its prime.

The scan's generic test decides n >= p by the class of n mod p (ROADMAP
item 1, stage a, in membership form); its coverage per residue is held to
the oracle, to the corpus and to the closed forms in the same way.
"""

import importlib.util
import json
from functools import lru_cache
from math import isqrt
from pathlib import Path

from darcais import (
    ArithmeticFunction,
    CertifyConfig,
    CyclotomicShift,
    IntPoly,
    QuadraticShift,
    certify,
    certify_all_n,
    certify_theorem_gaussian_sigma,
    certify_theorem_not_ramified,
    certify_theorem_translated,
    factor,
    factor_a_poly_mod,
    reduce_mod,
)
from darcais.arith import primes_up_to
from darcais.certify import DEFAULT_CONFIG, _held_rows, _obstruction_search, _point_tests
from darcais.series import a_poly_list

from conftest import random_table
from oracles import divides_a_poly_mod, periodic_residues

DATA = Path(__file__).parent / "data"
CORPUS_PRIMES = primes_up_to(29)


def load_corpus() -> list[tuple[ArithmeticFunction, int, IntPoly]]:
    """(g, n0, f) for each entry: f is irreducible and divides A_{n0}."""
    doc = json.loads((DATA / "genuine_roots.json").read_text())
    gs = {"sigma": ArithmeticFunction.sigma(), "id": ArithmeticFunction.identity()}
    for name, values in doc["tables"].items():
        gs[name] = ArithmeticFunction.from_table(values, name=name)
    return [(gs[e["g"]], e["n0"], IntPoly(e["coeffs"])) for e in doc["entries"]]


CORPUS = load_corpus()


def quadratic_shift(f: IntPoly) -> QuadraticShift:
    """The candidate a*w_D + b (a > 0) that is a root of the monic quadratic f."""
    c0, c1, _ = f.coeffs
    disc = c1 * c1 - 4 * c0
    k = max(k for k in range(1, isqrt(abs(disc)) + 1) if disc % (k * k) == 0)
    D = disc // (k * k)
    if D % 4 == 1:  # roots (-c1 +- k*sqrt(D))/2 = k*w - (c1 + k)/2
        return QuadraticShift(D, k, -(c1 + k) // 2)
    return QuadraticShift(D, k // 2, -c1 // 2)


SCAN_PIECES = {}  # g -> the pieces a scan under g holds, shared by every search here


def library_residues(g, f: IntPoly, p: int) -> frozenset[int]:
    """Residues r mod p where the library's generic search finds a witness at
    n = p + r, which a scan reads for every n >= p in the class of r; a p past
    the reach of a table-backed g finds none."""
    search = _obstruction_search(g, f, (p,), SCAN_PIECES.setdefault(g, {}))
    return frozenset(r for r in range(p) if search(p + r) is not None)


def scan_test(g, c, p: int):
    """The scan's generic-obstruction test at c with p as the only prime,
    for every n the tests here ask."""
    config = CertifyConfig(primes=(p,))
    last, pieces = config.exact_eval_bound, SCAN_PIECES.setdefault(g, {})
    (test,) = [t for m, t in _point_tests(g, c, config, _held_rows(g, last), last, pieces, [])
               if m == "generic_obstruction"]
    return lambda n: test(n) is not None


def covered_roots(residues) -> list[tuple[str, int, IntPoly, int]]:
    """Corpus entries (g, n0, f) whose n0 mod p some p <= 29 covers."""
    return [
        (g.name, n0, f, p)
        for g, n0, f in CORPUS
        for p in CORPUS_PRIMES
        if n0 % p in residues(g, f, p)
    ]


class TestGenuineRootCorpus:
    def test_file_matches_its_generator(self):
        spec = importlib.util.spec_from_file_location(
            "make_genuine_roots", DATA / "make_genuine_roots.py"
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        text = (DATA / "genuine_roots.json").read_text()
        assert generator.dumps(generator.build_corpus()) == text

    def test_shape(self):
        assert len(CORPUS) >= 36
        assert {g.name for g, _, _ in CORPUS} == {"sigma", "id", "table1", "table2", "table3"}
        for g in {g for g, _, _ in CORPUS if g.kind == "table"}:
            assert g == random_table(int(g.name[len("table"):]), 40, -20, 20)
        assert all(2 <= f.degree <= 8 and f.leading == 1 for _, _, f in CORPUS)

    def test_each_entry_divides_its_a_poly(self):
        for g, n0, f in CORPUS:
            assert (a_poly_list(g, n0)[n0] % f).is_zero, (g.name, n0, f)

    def test_factors_mod_p_lie_in_the_factored_a_poly(self):
        for g, n0, f in CORPUS:
            for p in CORPUS_PRIMES:
                a_factors = {q for q, _ in factor_a_poly_mod(g, n0, p).factors}
                for q, _ in factor(reduce_mod(f, p)).factors:
                    assert q in a_factors, (g.name, n0, f, p)

    def test_certify_proves_no_quadratic_root(self):
        found = set()
        for g, n0, f in CORPUS:
            if f.degree != 2:
                continue
            c = quadratic_shift(f)
            assert c.min_poly == f
            found.add((g.name, n0, c.spec_string()))
            assert not certify(g, c, n0).proven, (g.name, c)
            assert not certify_all_n(g, c).proven, (g.name, c)
        assert found == {
            ("sigma", 5, "quad:409,1,-11"),
            ("id", 3, "quad:3,1,-3"),
            ("table1", 3, "quad:73,4,16"),
            ("table2", 3, "quad:2721,1,25"),
            ("table3", 3, "quad:89,1,7"),
        }

    def test_periodic_residues_cover_no_root(self):
        assert covered_roots(periodic_residues) == []

    def test_library_coverage_covers_no_root(self):
        assert covered_roots(library_residues) == []


# Candidates, functions and primes for the soundness checks; the primes run
# over n <= 5p + 2, so every n = l*p + r with l <= 5.
SOUND_GS = (
    ArithmeticFunction.sigma(),
    ArithmeticFunction.identity(),
    random_table(1, 40, -20, 20),
)
SOUND_CANDIDATES = (
    *(QuadraticShift(D, a, b) for D in (-1, -2, -3, 2, 5) for a in (1, 2) for b in (-2, 0, 3)),
    *(CyclotomicShift(m, a, b) for m in (3, 5, 8) for a in (1, -2) for b in (-1, 2)),
    QuadraticShift(3, 1, -3),
    QuadraticShift(409, 1, -11),
)
SOUND_PRIMES = (2, 3, 5, 7)


class TestPeriodicResiduesAreSound:
    def test_against_a_poly_mod_p(self):
        checks = 0
        for g in SOUND_GS:
            for c in SOUND_CANDIDATES:
                for p in SOUND_PRIMES:
                    f_p = reduce_mod(c.min_poly, p)
                    for r in periodic_residues(g, c.min_poly, p):
                        for n in range(r or p, 5 * p + 3, p):
                            checks += 1
                            assert not divides_a_poly_mod(f_p, g, n, p), (g.name, c, p, n)
        assert checks > 2000

    def test_against_exact_division(self):
        checks = 0
        for g in SOUND_GS:
            a_polys = a_poly_list(g, 30)
            for c in SOUND_CANDIDATES:
                for p in SOUND_PRIMES:
                    for r in periodic_residues(g, c.min_poly, p):
                        for n in range(r or p, 31, p):
                            checks += 1
                            assert not (a_polys[n] % c.min_poly).is_zero, (g.name, c, p, n)
        assert checks > 2000


class TestLibraryCoverageIsTheOracle:
    # Sigma, the identity, three seeded tables and one that stops short of
    # the primes 11 and 13, where neither side covers anything.
    GS = (*SOUND_GS[:2], *(random_table(seed, 40, -20, 20) for seed in (2, 4, 6)),
          random_table(8, 8, -20, 20))

    def test_per_residue_at_every_configured_prime(self):
        covered = 0
        for g in self.GS:
            for c in SOUND_CANDIDATES:
                for p in DEFAULT_CONFIG.primes:
                    want = periodic_residues(g, c.min_poly, p)
                    assert library_residues(g, c.min_poly, p) == want, (g.name, c, p)
                    test = scan_test(g, c, p)
                    for r in range(p):
                        got = {test(n) for n in (p + r, 7 * p + r, 10**6 * p + r, 10**12 * p + r)}
                        assert got == {r in want}, (g.name, c, p, r)
                    covered += len(want)
        assert covered > 3000


# ROADMAP item 3, step 1, in residue-class form; the per-n form is
# test_certify.TestClosedFormsAreGenericProofs.
CLOSED_FORM_GS = (
    ArithmeticFunction.sigma(),
    ArithmeticFunction.identity(),
    *(random_table(seed, 60, -20, 20) for seed in (3, 5, 7)),
)
CLOSED_FORM_QUADS = tuple(
    QuadraticShift(D, a, b)
    for D in (-1, -2, -3, -5, -7, -11, 2, 3, 5, 13)
    for a in range(1, 5)
    for b in range(-4, 5)
)
CLOSED_FORM_CYCS = tuple(
    CyclotomicShift(m, a, b) for m in (3, 4, 5, 7, 8, 9, 12) for a in (1, 2, 3) for b in range(-3, 4)
)


@lru_cache(maxsize=None)
def residues(g, c, p: int) -> frozenset[int]:
    """The oracle's coverage at p, checked against the scan's generic test."""
    want = periodic_residues(g, c.min_poly, p)
    test = scan_test(g, c, p)
    assert frozenset(r for r in range(p) if test(p + r)) == want, (g.name, c, p)
    return want


class TestClosedFormsArePeriodicProofs:
    def test_translated_shift_covers_every_residue(self):
        proofs = 0
        for g in CLOSED_FORM_GS:
            for c in CLOSED_FORM_QUADS + CLOSED_FORM_CYCS:
                cert = certify_theorem_translated(g, c)
                if cert.proven:
                    proofs += 1
                    p = cert.witness_prime
                    assert residues(g, c, p) == frozenset(range(p)), (g.name, c)
        assert proofs > 1000

    def test_not_ramified_covers_zero_and_one(self):
        proofs = 0
        for g in CLOSED_FORM_GS:
            for c in CLOSED_FORM_QUADS:
                for n in range(1, 13):
                    cert = certify_theorem_not_ramified(g, c, n)
                    if cert.proven:
                        proofs += 1
                        assert {0, 1} <= residues(g, c, cert.details["p"]), (g.name, c, n)
        assert proofs > 5000

    def test_gaussian_sigma_is_covered_mod_3_or_7(self, sigma_g):
        proofs = 0
        for a in (*range(1, 9), 14, 21):
            for b in range(-6, 7):
                c = QuadraticShift.gaussian(a, b)
                for n in range(1, 15):
                    if certify_theorem_gaussian_sigma(sigma_g, c, n).proven:
                        proofs += 1
                        assert any(n % p in residues(sigma_g, c, p) for p in (3, 7)), (c, n)
        assert proofs > 500
