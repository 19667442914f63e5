"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every expected value here is either a frozen constant
verified by an in-test independent oracle, or recomputed from one.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from darcais import (
    ArithmeticFunction,
    IntPoly,
    a_poly,
    a_poly_mod,
    certify,
    certify_all_n,
    check_zmija_conditions,
    euler_phi,
    hurwitz_check,
    reduce_mod,
    tau_list,
    verify_certificate,
)
from darcais.numfield import CyclotomicShift, QuadraticShift
from darcais.polymod import ModPoly
from darcais.series import a_poly_list

from conftest import SIGMA_FACTORED, expand_product, random_table
from oracles import (
    a_poly_oracle,
    evaluate_at_cyclotomic,
    evaluate_at_quadratic,
    index_via_determinant,
    is_irreducible_rabin,
    series_oracle,
)

SIGMA = ArithmeticFunction.sigma()
IDENTITY = ArithmeticFunction.identity()


@contextmanager
def budget(label, seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL after {time.monotonic() - start:.2f}s")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= seconds:
        print(f"[{label}] FAIL: took {elapsed:.1f}s (budget {seconds}s)")
        pytest.fail(f"{label} exceeded its {seconds}s budget ({elapsed:.1f}s)")
    print(f"[{label}] PASS in {elapsed:.2f}s (budget {seconds}s)")


def test_ac01_golden_factor_table():
    with budget("AC-01 golden factor table", 1):
        for n, factors in SIGMA_FACTORED.items():
            assert a_poly(SIGMA, n) == expand_product(factors), n


def test_ac02_prime_index_proposition():
    with budget("AC-02 prime-index form mod p", 5):
        tables = [random_table(seed, 14) for seed in (1001, 1002, 1003)]
        for g in [SIGMA, IDENTITY] + tables:
            for p in (2, 3, 5, 7, 11, 13):
                lhs = reduce_mod(a_poly(g, p), p)
                rhs = ModPoly(p, [0, -g(p)] + [0] * (p - 2) + [1])
                assert lhs == rhs, (g.name, p)


def test_ac03_splitting_lemma():
    with budget("AC-03 splitting recursion mod p", 10):
        for g in (SIGMA, IDENTITY):
            for p in (2, 3, 5, 7):
                base = reduce_mod(a_poly(g, p), p)
                for ell in range(6):
                    for r in range(p):
                        n = ell * p + r
                        lhs = reduce_mod(a_poly(g, n), p)
                        rhs = reduce_mod(a_poly(g, r), p) * base**ell
                        assert lhs == rhs, (g.name, p, ell, r)
                        assert a_poly_mod(g, n, p) == lhs


def test_ac04_oracle_triangle():
    with budget("AC-04 oracle triangle", 60):
        gs = [SIGMA, IDENTITY, random_table(2024, 16)]
        for g in gs:
            for n in range(16):
                assert a_poly(g, n) == a_poly_oracle(g, n), (g.name, n)
        for g in gs:
            for x in range(-24, 25):
                coeffs = series_oracle(g, x, 15)
                for n in range(16):
                    want = Fraction(a_poly(g, n).evaluate(x), factorial(n))
                    assert coeffs[n] == want, (g.name, x, n)


def test_ac05_index_cross_validation():
    with budget("AC-05 index cross-validation", 30):
        for m in range(3, 21):
            phi = euler_phi(m)
            exponent = phi * (phi - 1) // 2
            for a in list(range(-5, 0)) + list(range(1, 6)):
                want = abs(a) ** exponent
                for b in range(-5, 6):
                    assert index_via_determinant(m, a, b) == want, (m, a, b)


def test_ac06_desk_scale_lehmer():
    with budget("AC-06 desk-scale Lehmer scan", 120):
        values = tau_list(10_000)
        # independent product-form oracle for the head of the sequence
        order = 5
        series = [1] + [0] * order
        for k in range(1, order + 1):
            for _ in range(24):
                for i in range(order, k - 1, -1):
                    series[i] -= series[i - k]
        assert series == [1, -24, 252, -1472, 4830, -6048]
        assert values[:6] == series
        zeros = [i + 1 for i, v in enumerate(values) if v == 0]
        assert zeros == []


def test_ac07_gaussian_soundness_sweep():
    with budget("AC-07 Gaussian soundness sweep", 600):
        from darcais import factor

        # The mod-7 structure the Gaussian criterion rests on: away from the
        # classes 5 and 6 everything splits linearly; in class 5 the unique
        # nonlinear factor is X**2 + 1; in class 6 it is the cubic
        # X**3 - X**2 - X + 4.
        for n in range(1, 31):
            fact = factor(a_poly_mod(SIGMA, n, 7))
            nonlinear = [q for q, _ in fact.factors if q.degree > 1]
            if n % 7 == 5:
                assert [q.coeffs for q in nonlinear] == [(1, 0, 1)]
                assert is_irreducible_rabin(nonlinear[0])
            elif n % 7 == 6:
                assert [q.coeffs for q in nonlinear] == [(4, 6, 6, 1)]
                assert is_irreducible_rabin(nonlinear[0])
            else:
                assert nonlinear == []

        polys = [a_poly(SIGMA, n) for n in range(31)]
        checked = 0
        for a in range(-10, 11):
            if a == 0:
                continue
            for b in range(-10, 11):
                c = QuadraticShift.gaussian(a, b)
                blanket = certify_all_n(SIGMA, c)
                for n in range(1, 31):
                    cert = blanket if blanket.proven else certify(SIGMA, c, n)
                    assert cert.proven, (a, b, n)
                    assert cert.scope.covers(n), (a, b, n)
                    value = evaluate_at_quadratic(polys[n], -1, a, b)
                    assert value != (0, 0), (a, b, n)
                    checked += 1
        assert checked == 420 * 30


def test_ac08_zmija_audit():
    with budget("AC-08 Zmija audit", 5):
        report = check_zmija_conditions(SIGMA)
        assert report.cond_mod5 and report.cond_mod7 and report.cond_mod11
        adversarial = ArithmeticFunction.from_table(
            [1, 5, 1, 1, 1, 1, 1, 1, 1, 1], name="adversarial"
        )
        bad = check_zmija_conditions(adversarial)
        assert not bad.cond_mod5
        assert not bad.passed


def test_ac09_cyclotomic_nonroot_spot_check():
    with budget("AC-09 cyclotomic spot check", 120):
        for m in range(3, 13):
            c = CyclotomicShift(m, 1, 0)
            blanket = certify_all_n(SIGMA, c)
            for n in range(1, 21):
                cert = blanket if blanket.proven else certify(SIGMA, c, n)
                assert cert.proven, (m, n)
                if n <= 10:
                    vec = evaluate_at_cyclotomic(a_poly(SIGMA, n), m, 1, 0)
                    assert any(vec), (m, n)


def test_ac10_hurwitz_exploration():
    with budget("AC-10 Hurwitz exploration", 60):
        # A_n/X = n! * P_n/X, a positive multiple with the same roots.
        rows = a_poly_list(SIGMA, 120)
        reduced = {n: IntPoly(rows[n].coeffs[1:]) for n in range(1, 121)}
        failures = [n for n, h in reduced.items() if not hurwitz_check(h)]
        if failures:
            pytest.fail(
                "notable finding: the reduced polynomials are not Hurwitz at "
                f"n = {failures}; coefficients: "
                + "; ".join(str(reduced[n]) for n in failures)
            )


def test_ac11_generic_obstruction_at_a_million():
    # n = 5*200000 + 1; 2 and 3 divide the index and the shift criteria do
    # not apply, so only the mod-5 obstruction can settle this n.
    c = CyclotomicShift(8, 6, 1)
    n = 1_000_001
    with budget("AC-11 generic obstruction at n = 1000001", 1):
        cert = certify(SIGMA, c, n)
    assert cert.proven
    assert cert.method == "generic_obstruction" and cert.witness_prime == 5
    assert verify_certificate(SIGMA, cert)


def test_ac12_tau_growth_guard():
    # On a 2-vCPU Xeon the O(N^2) recurrence needs over 20 s for this N and the
    # squaring kernel about 0.5 s, so a return to quadratic cost fails the budget.
    with budget("AC-12 tau_list(20000) growth guard", 10):
        values = tau_list(20_000)
    assert len(values) == 20_000
    assert values[:6] == [1, -24, 252, -1472, 4830, -6048]


def test_ac13_generic_obstruction_growth_guard():
    # The same obstruction at n = 5*(2*10**11) + 1: certifying and replaying
    # must cost O(log n).  A route that writes out A_n mod 5 (degree n) or
    # divides by the witness factor at full degree cannot finish at all.
    c = CyclotomicShift(8, 6, 1)
    n = 10**12 + 1
    with budget("AC-13 generic obstruction at n = 10**12 + 1", 1):
        cert = certify(SIGMA, c, n)
        replayed = verify_certificate(SIGMA, cert)
    assert cert.proven
    assert cert.method == "generic_obstruction" and cert.witness_prime == 5
    assert replayed

