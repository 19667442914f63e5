import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import (
    ArithmeticFunction,
    CertifyConfig,
    CyclotomicShift,
    DomainError,
    IntPoly,
    QuadraticShift,
    a_poly,
    certify,
    certify_all_n,
    certify_exact,
    certify_generic,
    certify_han_bound,
    certify_theorem_gaussian_sigma,
    certify_theorem_not_ramified,
    certify_theorem_translated,
    check_zmija_conditions,
    factor_a_poly_mod,
    parse_candidate,
    scan_grid,
    series,
    verify_certificate,
)
from darcais.arith import replace
from darcais.certify import (
    _ABS_SQ_DEN,
    INCONCLUSIVE,
    PROVEN,
    Scope,
    _han_reach,
    _held_rows,
    _point_tests,
    abs_sq_lower_bound,
)
from darcais.polymod import ModPoly

from conftest import clear_library_caches, random_table
from oracles import (
    HAN_C_SQ,
    abs_sq_lower_bound_fraction,
    evaluate_at_cyclotomic,
    evaluate_at_quadratic,
    han_reach_fraction,
    is_irreducible_rabin,
    zmija_order_six,
)

ORACLE_GS = (
    ArithmeticFunction.sigma(),
    ArithmeticFunction.identity(),
    *(random_table(seed, 40) for seed in (1, 2, 3)),
)


# Wide grids: sigma, identity and three signed tables long enough for every
# prime up to the default not-ramified bound of 50.
WIDE_GS = (
    ArithmeticFunction.sigma(),
    ArithmeticFunction.identity(),
    *(random_table(seed, 60, -20, 20) for seed in (3, 5, 7)),
)
WIDE_QUADS = tuple(
    QuadraticShift(D, a, b)
    for D in (-1, -2, -3, -5, -7, -11, -17, 2, 3, 5, 13)
    for a in range(1, 7)
    for b in range(-6, 7)
)
WIDE_CYCS = tuple(
    CyclotomicShift(m, a, b)
    for m in (3, 4, 5, 7, 8, 9, 12)
    for a in range(1, 7)
    for b in range(-6, 7)
)


def evaluate_at(poly, c):
    """The value of poly at the candidate, in the power basis of its ring."""
    if isinstance(c, QuadraticShift):
        return evaluate_at_quadratic(poly, c.D, c.a, c.b)
    return evaluate_at_cyclotomic(poly, c.m, c.a, c.b)


def exact_nonzero(g, c, n):
    return any(evaluate_at(a_poly(g, n), c))


class TestScope:
    def test_single(self):
        s = Scope.single(5)
        assert s.covers(5) and not s.covers(6) and not s.covers(0)

    def test_residues(self):
        s = Scope.residue_classes(7, (0, 1))
        assert s.covers(7) and s.covers(8) and not s.covers(9)

    def test_all(self):
        s = Scope.all_n()
        assert s.covers(1) and s.covers(10**9) and not s.covers(0)


class TestHanBound:
    def test_fires_far_from_origin(self, sigma_g):
        cert = certify_han_bound(sigma_g, QuadraticShift.gaussian(1, 10**6), 2)
        assert cert.verdict == PROVEN

    def test_boundary_is_strict(self, sigma_g):
        # |alpha| = 10 at n = 2 needs |alpha| > 9.7226 exactly once
        c = QuadraticShift.gaussian
        assert certify_han_bound(sigma_g, c(6, 8), 2).verdict == PROVEN
        assert certify_han_bound(sigma_g, c(3, 4), 2).verdict == INCONCLUSIVE

    def test_integer_bound_is_the_fraction_definition(self, sigma_g):
        # 10**4 seeded candidates: complex and real quadratic, D = 1 mod 4 and
        # not, real points near 0 (where the bracket of sqrt(D) decides),
        # cyclotomic with an exact trace (m = 3, 4, 6) and by the margin.
        rng = random.Random(34)
        complex_d, real_d = (-1, -2, -3, -5, -7, -15, -21, -23), (2, 3, 5, 6, 13, 17, 21, 33)
        cases = []
        for _ in range(2000):
            a, b = rng.choice((1, -1)) * rng.randint(1, 10**4), rng.randint(-10**4, 10**4)
            cases.append(QuadraticShift(rng.choice(complex_d), a, b))
            D = rng.choice(real_d)
            cases.append(QuadraticShift(D, a, b))
            w = (1 + math.sqrt(D)) / 2 if D % 4 == 1 else math.sqrt(D)
            cases.append(QuadraticShift(D, a, -round(a * w) + rng.randint(-2, 2)))
            cases.append(CyclotomicShift(rng.choice((3, 4, 6)), a, b))
            m = rng.choice((5, 7, 8, 9, 12, 15))
            cases.append(CyclotomicShift(m, a, rng.choice((b, a, -a, a + 1))))
        for D in real_d:  # the convergents -b/a of w = (P + sqrt(D))/Q, a < 10**7
            P, Q = (1, 2) if D % 4 == 1 else (0, 1)
            h, h0, k, k0 = 1, 0, 0, 1
            while k < 10**7:
                t = (P + math.isqrt(D)) // Q
                h, h0, k, k0 = t * h + h0, h, t * k + k0, k
                P, Q = t * Q - P, (D - (t * Q - P) ** 2) // Q
                cases += [QuadraticShift(D, k, d - h) for d in (-1, 0, 1)]
        assert len(cases) >= 10**4
        # Some brackets of a*w + b straddle 0 with |alpha| > 0.
        assert any(c.D > 0 and abs_sq_lower_bound(c) == 0 for c in cases[10**4:])
        for c in cases:
            lower = abs_sq_lower_bound_fraction(c)
            reach = _han_reach(abs_sq_lower_bound(c))
            assert reach == han_reach_fraction(lower), c
            for n in {1, max(reach, 1), reach + 1}:
                cert = certify_han_bound(sigma_g, c, n)
                assert cert.proven == (n <= reach), (c, n)
                assert cert.evidence == {"abs_sq_lower_bound": str(lower),
                                         "threshold_sq": str(HAN_C_SQ * (n - 1) ** 2)}, (c, n)
        assert {_han_reach(abs_sq_lower_bound(c)) for c in cases} >= {0, 1}
        c = QuadraticShift.gaussian(1, 0)
        for n in range(1, 3000):
            want = str(HAN_C_SQ * (n - 1) ** 2)
            assert certify_han_bound(sigma_g, c, n).evidence["threshold_sq"] == want, n

    def test_lower_bounds_are_sound(self):
        # exact for complex quadratic, bracketing for real, reverse triangle
        # inequality for cyclotomic; all must stay below the true modulus
        import math

        cases = [
            QuadraticShift(-1, 3, 4),
            QuadraticShift(-3, 2, -5),
            QuadraticShift(5, 2, 1),
            QuadraticShift(2, -3, 2),
            CyclotomicShift(5, 2, 9),
            CyclotomicShift(8, 3, -1),
        ]
        for c in cases:
            lower = abs_sq_lower_bound(c)
            if isinstance(c, QuadraticShift):
                w = math.sqrt(abs(c.D))
                if c.D % 4 == 1:
                    alpha = complex(c.b + c.a / 2, c.a * w / 2) if c.D < 0 else c.a * (1 + w) / 2 + c.b
                else:
                    alpha = complex(c.b, c.a * w) if c.D < 0 else c.a * w + c.b
            else:
                zeta = complex(math.cos(2 * math.pi / c.m), math.sin(2 * math.pi / c.m))
                alpha = c.a * zeta + c.b
            assert lower / _ABS_SQ_DEN <= abs(alpha) ** 2 + 1e-9

    def test_quadratic_roots_of_unity_are_exact(self):
        # zeta_4 = i and zeta_3 = w_{-3} - 1, so a*zeta_4 + b is gauss:a,b and
        # a*zeta_3 + b is quad:-3,a,b-a; zeta_6 = -zeta_3**2 = zeta_3 + 1.
        import cmath

        for a in range(-10, 11):
            if a == 0:
                continue
            for b in range(-10, 11):
                m3, m4, m6 = (abs_sq_lower_bound(CyclotomicShift(m, a, b)) for m in (3, 4, 6))
                assert m4 == abs_sq_lower_bound(QuadraticShift.gaussian(a, b))
                assert m3 == abs_sq_lower_bound(QuadraticShift(-3, a, b - a))
                assert m6 == abs_sq_lower_bound(CyclotomicShift(3, a, a + b))
                assert m4 == (a * a + b * b) * _ABS_SQ_DEN
                assert m3 == (a * a - a * b + b * b) * _ABS_SQ_DEN
                assert m6 == (a * a + a * b + b * b) * _ABS_SQ_DEN
                for m, value in ((3, m3), (4, m4), (6, m6)):
                    alpha = a * cmath.exp(2j * cmath.pi / m) + b
                    assert abs(value / _ABS_SQ_DEN - abs(alpha) ** 2) < 1e-9, (m, a, b)

    def test_cyclotomic_and_gaussian_spellings_agree(self, sigma_g):
        # |3i - 3|**2 = 18 proves n = 1 under both spellings (the reverse
        # triangle inequality gave 0 for cyc:4,3,-3) and falls short at n = 2.
        for n, verdict in ((1, PROVEN), (2, INCONCLUSIVE)):
            cyc = certify_han_bound(sigma_g, CyclotomicShift(4, 3, -3), n)
            gauss = certify_han_bound(sigma_g, QuadraticShift.gaussian(3, -3), n)
            assert cyc.verdict == gauss.verdict == verdict
            assert cyc.evidence == gauss.evidence

    def test_n1_needs_positive_bound(self, sigma_g):
        assert certify_han_bound(sigma_g, QuadraticShift.gaussian(1, 5), 1).verdict == PROVEN
        # equal |a| and |b| gives a zero cyclotomic bound: inconclusive
        assert certify_han_bound(sigma_g, CyclotomicShift(5, 2, 2), 1).verdict == INCONCLUSIVE


class TestTranslatedShift:
    def test_item1(self, sigma_g):
        cert = certify_theorem_translated(sigma_g, CyclotomicShift(6, 3, 0))
        assert cert.verdict == PROVEN and cert.details["item"] == 1
        assert cert.scope.kind == "all"

    def test_item2(self, sigma_g):
        cert = certify_theorem_translated(sigma_g, CyclotomicShift(4, 2, 1))
        assert cert.verdict == PROVEN and cert.details["item"] == 2

    def test_item3(self, sigma_g):
        cert = certify_theorem_translated(sigma_g, QuadraticShift(5, 1, 2))
        assert cert.verdict == PROVEN and cert.details["item"] == 3

    def test_item4_fires_for_gaussian(self, sigma_g):
        cert = certify_theorem_translated(sigma_g, QuadraticShift(-1, 2, 0))
        assert cert.verdict == PROVEN and cert.details["item"] == 4

    def test_power_of_two_level_with_even_a(self, sigma_g):
        cert = certify_theorem_translated(sigma_g, CyclotomicShift(8, 6, 0))
        assert cert.verdict == INCONCLUSIVE

    def test_g3_condition_gates_items_2_and_4(self):
        g_bad = ArithmeticFunction.from_table([1, 1, 2, 1], name="g3is2")
        cert = certify_theorem_translated(g_bad, QuadraticShift(-1, 2, 0))
        assert cert.verdict == INCONCLUSIVE
        cert2 = certify_theorem_translated(g_bad, CyclotomicShift(4, 1, 0))
        assert cert2.verdict == INCONCLUSIVE
        # but item 1 needs nothing from g
        cert3 = certify_theorem_translated(g_bad, CyclotomicShift(3, 1, 0))
        assert cert3.verdict == PROVEN and cert3.details["item"] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(3, 16),
        a=st.integers(-6, 6).filter(lambda a: a != 0),
        b=st.integers(-6, 6),
        g_tail=st.lists(st.integers(-9, 9), min_size=8, max_size=12),
        n=st.integers(1, 8),
    )
    def test_proofs_verified_by_exact_evaluation(self, m, a, b, g_tail, n):
        g = ArithmeticFunction.from_table([1] + g_tail)
        c = CyclotomicShift(m, a, b)
        cert = certify_theorem_translated(g, c)
        if cert.verdict == PROVEN:
            item = cert.details["item"]
            if item == 1:
                assert a % 2 != 0
                assert any(m % p == 0 for p in (3, 5, 7, 11, 13))
            else:
                assert a % 3 != 0 and g(3) % 3 in (0, 1)
                assert m % 4 == 0 or any(m % p == 0 for p in (5, 7, 11, 13))
            assert exact_nonzero(g, c, n)


class TestGaussianSigma:
    def test_case1(self, sigma_g):
        cert = certify_theorem_gaussian_sigma(sigma_g, QuadraticShift.gaussian(1, 0), 3)
        assert cert.verdict == PROVEN and cert.details["case"] == "1"
        assert cert.scope.covers(3) and not cert.scope.covers(5)

    def test_case2_subcases(self, sigma_g):
        c = QuadraticShift.gaussian
        assert certify_theorem_gaussian_sigma(sigma_g, c(3, 1), 5).details["case"] == "2ii"
        assert certify_theorem_gaussian_sigma(sigma_g, c(1, 1), 5).details["case"] == "2i"
        assert certify_theorem_gaussian_sigma(sigma_g, c(6, 1), 5).details["case"] == "2iii"

    def test_boundary_inconclusive(self, sigma_g):
        cert = certify_theorem_gaussian_sigma(sigma_g, QuadraticShift.gaussian(21, 7), 5)
        assert cert.verdict == INCONCLUSIVE

    def test_case1_needs_21_not_dividing_a(self, sigma_g):
        c = QuadraticShift.gaussian
        assert certify_theorem_gaussian_sigma(sigma_g, c(21, 0), 3).verdict == INCONCLUSIVE
        assert certify_theorem_gaussian_sigma(sigma_g, c(42, 0), 10).verdict == INCONCLUSIVE

    def test_rejects_other_candidates(self, sigma_g):
        # a = 0 never gets here: QuadraticShift rejects it.
        for c in (QuadraticShift(-2, 1, 0), CyclotomicShift(4, 1, 0)):
            with pytest.raises(DomainError):
                certify_theorem_gaussian_sigma(sigma_g, c, 1)

    def test_soundness_on_grid(self, sigma_g):
        for a in range(-8, 9):
            if a == 0:
                continue
            for b in range(-4, 5):
                c = QuadraticShift.gaussian(a, b)
                for n in (3, 5, 12, 19):
                    cert = certify_theorem_gaussian_sigma(sigma_g, c, n)
                    if cert.verdict == PROVEN:
                        assert cert.scope.covers(n)
                        assert exact_nonzero(sigma_g, c, n)

    def test_witness_prime_reproves_the_point(self, sigma_g):
        # The recorded prime must carry a generic obstruction on its own:
        # 3 when 3 does not divide a, else 7 (p = 3 then divides the index).
        for a in range(-10, 11):
            if a == 0:
                continue
            for b in range(-4, 5):
                c = QuadraticShift.gaussian(a, b)
                for n in range(1, 16):
                    cert = certify_theorem_gaussian_sigma(sigma_g, c, n)
                    if cert.verdict != PROVEN:
                        continue
                    again = certify_generic(sigma_g, c, n, primes=(cert.witness_prime,))
                    assert again.verdict == PROVEN, (a, b, n, cert.witness_prime)
                    assert again.witness_prime == cert.witness_prime

    def test_witness_prime_when_3_divides_a(self, sigma_g):
        c = QuadraticShift.gaussian
        assert certify_theorem_gaussian_sigma(sigma_g, c(3, 1), 1).witness_prime == 7
        assert certify_theorem_gaussian_sigma(sigma_g, c(1, 1), 1).witness_prime == 3


class TestNotRamified:
    def test_case1_identity(self, identity_g):
        cert = certify_theorem_not_ramified(identity_g, QuadraticShift(3, 1, 0), 5)
        assert cert.verdict == PROVEN
        assert cert.details["case"] == 1 and cert.details["p"] == 5
        assert cert.scope.covers(5) and cert.scope.covers(10) and not cert.scope.covers(7)

    def test_case2_sigma(self, sigma_g):
        cert = certify_theorem_not_ramified(sigma_g, QuadraticShift(-1, 3, 0), 7)
        assert cert.verdict == PROVEN
        assert cert.details["case"] == 2 and cert.details["p"] == 7

    def test_out_of_scope_n(self, sigma_g):
        cert = certify_theorem_not_ramified(sigma_g, QuadraticShift(-1, 3, 0), 4)
        assert cert.verdict == INCONCLUSIVE

    def test_lens_prime_must_not_divide_a(self, sigma_g):
        # n = 4 = 1 mod 3 and (-1|3) = -1 and sigma(3) = 1 mod 3, but 3 | a:
        # the mod-3 lens is forbidden, so nothing may fire at p = 3
        cert = certify_theorem_not_ramified(sigma_g, QuadraticShift(-1, 3, 0), 4)
        assert cert.verdict == INCONCLUSIVE
        # with a coprime to 3 the same data proves
        cert2 = certify_theorem_not_ramified(sigma_g, QuadraticShift(-1, 1, 0), 4)
        assert cert2.verdict == PROVEN and cert2.details["p"] == 3

    def test_rejects_cyclotomic(self, sigma_g):
        with pytest.raises(DomainError):
            certify_theorem_not_ramified(sigma_g, CyclotomicShift(5, 1, 0), 3)

    def test_stops_at_the_first_witness(self, sigma_g, monkeypatch):
        # p = 5 proves n = 1: sigma(5) = 1 mod 5 and (-2|5) = -1.  The search
        # evaluates g at no prime past it, however far the bound reaches.
        asked, evaluate = [], ArithmeticFunction.__call__
        monkeypatch.setattr(ArithmeticFunction, "__call__",
                            lambda g, n: asked.append(n) or evaluate(g, n))
        cert = certify_theorem_not_ramified(sigma_g, QuadraticShift(-2, 1, 1), 1,
                                            prime_bound=10**5)
        assert cert.verdict == PROVEN and cert.details["p"] == 5
        assert asked == [2, 3, 5]

    def test_soundness_sample(self, identity_g):
        rng = random.Random(6)
        for _ in range(50):
            D = rng.choice((-1, -2, -3, 2, 3, 5, -7, 13))
            c = QuadraticShift(D, rng.choice((1, 2, -1, 3)), rng.randint(-5, 5))
            n = rng.randint(1, 12)
            cert = certify_theorem_not_ramified(identity_g, c, n)
            if cert.verdict == PROVEN:
                assert cert.scope.covers(n)
                assert exact_nonzero(identity_g, c, n)


    def test_the_bound_is_cut_to_the_table(self, monkeypatch):
        # g(p) = 2 mod p at p = 3, 5, 7, 11: no prime witnesses, so both the
        # certificate and the scan's test run to the table's reach of 12.
        g = ArithmeticFunction.from_table([1, 2, 2, 4, 2, 6, 2, 8, 9, 10, 2, 12], name="t12")
        c, config = QuadraticShift(-2, 1, 1), CertifyConfig(not_ramified_prime_bound=50)
        asked, evaluate = [], ArithmeticFunction.__call__
        monkeypatch.setattr(ArithmeticFunction, "__call__",
                            lambda g, n: asked.append(n) or evaluate(g, n))
        cert = certify_theorem_not_ramified(g, c, 6, prime_bound=50)
        assert not cert.proven and cert.details["prime_bound"] == 50
        assert asked == [2, 3, 5, 7, 11]
        asked.clear()
        tests = dict(_point_tests(g, c, config, _held_rows(g, 1), 1, {}, []))
        assert not tests["not_ramified"](6) and asked == [2, 3, 5, 7, 11]


class TestGenericObstruction:
    def test_spec_instance_mod7(self, sigma_g):
        cert = certify_generic(sigma_g, QuadraticShift.gaussian(3, 0), 4, primes=(7,))
        assert cert.verdict == PROVEN and cert.witness_prime == 7
        assert cert.evidence["witness_factor"] == [2, 0, 1]  # X^2 + 2 mod 7

    def test_empty_prime_list(self, sigma_g):
        cert = certify_generic(sigma_g, QuadraticShift.gaussian(1, 0), 1, primes=())
        assert cert.verdict == INCONCLUSIVE

    def test_tries_primes_that_divide_the_index(self, sigma_g):
        # f | A_n in Z[X] gives f mod p | A_n mod p at every p, so a prime
        # dividing the index a is tried like any other.
        cert = certify_generic(sigma_g, QuadraticShift.gaussian(3, 0), 4, primes=(3,))
        assert cert.verdict == INCONCLUSIVE  # f = X**2 + 9 = X**2 mod 3, and X | A_4
        assert cert.evidence["skipped_primes"] == []
        cert = certify_generic(sigma_g, QuadraticShift(-2, 3, 1), 2, primes=(3,))
        assert cert.verdict == PROVEN and cert.witness_prime == 3
        assert verify_certificate(sigma_g, cert)

    @pytest.mark.usefixtures("held_a_poly", "held_pieces")
    def test_proofs_at_primes_dividing_a_agree_with_exact_evaluation(self):
        # Every generic proof at p in {2, 3} with p | a, where a prime
        # ideal above p need not match a factor of f mod p.
        candidates = [
            *(QuadraticShift(D, a, b)
              for D in (-1, -2, -3, -7, 2, 3, 5, 13) for a in (2, 3, 6) for b in range(-6, 7)),
            *(CyclotomicShift(m, a, b)
              for m in (3, 4, 5, 8, 12) for a in (2, 3, 6) for b in range(-4, 5)),
        ]
        proofs = 0
        for g in WIDE_GS:
            for c in candidates:
                for p in (2, 3):
                    if c.a % p:
                        continue
                    for n in range(1, 21):
                        if certify_generic(g, c, n, primes=(p,)).proven:
                            proofs += 1
                            assert certify_exact(g, c, n).proven, (g.name, c, n, p)
        assert proofs > 1000

    def test_monotone_in_prime_set(self, sigma_g):
        base = (2, 3, 5, 7, 11, 13)
        larger = base + (17, 19)
        rng = random.Random(4)
        for _ in range(25):
            c = QuadraticShift.gaussian(rng.choice((3, 6, 9, 21)), rng.randint(-6, 6))
            n = rng.randint(1, 20)
            small = certify_generic(sigma_g, c, n, primes=base)
            if small.verdict == PROVEN:
                assert certify_generic(sigma_g, c, n, primes=larger).verdict == PROVEN

    def test_never_builds_the_degree_n_polynomial(self, sigma_g, monkeypatch):
        from darcais import polymod

        def refuse(*args):
            raise AssertionError("a_poly_mod called on a certificate path")

        monkeypatch.setattr(polymod, "a_poly_mod", refuse)
        for c, n in ((CyclotomicShift(8, 6, 1), 2501), (QuadraticShift.gaussian(3, 0), 4)):
            cert = certify_generic(sigma_g, c, n)
            assert cert.verdict == PROVEN and verify_certificate(sigma_g, cert)

    def test_soundness_sample(self, sigma_g):
        rng = random.Random(8)
        for _ in range(40):
            c = QuadraticShift.gaussian(rng.choice((3, 6, 9, 12)), rng.randint(-5, 5))
            n = rng.randint(1, 15)
            cert = certify_generic(sigma_g, c, n)
            if cert.verdict == PROVEN:
                assert exact_nonzero(sigma_g, c, n)


class TestExactEvaluation:
    def test_nonroot(self, sigma_g):
        cert = certify_exact(sigma_g, QuadraticShift.gaussian(1, 0), 1)
        assert cert.verdict == PROVEN

    def test_true_root_is_inconclusive_with_zero(self, sigma_g):
        # (1 + sqrt(409))/2 - 11 is an exact root of the quintic member
        c = QuadraticShift(409, 1, -11)
        cert = certify_exact(sigma_g, c, 5)
        assert cert.verdict == INCONCLUSIVE
        assert cert.evidence == {"remainder": [], "exact_zero": True}

    def test_remainder_evidence(self, sigma_g):
        # A_2 = X^2 + 3X leaves 3X - 1 on X^2 + 1, the minimal polynomial of i
        cert = certify_exact(sigma_g, QuadraticShift.gaussian(1, 0), 2)
        assert cert.evidence == {"remainder": ["-1", "3"], "exact_zero": False}

    @pytest.mark.usefixtures("held_a_poly")
    def test_remainder_agrees_with_evaluation(self):
        # Range: sigma, identity and three random tables; every n <= 30;
        # quadratic a*w_D + b for D in {-1, -2, 3, 5}, 0 < |a| <= 2,
        # |b| <= 3, and cyclotomic a*zeta_m + b for m in {3, 5, 8, 12},
        # 0 < |a| <= 2, |b| <= 2; plus the two known roots below.  The
        # remainder is zero exactly when the evaluation oracle reads zero,
        # and it takes the same value at the candidate as A_n.
        candidates = [
            QuadraticShift(D, a, b)
            for D in (-1, -2, 3, 5)
            for a in (-2, -1, 1, 2)
            for b in range(-3, 4)
        ]
        candidates += [
            CyclotomicShift(m, a, b)
            for m in (3, 5, 8, 12)
            for a in (-2, -1, 1, 2)
            for b in range(-2, 3)
        ]
        candidates += [parse_candidate("quad:3,1,-3"), parse_candidate("quad:409,1,-11")]
        roots = set()
        checked = 0
        for g in ORACLE_GS:
            rows = series.a_poly_list(g, 30)
            for c in candidates:
                for n in range(1, 31):
                    cert = certify_exact(g, c, n)
                    value = evaluate_at(rows[n], c)
                    remainder = IntPoly(int(v) for v in cert.evidence["remainder"])
                    assert evaluate_at(remainder, c) == value, (g.name, c, n)
                    assert cert.proven == any(value) == (not cert.evidence["exact_zero"])
                    if not cert.proven:
                        roots.add((g.name, c.spec_string(), n))
                    checked += 1
        assert checked == 5 * 194 * 30
        # -3 + sqrt(3) and its conjugate are roots of A_3 for the identity,
        # and (1 + sqrt(409))/2 - 11 is one of A_5 for sigma.
        assert roots == {
            ("id", "quad:3,1,-3", 3),
            ("id", "quad:3,-1,-3", 3),
            ("sigma", "quad:409,1,-11", 5),
        }
        assert not certify(ORACLE_GS[1], parse_candidate("quad:3,1,-3"), 3).proven


class TestChain:
    def test_han_first(self, sigma_g):
        cert = certify(sigma_g, QuadraticShift.gaussian(1, 10**6), 2)
        assert cert.verdict == PROVEN and cert.method == "han_bound"

    def test_root_of_unity_instance(self, sigma_g):
        cert = certify(sigma_g, CyclotomicShift(5, 1, 0), 7)
        assert cert.verdict == PROVEN

    def test_designed_gap_falls_through(self, sigma_g):
        cert = certify(sigma_g, QuadraticShift.gaussian(21, 0), 5)
        assert cert.verdict == PROVEN
        assert cert.method in ("generic_obstruction", "exact_evaluation")

    def test_true_root_stays_inconclusive(self, sigma_g):
        cert = certify(sigma_g, QuadraticShift(409, 1, -11), 5)
        assert cert.verdict == INCONCLUSIVE
        assert cert.method == "none"
        assert cert.evidence["attempts"]

    def test_all_n_entry_point(self, sigma_g):
        cert = certify_all_n(sigma_g, QuadraticShift(5, 1, 0))
        assert cert.verdict == PROVEN and cert.scope.kind == "all"
        gap = certify_all_n(sigma_g, QuadraticShift.gaussian(21, 0))
        assert gap.verdict == INCONCLUSIVE

    def test_heim_luca_neuhauser_window(self, sigma_g):
        for m in range(3, 13):
            c = CyclotomicShift(m, 1, 0)
            blanket = certify_all_n(sigma_g, c)
            for n in range(1, 21):
                cert = blanket if blanket.proven else certify(sigma_g, c, n)
                assert cert.verdict == PROVEN, (m, n)
                if n <= 10:
                    assert exact_nonzero(sigma_g, c, n)

    def test_rejects_nonpositive_n(self, sigma_g):
        with pytest.raises(DomainError):
            certify(sigma_g, QuadraticShift.gaussian(1, 0), 0)


class TestReplay:
    def test_every_method_replays_byte_identically(self, sigma_g, identity_g):
        certs = [
            certify_han_bound(sigma_g, QuadraticShift.gaussian(1, 100), 2),
            certify_theorem_translated(sigma_g, QuadraticShift(5, 1, 0)),
            certify_theorem_gaussian_sigma(sigma_g, QuadraticShift.gaussian(2, 1), 9),
            certify_theorem_not_ramified(identity_g, QuadraticShift(3, 1, 0), 5),
            certify_generic(sigma_g, QuadraticShift.gaussian(3, 0), 4),
            certify_exact(sigma_g, CyclotomicShift(7, 2, 1), 6),
            certify(sigma_g, QuadraticShift(409, 1, -11), 5),
            certify_all_n(sigma_g, QuadraticShift.gaussian(21, 0)),
        ]
        gs = {"sigma": sigma_g, "id": identity_g}
        for cert in certs:
            assert verify_certificate(gs[cert.g_name], cert), cert.method

    def test_sigma_only_proofs_are_bound_to_sigma(self, sigma_g, identity_g):
        # A table that merely carries the name "sigma" is not sigma either.
        impostor = ArithmeticFunction.from_table([1, 3, 4, 7, 6], name="sigma")
        certs = [
            certify_han_bound(sigma_g, QuadraticShift.gaussian(1, 100), 2),
            certify_theorem_gaussian_sigma(sigma_g, QuadraticShift.gaussian(2, 1), 9),
        ]
        for cert in certs:
            assert cert.proven and verify_certificate(sigma_g, cert)
            for g in (identity_g, impostor):
                with pytest.raises(DomainError):
                    verify_certificate(g, cert)

    def test_tampered_certificate_fails_replay(self, sigma_g):
        cert = certify_theorem_gaussian_sigma(sigma_g, QuadraticShift.gaussian(2, 1), 9)
        tampered = json.loads(cert.canonical_json())
        tampered["evidence"]["a_mod_7"] = 5
        bad = replace(cert, evidence=tampered["evidence"])
        assert not verify_certificate(sigma_g, bad)


# Per chain method, a maker of an inconclusive and of a proven certificate under sigma.
ONE_SHAPE = {
    "han_bound": (
        lambda g: certify_han_bound(g, QuadraticShift.gaussian(3, 4), 2),
        lambda g: certify_han_bound(g, QuadraticShift.gaussian(1, 100), 2),
    ),
    "translated_shift": (
        lambda g: certify_theorem_translated(g, QuadraticShift(-1, 3, 1)),
        lambda g: certify_theorem_translated(g, QuadraticShift(5, 1, 0)),
    ),
    "gaussian_sigma": (
        lambda g: certify_theorem_gaussian_sigma(g, QuadraticShift.gaussian(21, 0), 3),
        lambda g: certify_theorem_gaussian_sigma(g, QuadraticShift.gaussian(2, 1), 9),
    ),
    "not_ramified": (
        lambda g: certify_theorem_not_ramified(g, QuadraticShift(-1, 3, 0), 4),
        lambda g: certify_theorem_not_ramified(g, QuadraticShift(-1, 3, 0), 7),
    ),
    "generic_obstruction": (
        lambda g: certify_generic(g, QuadraticShift.gaussian(3, 0), 4, primes=(3,)),
        lambda g: certify_generic(g, QuadraticShift.gaussian(3, 0), 4, primes=(7,)),
    ),
    "exact_evaluation": (
        lambda g: certify_exact(g, QuadraticShift(409, 1, -11), 5),
        lambda g: certify_exact(g, QuadraticShift.gaussian(1, 0), 1),
    ),
}


class TestOneShapePerMethod:
    """A method's certificate has the same keys whether it proves or not."""

    def test_every_chain_method_is_covered(self):
        from darcais.certify import _CHAIN

        assert list(ONE_SHAPE) == list(_CHAIN)

    @pytest.mark.parametrize("method", list(ONE_SHAPE))
    def test_proven_and_inconclusive_share_their_keys(self, sigma_g, method):
        inconclusive, proven = (make(sigma_g) for make in ONE_SHAPE[method])
        assert (inconclusive.verdict, proven.verdict) == (INCONCLUSIVE, PROVEN)
        assert inconclusive.method == proven.method == method
        assert inconclusive.details.keys() == proven.details.keys()
        if method == "generic_obstruction":  # the proof's factorizations, else what was skipped
            assert inconclusive.evidence == {"skipped_primes": []}
        elif method == "translated_shift":  # the facts of the item that holds: none
            assert inconclusive.evidence == {}
        else:
            assert inconclusive.evidence.keys() == proven.evidence.keys()
        assert inconclusive.witness_prime is None

    @pytest.mark.parametrize("method", list(ONE_SHAPE))
    def test_inconclusive_certificates_replay(self, sigma_g, method):
        inconclusive, _ = ONE_SHAPE[method]
        assert verify_certificate(sigma_g, inconclusive(sigma_g))

    def test_what_no_proof_found_is_null(self, sigma_g):
        nulls = {
            method: sorted(k for k, v in make(sigma_g).details.items() if v is None)
            for method, (make, _) in ONE_SHAPE.items()
        }
        assert nulls == {"han_bound": [], "translated_shift": ["item"],
                         "gaussian_sigma": ["case"], "not_ramified": ["case", "p"],
                         "generic_obstruction": ["p"], "exact_evaluation": []}


class TestChainTableReplay:
    """Certificates made under a non-default configuration replay under the
    default one: replay reads its inputs from the certificate."""

    CONFIG = CertifyConfig(
        primes=(5, 7), exact_eval_bound=3, not_ramified_prime_bound=7, seed=3
    )

    @pytest.mark.parametrize(
        "g_name, candidate, n, method",
        [
            ("sigma", QuadraticShift.gaussian(1, 100), 2, "han_bound"),
            ("sigma", QuadraticShift(5, 1, 0), 3, "translated_shift"),
            ("sigma", QuadraticShift.gaussian(3, 0), 2, "gaussian_sigma"),
            ("sigma", QuadraticShift(-7, 3, 0), 5, "not_ramified"),
            ("sigma", QuadraticShift.gaussian(21, 0), 4, "generic_obstruction"),
            ("id", QuadraticShift(-7, 12, 1), 3, "exact_evaluation"),
            ("sigma", QuadraticShift.gaussian(6, 0), 5, "none"),
            ("sigma", QuadraticShift(5, 1, 0), None, "translated_shift"),
            ("sigma", QuadraticShift.gaussian(21, 0), None, "none"),
        ],
    )
    def test_non_default_config_replays(
        self, sigma_g, identity_g, g_name, candidate, n, method
    ):
        g = {"sigma": sigma_g, "id": identity_g}[g_name]
        if n is None:
            cert = certify_all_n(g, candidate, self.CONFIG)
        else:
            cert = certify(g, candidate, n, self.CONFIG)
        assert cert.method == method
        assert verify_certificate(g, cert)
        assert verify_certificate(g, cert, self.CONFIG)

    def test_exact_evaluation_past_the_default_bound_replays(self, sigma_g):
        cert = certify_exact(sigma_g, QuadraticShift.gaussian(2, 1), 40)
        assert cert.proven and 40 > CertifyConfig().exact_eval_bound
        assert verify_certificate(sigma_g, cert)

    def test_table_exhausted_attempt_replays(self):
        g = ArithmeticFunction.from_table([1, 2, 2], name="short")
        cert = certify(g, QuadraticShift.gaussian(2, 0), 10)
        assert cert.method == "none"
        assert {"method": "exact_evaluation", "verdict": "skipped_table_exhausted"} in (
            cert.evidence["attempts"]
        )
        assert verify_certificate(g, cert)

    def test_unknown_method_is_domain_error(self, sigma_g):
        cert = certify_han_bound(sigma_g, QuadraticShift.gaussian(1, 100), 2)
        with pytest.raises(DomainError):
            verify_certificate(sigma_g, replace(cert, method="bogus"))


class TestConfigBounds:
    def test_not_ramified_prime_bound_has_a_ceiling(self):
        # Its sieve would need a byte per integer up to the bound.
        for bound in (10**6 + 1, 10**15):
            with pytest.raises(DomainError):
                CertifyConfig(not_ramified_prime_bound=bound)
            with pytest.raises(DomainError):
                replace(CertifyConfig(), not_ramified_prime_bound=bound)
        for bound in (10**6, 0, -5):
            assert CertifyConfig(not_ramified_prime_bound=bound).not_ramified_prime_bound == bound

    def test_primes_are_moduli_polymod_takes(self):
        # Prime, and below polymod's single-precision bound 2**31.
        for primes in ((4,), (2, 1), (2147483659,), (2, 2**61 - 1)):
            with pytest.raises(DomainError):
                CertifyConfig(primes=primes)
        assert CertifyConfig(primes=(2, 2147483647)).primes == (2, 2147483647)


class TestMalformedReplayInputs:
    """Recorded inputs of the wrong type are a DomainError, raised before
    the replay runs."""

    CERTS = {
        "han_bound": lambda g: certify_han_bound(g, QuadraticShift.gaussian(1, 100), 2),
        "not_ramified": lambda g: certify_theorem_not_ramified(g, QuadraticShift(-7, 3, 0), 5),
        "generic_obstruction": lambda g: certify_generic(g, QuadraticShift.gaussian(3, 0), 4),
        "none": lambda g: certify(
            g, QuadraticShift.gaussian(6, 0), 5, TestChainTableReplay.CONFIG
        ),
        "none_all_n": lambda g: certify_all_n(g, QuadraticShift.gaussian(21, 0)),
    }

    @pytest.mark.parametrize(
        "kind, details",
        [
            ("han_bound", {}),
            ("han_bound", {"n": 0}),
            ("han_bound", {"n": "2"}),
            ("han_bound", {"n": True}),
            ("generic_obstruction", {}),
            ("generic_obstruction", {"n": 4, "primes": "5"}),
            ("generic_obstruction", {"n": 4, "primes": None}),
            ("generic_obstruction", {"n": 4, "primes": [5.0]}),
            ("generic_obstruction", {"n": 4, "primes": [5], "seed": "0"}),
            ("not_ramified", {"n": 5, "prime_bound": 1.5}),
            ("not_ramified", {"n": 5, "prime_bound": 10**15}),
            ("none", {"n": 5, "config": {"foo": 1}}),
            ("none", {"n": 5, "config": None}),
            ("none", {"n": 5, "config": {"primes": [5], "seed": None}}),
            ("none_all_n", {"config": {"primes": 5}}),
            ("none_all_n", {"config": [["primes", [5]]]}),
        ],
    )
    def test_malformed_details_are_domain_errors(self, sigma_g, kind, details):
        cert = self.CERTS[kind](sigma_g)
        assert cert.method == kind.removesuffix("_all_n")
        assert verify_certificate(sigma_g, cert)
        with pytest.raises(DomainError):
            verify_certificate(sigma_g, replace(cert, details=details))


class TestZmija:
    def test_sigma_passes_all_three(self, sigma_g):
        report = check_zmija_conditions(sigma_g)
        assert report.cond_mod5 and report.cond_mod7 and report.cond_mod11
        assert report.passed

    def test_adversarial_table_fails_condition_one(self):
        # with g(2) = 0 and g(3) = 1 mod 5 the cubic member is X(X**2 + 2),
        # and X**2 + 2 is irreducible mod 5
        g = ArithmeticFunction.from_table([1, 5, 1, 1, 1, 1, 1, 1, 1, 1], name="adv")
        report = check_zmija_conditions(g)
        assert not report.cond_mod5
        assert report.evidence["mod5_offenders"] == [{"index": 3, "factor": [2, 0, 1]}]
        assert not report.passed

    def test_identity_report_is_computed(self, identity_g):
        report = check_zmija_conditions(identity_g)
        assert isinstance(report.passed, bool)
        assert "mod5_degree_profiles" in report.evidence

    def test_short_table_is_range_error(self):
        from darcais import TableExhaustedError

        with pytest.raises(TableExhaustedError):
            check_zmija_conditions(ArithmeticFunction.from_table([1, 2, 3]))

    def test_order_six_criterion_matches_degree(self):
        # 11 has multiplicative order 6 mod 9, so the level-9 cyclotomic
        # polynomial stays irreducible of degree 6 over F_11
        from darcais import cyclotomic, reduce_mod

        q6 = reduce_mod(cyclotomic(9), 11)
        assert q6.degree == 6 and is_irreducible_rabin(q6)
        assert zmija_order_six(q6)
        for coeffs in ((0, 1), (7, 1), (1, 0, 1), (4, 6, 6, 1)):
            q = ModPoly(11, coeffs)
            assert is_irreducible_rabin(q)
            assert not zmija_order_six(q)

    def test_degree_rule_agrees_with_the_raw_criterion(self):
        # Range: every irreducible factor mod 11 of A_2..A_10 that the
        # audit reads, for sigma, identity and three random tables.
        seen_six = 0
        for g in ORACLE_GS:
            report = check_zmija_conditions(g)
            raw = []
            for r in range(2, 11):
                for q, _ in factor_a_poly_mod(g, r, 11).factors:
                    assert zmija_order_six(q) == (q.degree == 6), (g.name, r, q)
                    if zmija_order_six(q):
                        raw.append({"index": r, "factor": list(q.coeffs)})
            assert report.evidence["mod11_offenders"] == raw
            assert report.cond_mod11 == (not raw)
            seen_six += len(raw)
        assert seen_six > 0  # the raw criterion holds somewhere in the range

    def test_chain_agrees_with_the_audit_at_roots_of_unity(self, sigma_g):
        # The audit passes for sigma, and the chain proves the non-vanishing
        # it implies, at every primitive m-th root of unity and every n.
        assert check_zmija_conditions(sigma_g).passed
        for m in range(3, 201):
            assert certify_all_n(sigma_g, CyclotomicShift(m, 1, 0)).proven, m


class TestScanGrid:
    def test_small_gaussian_scan(self, sigma_g):
        grid = scan_grid(sigma_g, "gauss", (-2, 2), (-2, 2), 6)
        by_point = {(pt.a, pt.b): pt for pt in grid.points}
        assert len(grid.points) == 25
        for (a, b), pt in by_point.items():
            if a != 0:
                assert pt.status == "all_n"
        # the origin is a root of every member; nothing can be certified
        assert by_point[(0, 0)].status == "unknown"
        assert by_point[(0, 0)].uncertified == tuple(range(1, 7))

    def test_real_axis_catches_true_roots(self, sigma_g):
        grid = scan_grid(sigma_g, "gauss", (0, 0), (-3, -3), 6)
        pt = grid.points[0]
        # X + 3 divides the members of index 2, 4 and 5
        assert pt.status == "partial"
        assert pt.uncertified == (2, 4, 5)

    def test_positive_real_axis_certified(self, sigma_g):
        grid = scan_grid(sigma_g, "gauss", (0, 0), (1, 3), 5)
        for pt in grid.points:
            assert pt.status == "up_to_nmax"

    def test_csv_shape_and_determinism(self, sigma_g):
        grid1 = scan_grid(sigma_g, "gauss", (-1, 1), (0, 1), 4)
        grid2 = scan_grid(sigma_g, "gauss", (-1, 1), (0, 1), 4)
        assert grid1.to_csv() == grid2.to_csv()
        lines = grid1.to_csv().strip().splitlines()
        assert lines[0] == "a,b,status,methods"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("-1,0,")

    def test_cyclotomic_kind(self, sigma_g):
        grid = scan_grid(sigma_g, "cyc:5", (1, 2), (0, 1), 4)
        assert all(pt.status == "all_n" for pt in grid.points if pt.a % 2 == 1)

    def test_quadratic_kind_and_bad_kind(self, sigma_g):
        grid = scan_grid(sigma_g, "quad:5", (1, 1), (0, 0), 3)
        assert grid.points[0].status == "all_n"
        # The kind is checked even when no row builds a candidate (a = 0).
        for kind in ("hex:5", "cyc:2", "quad:-4"):
            with pytest.raises(DomainError):
                scan_grid(sigma_g, kind, (0, 0), (0, 0), 3)

    def test_empty_range_rejected(self, sigma_g):
        for a_range, b_range in (((2, 1), (0, 5)), ((0, 5), (2, 1))):
            with pytest.raises(DomainError, match="LO <= HI"):
                scan_grid(sigma_g, "gauss", a_range, b_range, 4)

    def test_nonpositive_n_max_rejected(self, sigma_g):
        with pytest.raises(DomainError):
            scan_grid(sigma_g, "gauss", (0, 0), (0, 0), 0)


class TestSerialization:
    def test_certificate_json_shape(self, sigma_g):
        cert = certify(sigma_g, QuadraticShift(5, 1, 0), 3)
        doc = json.loads(cert.canonical_json())
        assert set(doc) == {
            "g", "candidate", "scope", "verdict", "method",
            "details", "evidence", "witness_prime",
        }
        assert doc["candidate"] == {"kind": "quadratic", "D": 5, "a": 1, "b": 0}
        assert doc["verdict"] == "proven_nonroot"

    def test_candidate_json_round_trip(self):
        from darcais.numfield import candidate_from_json

        for c in (CyclotomicShift(9, -2, 3), QuadraticShift(-7, 1, -4)):
            assert candidate_from_json(c.to_json_dict()) == c

    def test_grid_json_document(self, sigma_g):
        grid = scan_grid(sigma_g, "gauss", (1, 1), (0, 1), 3)
        doc = grid.to_json_dict()
        assert doc["kind"] == "gauss" and doc["n_max"] == 3
        assert doc["config"]["primes"] == [2, 3, 5, 7, 11, 13]
        assert len(doc["points"]) == 2


class TestClosedFormsAreGenericProofs:
    """Each closed-form proof is a generic obstruction proof at its own
    witness prime, checked one n at a time (ROADMAP item 3, step 1)."""

    def test_translated_shift(self):
        # n < 2p reaches every factor set of A_n = A_r * B**l mod p: A_r
        # alone (l = 0) and A_r with the factors of B (l >= 1), r < p.
        cases = 0
        for g in WIDE_GS:
            for c in WIDE_QUADS + WIDE_CYCS:
                cert = certify_theorem_translated(g, c)
                if not cert.proven:
                    continue
                p = cert.witness_prime
                for n in range(1, 2 * p):
                    cases += 1
                    assert certify_generic(g, c, n, primes=(p,)).proven, (g.name, c, n)
        assert cases > 5000

    def test_gaussian_sigma(self, sigma_g):
        cases = 0
        for a in (*range(1, 9), 14, 21):
            for b in range(-6, 7):
                c = QuadraticShift.gaussian(a, b)
                for n in range(1, 21):
                    cert = certify_theorem_gaussian_sigma(sigma_g, c, n)
                    if cert.proven:
                        cases += 1
                        p = cert.witness_prime
                        assert certify_generic(sigma_g, c, n, primes=(p,)).proven, (c, n)
        assert cases > 1000

    @pytest.mark.usefixtures("held_pieces")
    def test_not_ramified(self):
        cases = 0
        for g in WIDE_GS:
            for c in WIDE_QUADS:
                for n in range(1, 21):
                    cert = certify_theorem_not_ramified(g, c, n)
                    if cert.proven:
                        cases += 1
                        p = cert.witness_prime
                        assert certify_generic(g, c, n, primes=(p,)).proven, (g.name, c, n)
        assert cases > 20000


class TestShortTables:
    def test_chain_degrades_without_crashing(self):
        g = ArithmeticFunction.from_table([1, 2, 2], name="short")
        cert = certify(g, QuadraticShift.gaussian(2, 0), 10)
        assert cert.verdict == INCONCLUSIVE
        outcomes = {a["verdict"] for a in cert.evidence["attempts"]}
        assert "skipped_table_exhausted" in outcomes

    def test_generic_skips_primes_past_the_table(self):
        g = ArithmeticFunction.from_table([1, 2, 2], name="short")
        cert = certify_generic(g, CyclotomicShift(8, 6, 1), 10, primes=(5, 7, 11, 13))
        # n = 10 = 2*5 + 0 = 7 + 3 needs g(5) and g(7); at p = 11, 13 it needs g(10)
        assert cert.verdict == INCONCLUSIVE
        assert cert.evidence["skipped_primes"] == [5, 7, 11, 13]

    def test_chain_still_proves_via_theorems(self):
        g = ArithmeticFunction.from_table([1, 2, 3], name="short")
        cert = certify(g, CyclotomicShift(5, 1, 0), 50)
        assert cert.verdict == PROVEN and cert.method == "translated_shift"

    def test_scan_real_axis_degrades_without_crashing(self):
        # A_4 needs g(4); the a = 0 row leaves the n it cannot evaluate
        # uncertified, as the chain does for a != 0.
        g = ArithmeticFunction.from_table([1, 3, 4], name="short")
        grid = scan_grid(g, "gauss", (0, 1), (0, 1), 5)
        real = [pt for pt in grid.points if pt.a == 0]
        assert [pt.b for pt in real] == [0, 1]
        for pt in real:
            assert pt.uncertified[-2:] == (4, 5)
        assert real[1].methods == ("exact_evaluation",)
        assert grid.points[2:] == scan_grid(g, "gauss", (1, 1), (0, 1), 5).points

    def test_scan_real_axis_builds_one_integer_row_per_point(self, sigma_g):
        # n = 1 falls to the absolute bound at b != 0; every later n at b
        # reads one integer row up to 20, and no polynomial is built.
        clear_library_caches()
        with (mock.patch.object(series, "a_poly_list", wraps=series.a_poly_list) as spy,
              mock.patch.object(series, "row_at", wraps=series.row_at) as rows):
            grid = scan_grid(sigma_g, "gauss", (0, 0), (-3, 3), 20)
        assert spy.call_args_list == []
        assert rows.call_args_list == [mock.call(sigma_g, b, 20) for b in range(-3, 4)]
        assert grid.points[4].methods == ("exact_evaluation", "han_bound")


class TestChainSoundnessSamples:
    def test_cyclotomic_candidates_small_degree(self, sigma_g):
        # every proven certificate for a candidate of degree <= 4 must be
        # confirmed by exact evaluation (zero tolerance)
        rng = random.Random(1234)
        proven = 0
        for _ in range(120):
            m = rng.choice((3, 4, 5, 6, 8, 10, 12))
            a = rng.choice((1, 2, 3, -1, -2, 6))
            b = rng.randint(-6, 6)
            n = rng.randint(1, 12)
            c = CyclotomicShift(m, a, b)
            cert = certify(sigma_g, c, n)
            if cert.proven:
                proven += 1
                assert exact_nonzero(sigma_g, c, n), (m, a, b, n, cert.method)
        assert proven > 80  # the chain should prove the bulk of these

    def test_config_prime_set_changes_route(self, sigma_g):
        # (6i + 0, n = 5) needs the mod-11 obstruction; dropping 11 and 13
        # forces the chain down to exact evaluation
        c = QuadraticShift.gaussian(6, 0)
        full = certify(sigma_g, c, 5)
        assert full.proven and full.method == "generic_obstruction"
        assert full.witness_prime == 11
        small = certify(sigma_g, c, 5, CertifyConfig(primes=(2, 3, 5, 7)))
        assert small.proven and small.method == "exact_evaluation"


class TestTrueRootInScan:
    def test_scan_leaves_exactly_the_root_uncertified(self, sigma_g):
        # (1 + sqrt(409))/2 - 11 is a root of the index-5 member and of no
        # other member up to 6; the scan must prove everything else and
        # honestly leave n = 5 uncertified
        grid = scan_grid(sigma_g, "quad:409", (1, 1), (-11, -11), 6)
        pt = grid.points[0]
        assert pt.status == "partial"
        assert pt.uncertified == (5,)
