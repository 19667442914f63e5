"""The polynomial family, its oracles, tau, exact evaluation, stability."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial, isqrt, lcm

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcais import (
    ArithmeticFunction,
    DomainError,
    IntPoly,
    TableExhaustedError,
    a_poly,
    hurwitz_check,
    tau,
    tau_list,
)
from darcais import arith, series
from darcais.numfield import QuadraticShift
from darcais.series import _routh, _square_truncated, a_poly_list

from conftest import SIGMA_FACTORED, clear_library_caches, expand_product, random_table
from oracles import (
    _partitions,
    a_poly_list_rows,
    a_poly_oracle,
    evaluate_at_cyclotomic,
    evaluate_at_quadratic,
    hurwitz_check_fraction,
    series_oracle,
    tau_list_recurrence,
)

# Partition counts p(0)..p(10), the classic sequence.
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def eta24_expansion(order):
    """Truncated integer expansion of prod_{k<=order} (1 - q**k)**24.

    Entry n is the (n+1)-st Ramanujan tau value; this is the independent
    product-form oracle, sharing nothing with the series recurrence.
    """
    series = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(24):
            # multiply by (1 - q**k), truncating at the order
            for i in range(order, k - 1, -1):
                series[i] -= series[i - k]
    return series


class TestGoldenTable:
    def test_first_seven_sigma_polynomials(self, sigma_g):
        for n, factors in SIGMA_FACTORED.items():
            assert a_poly(sigma_g, n) == expand_product(factors)

    def test_a0_and_a1_for_any_g(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(3, 5)):
            assert a_poly(g, 0) == IntPoly.one()
            assert a_poly(g, 1) == IntPoly.x()

    def test_monic_degree_and_zero_constant(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(17, 30)):
            for n in range(1, 31):
                poly = a_poly(g, n)
                assert poly.degree == n
                assert poly.leading == 1
                assert poly.coeff(0) == 0


def p_value(g, n, x):
    """P_n(x) = A_n(x) / n!."""
    return Fraction(a_poly(g, n).evaluate(x), factorial(n))


def h_int(g, n):
    """A_n / X = n! * P_n / X, the integer polynomial ``hurwitz`` checks."""
    return IntPoly(a_poly(g, n).coeffs[1:])


class TestPPoly:
    def test_identity_at_one(self, identity_g):
        assert p_value(identity_g, 2, 1) == Fraction(3, 2)

    def test_p0(self, sigma_g):
        assert a_poly(sigma_g, 0) == IntPoly.one() and p_value(sigma_g, 0, 7) == 1


class TestPartitionOracle:
    def test_partition_generator_counts(self):
        for n, want in enumerate(PARTITION_COUNTS):
            assert sum(1 for _ in _partitions(n)) == want

    def test_a4_sigma(self, sigma_g):
        assert a_poly_oracle(sigma_g, 4) == expand_product(SIGMA_FACTORED[4])

    def test_single_partition_at_one(self, identity_g):
        assert a_poly_oracle(identity_g, 1) == IntPoly.x()

    def test_matches_recursion(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(23, 16), *signed_tables()):
            for n in range(13):
                assert a_poly_oracle(g, n) == a_poly(g, n)

    def test_cap_is_enforced(self, sigma_g):
        with pytest.raises(DomainError):
            a_poly_oracle(sigma_g, 26)
        # and the override works
        assert a_poly_oracle(sigma_g, 26, max_n=26).degree == 26


def signed_tables():
    """Three reproducible g with values in -20..20, zeros among them."""
    tables = [random_table(seed, 100, -20, 20) for seed in (3, 5, 7)]
    assert all(0 in g.table for g in tables)
    return tables


class ZeroFirstValue:
    """A stand-in g with g(1) = 0, which ``ArithmeticFunction`` rejects.

    With g(2), g(3) != 0, A_j (j >= 2) has degree j // 2 < j, from the
    partitions of j into twos and at most one three, so its coefficient
    list must come back stripped of the zeros above that degree.  It is
    given as a table: E = 1 and N[i] = g(i + 1).
    """

    kind = "table"

    def __init__(self, values):
        self.values = (0, *values)

    def require_up_to(self, n):
        if n > len(self.values):
            raise TableExhaustedError(f"tabulated up to {len(self.values)}, need {n}")

    def __call__(self, k):
        return self.values[k - 1]


class TestScaledRecursion:
    """``a_poly_list`` against the row recursion it replaced, from cold caches."""

    @pytest.mark.parametrize(
        "g", [ArithmeticFunction.sigma(), ArithmeticFunction.identity()], ids=["sigma", "identity"]
    )
    def test_builtins_up_to_150(self, g):
        clear_library_caches()
        assert a_poly_list(g, 150) == a_poly_list_rows(g, 150)

    def test_signed_tables(self):
        for g in signed_tables():
            clear_library_caches()
            assert a_poly_list(g, 100) == a_poly_list_rows(g, 100)

    def test_zero_first_value_strips_coefficients(self):
        g = ZeroFirstValue(random.Random(11).randint(-20, 20) or 1 for _ in range(39))
        clear_library_caches()
        got = a_poly_list(g, 40)
        assert got == a_poly_list_rows(g, 40)
        assert got[1].is_zero
        for j, poly in enumerate(got[2:], start=2):
            assert poly.degree == j // 2 and poly.coeffs[-1]

    def test_sigma_at_200(self, sigma_g):
        clear_library_caches()
        assert a_poly_list(sigma_g, 200) == a_poly_list_rows(sigma_g, 200)

    def test_constant_term_vanishes(self, sigma_g, identity_g):
        # hurwitz strips this root without checking for it.
        for g in (sigma_g, identity_g, *signed_tables()):
            clear_library_caches()
            assert all(poly.coeff(0) == 0 for poly in a_poly_list(g, 80)[1:])


def of_kind(kind):
    """sigma, the identity, or the first of ``signed_tables``."""
    if kind == "table":
        return signed_tables()[0]
    return {"sigma": ArithmeticFunction.sigma, "identity": ArithmeticFunction.identity}[kind]()


class TestLogDerivativeRecursion:
    """The one recursion E*F' = X*N*F, for each form (N, E) it is given."""

    @pytest.mark.parametrize("kind", ["sigma", "identity", "table"])
    def test_e_times_s_prime_is_n(self, kind):
        g = of_kind(kind)
        for n in (0, 1, 2, 3, 5, 7, 8, 99):
            N, E, Y = series._log_derivative_form(g, n)
            assert len(N) == len(E) == n
            # Y = 1 - E to q**n exactly when S = -log E, that is N = -E'.
            assert (Y is None) == (kind != "sigma")
            if Y is not None:
                assert len(Y) == n + 1 and Y[0] == 0 and Y[1:n] == [-e for e in E[1:]]
                assert N == [(k + 1) * Y[k + 1] for k in range(n)]
            s_prime = [g(i + 1) for i in range(n)]
            assert [sum(E[k] * s_prime[i - k] for k in range(i + 1)) for i in range(n)] == N
            assert E[:1] == [1][:n]

    def test_sigma_form_is_the_pentagonal_product(self, sigma_g):
        N, E, _ = series._log_derivative_form(sigma_g, 200)
        product = [1] + [0] * 200
        for m in range(1, 201):  # multiply by 1 - q**m, cut at q**200
            for i in range(200, m - 1, -1):
                product[i] -= product[i - m]
        assert E == product[:200]
        assert sum(map(bool, E)) == 23  # 1 and the pentagonal numbers k(3k -/+ 1)/2 < 200
        assert N == [-(i + 1) * product[i + 1] for i in range(200)]

    def test_sigma_agrees_with_its_table(self, sigma_g):
        # sigma(1..200) as a table: the same A_n by the E = 1 form.
        table = ArithmeticFunction.from_table([arith.sigma(k) for k in range(1, 201)])
        clear_library_caches()
        assert a_poly_list(sigma_g, 200) == a_poly_list(table, 200)
        for n in (*range(61), 77, 200):
            clear_library_caches()
            assert a_poly(sigma_g, n) == a_poly(table, n), n

    def test_identity_is_the_lah_closed_form(self, identity_g):
        clear_library_caches()
        got = a_poly_list(identity_g, 300)
        for n, poly in enumerate(got[1:], start=1):
            lah = [0] + [comb(n - 1, d - 1) * factorial(n) // factorial(d) for d in range(1, n + 1)]
            assert poly.coeffs == tuple(lah), n
        clear_library_caches()
        assert a_poly(identity_g, 300) == got[300]


class TestCacheGrowth:
    """A_0..A_n after any earlier call gives the cold build."""

    @pytest.mark.parametrize("kind, top", [("sigma", 60), ("identity", 60), ("table", 40)])
    def test_every_prefix(self, kind, top):
        g = of_kind(kind)
        assert a_poly(g, 0) == IntPoly.one()
        cold = []
        for n in range(top + 1):
            clear_library_caches()
            cold.append(a_poly_list(g, n))
        assert cold[-1] == a_poly_list_rows(g, top)
        for n in range(top + 1):
            assert cold[n] == cold[-1][:n + 1], n  # the rows a scan holds are prefixes
        for m in (0, 1, top // 2, top - 1):
            clear_library_caches()
            assert a_poly_list(g, top) == cold[top] and a_poly_list(g, m) == cold[m], m
            clear_library_caches()
            assert a_poly_list(g, m) == cold[m] and a_poly_list(g, top) == cold[top], m

    def test_short_table_still_exhausts(self):
        g = random_table(5, 30, -20, 20)
        for m in (1, 10, 31):
            clear_library_caches()
            prefix = a_poly_list(g, m - 1)
            with pytest.raises(TableExhaustedError):
                a_poly_list(g, 31)
            with pytest.raises(TableExhaustedError):
                a_poly_list_rows(g, 31)
            assert a_poly_list(g, m - 1) == prefix
            assert a_poly_list(g, 30) == a_poly_list_rows(g, 30)

    def test_the_module_holds_no_rows(self):
        # A caller that reuses rows holds them; nothing in series outlives a call.
        held = [name for name, value in vars(series).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))]
        assert held == []


class TestAPolyAlone:
    """``a_poly``: A_n alone, from the powers of 1 - E or two scaled columns."""

    @staticmethod
    def generators():
        tables = [random_table(seed, 120, -20, 20) for seed in (3, 5, 7)]
        return [ArithmeticFunction.sigma(), ArithmeticFunction.identity(), *tables]

    def test_cold_against_the_row_oracle(self):
        for g in self.generators():
            want = a_poly_list_rows(g, 120)
            for n in (*range(0, 120, 7), 120):
                clear_library_caches()
                assert a_poly(g, n) == want[n], (g.name, n)

    def test_warm_partial_store_against_the_row_oracle(self):
        for g in self.generators():
            want = a_poly_list_rows(g, 90)
            clear_library_caches()
            stored = a_poly_list(g, 40)
            assert a_poly(g, 90) == want[90], g.name
            assert stored == want[:41]

    def test_sigma_from_the_powers_of_one_minus_e(self, sigma_g):
        # The column recursion is the oracle for the route from (1 - E)**d.
        clear_library_caches()
        want = a_poly_list(sigma_g, 120)
        for n in range(121):
            assert a_poly(sigma_g, n) == want[n], n
        for n in (200, 257, 400):
            assert a_poly(sigma_g, n) == a_poly_list(sigma_g, n)[n], n

    @pytest.mark.parametrize("kind, takes_columns", [
        ("sigma", False), ("identity", True), ("table", True), ("sigma-table", True)])
    def test_only_n_equal_minus_e_prime_skips_the_columns(self, monkeypatch, kind, takes_columns):
        g = (ArithmeticFunction.from_table([arith.sigma(k) for k in range(1, 41)])
             if kind == "sigma-table" else of_kind(kind))
        want = a_poly_list(g, 40)
        calls, columns = [], series._scaled_columns
        monkeypatch.setattr(series, "_scaled_columns",
                            lambda g, n: calls.append(n) or columns(g, n))
        for n in (2, 17, 40):
            assert a_poly(g, n) == want[n], n
        assert calls == ([2, 17, 40] if takes_columns else [])

    def test_table_of_exactly_n_entries(self):
        for g in (random_table(9, 50, -20, 20),
                  ArithmeticFunction.from_table([arith.sigma(k) for k in range(1, 51)])):
            assert a_poly(g, 50) == a_poly_list_rows(g, 50)[50]
            with pytest.raises(TableExhaustedError):
                a_poly(g, 51)

    def test_short_table_still_exhausts(self):
        g = random_table(5, 30, -20, 20)
        for m in (0, 10, 31):
            clear_library_caches()
            if m:
                a_poly_list(g, m - 1)
            with pytest.raises(TableExhaustedError):
                a_poly(g, 31)
            assert a_poly(g, 30) == a_poly_list_rows(g, 30)[30]

    def test_negative_index_is_a_domain_error(self, sigma_g):
        for build in (a_poly, a_poly_list):
            with pytest.raises(DomainError):
                build(sigma_g, -1)

    def test_peak_memory_is_a_fraction_of_the_list(self, sigma_g):
        # A_n alone is Theta(n^2 log n) bits, the list Theta(n^3 log n).
        peaks = []
        for build in (a_poly, a_poly_list):
            clear_library_caches()
            tracemalloc.start()
            try:
                build(sigma_g, 80)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        clear_library_caches()
        assert 4 * peaks[0] < peaks[1], peaks


class TestSeriesOracle:
    def test_eta_power_oracle(self, sigma_g):
        got = series_oracle(sigma_g, -24, 5)
        want = eta24_expansion(5)
        assert got == want
        assert got == [1, -24, 252, -1472, 4830, -6048]

    def test_zero_argument(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g):
            assert series_oracle(g, 0, 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_partition_generating_function(self, sigma_g):
        assert series_oracle(sigma_g, 1, 10) == PARTITION_COUNTS

    def test_entries_are_polynomial_values(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(29, 12)):
            for x in (-24, -3, 0, 1, 7, 24):
                coeffs = series_oracle(g, x, 12)
                for n in range(13):
                    assert coeffs[n] == p_value(g, n, x)


class TestRowAt:
    """``row_at`` against the polynomials it replaces at an integer b: its
    entry j is P_j(b) under sigma and n! * P_j(b) = A_j(b) * n!/j! otherwise."""

    @pytest.mark.parametrize("g", [ArithmeticFunction.sigma(), ArithmeticFunction.identity(),
                                   random_table(41, 201), random_table(42, 201, 0, 12)],
                             ids=["sigma", "identity", "signed-table", "table"])
    def test_row_is_the_polynomials_at_b(self, g):
        polys = a_poly_list(g, 200)
        for n in (0, 1, 2, 7, 200):
            scale = 1 if g.kind == "sigma" else factorial(n)
            for b in range(-6, 7):
                want = [Fraction(scale * polys[j].evaluate(b), factorial(j)) for j in range(n + 1)]
                assert series.row_at(g, b, n) == want, (g.name, n, b)

    def test_sigma_row_is_the_eta_power(self, sigma_g):
        # P_j(x) = [q**j] prod (1 - q**k)**(-x): tau at x = -24, partitions at x = 1.
        assert series.row_at(sigma_g, -24, 3011) == tau_list(3012)
        assert series.row_at(sigma_g, 1, 10) == PARTITION_COUNTS
        assert series.row_at(sigma_g, -24, 5) == series_oracle(sigma_g, -24, 5)

    def test_reads_g_no_further_than_n(self):
        g = random_table(43, 12)
        assert series.row_at(g, 3, 12) == [factorial(12) * v for v in series_oracle(g, 3, 12)]
        with pytest.raises(TableExhaustedError):
            series.row_at(g, 3, 13)
        with pytest.raises(DomainError):
            series.row_at(g, 3, -1)

    @pytest.mark.parametrize("g", [ArithmeticFunction.sigma(), ArithmeticFunction.identity(),
                                   random_table(44, 500, 0, 49)],
                             ids=["sigma", "identity", "table"])
    def test_peak_is_within_the_size_its_cap_reads(self, g):
        # row_form's size n * (log2 s + n * log2|x|) bits, at 2/8 byte per bit
        # (and 128 KiB of list overhead): a table's dense N holds no offsets per j.
        n = 500
        for x in (0, 3, -10**30):
            scale_bits = 0 if g.kind == "sigma" else n * n.bit_length()
            bits = n * scale_bits + n * n * max(1, abs(x).bit_length())
            tracemalloc.start()
            try:
                series.row_at(g, x, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bits / 4 + 2**17, (g.name, x, peak, bits)

    def test_smallest_row_reaches_the_size_cap_on_n(self, sigma_g):
        # Every row has at least n**2 bits, sigma's at |x| <= 1 exactly that, so
        # the cap on n is the size cap read on n alone: n = 300000 is within both.
        assert series.MAX_ROW_N ** 2 == series.MAX_ROW_BITS
        N, E, unit = series.row_form(sigma_g, 300000, 1)
        assert unit and len(N) == len(E) == 300000


class TestTau:
    def test_first_values_against_product_oracle(self):
        assert tau_list(6) == eta24_expansion(5)

    def test_examples(self):
        assert tau(1) == 1
        assert tau(2) == -24
        assert tau(6) == -6048

    def test_matches_symbolic_path(self, sigma_g):
        values = tau_list(30)
        for n in range(1, 31):
            assert values[n - 1] == p_value(sigma_g, n - 1, -24)

    def test_multiplicative_smoke(self):
        assert tau(6) == tau(2) * tau(3)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            tau(0)


def schoolbook_square(a, n):
    """First n coefficients of a*a by the quadratic double loop."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(a[: n - i]):
            out[i + j] += x * y
    return out


def near_byte_boundary(bits, above, tail):
    """A series whose l1**2 lies just below 2**bits (above=0) or just
    past it (above=1), and whose square has the constant term
    head**2 >= 2**(bits - 1), so it fills the top of its slot."""
    l1 = isqrt((1 << bits) - 1) + above
    head = l1 - tail
    assert head * head >= 1 << (bits - 1)
    return [-head] + [(-1) ** i for i in range(tail)]


class TestSquaringKernel:
    def test_adversarial_inputs_match_schoolbook(self):
        rng = random.Random(5)
        cases = [
            [-rng.randint(1, 10**6) for _ in range(40)],  # all negative
            [(-1) ** i * 255 for i in range(50)],  # alternating +-max
            [(-1) ** i * (2**64 - 1) for i in range(30)],
            [-200],  # a one-term square filling a 2-byte slot to the sign bit
        ]
        for bits in (16, 24, 64, 128):
            for above in (0, 1):
                for tail in (0, 1, 3):
                    cases.append(near_byte_boundary(bits, above, tail))
        for a in cases:
            for n in (1, 2, len(a), 2 * len(a) + 3):
                assert _square_truncated(a, n) == schoolbook_square(a, n), (a, n)

    def test_random_signed_inputs_match_schoolbook(self):
        rng = random.Random(11)
        for _ in range(200):
            length = rng.randint(1, 30)
            scale = 2 ** rng.randint(0, 100)
            a = [rng.randint(-scale, scale) for _ in range(length)]
            n = rng.randint(1, 2 * length + 2)
            assert _square_truncated(a, n) == schoolbook_square(a, n), (a, n)


class TestTauOracle:
    def test_matches_recurrence_for_small_n(self):
        for N in range(1, 61):
            assert tau_list(N) == tau_list_recurrence(N), N

    def test_matches_recurrence_at_ten_thousand(self):
        assert tau_list(10_000) == tau_list_recurrence(10_000)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            tau_list(0)


class TestEvaluateAtQuadratic:
    def test_x_at_i(self, sigma_g):
        assert evaluate_at_quadratic(a_poly(sigma_g, 1), -1, 1, 0) == (0, 1)

    def test_p2_at_i(self, sigma_g):
        # A_2 = X**2 + 3X: i**2 + 3i = -1 + 3i, twice P_2(i) = -1/2 + 3i/2
        got = evaluate_at_quadratic(a_poly(sigma_g, 2), -1, 1, 0)
        assert got == (-1, 3)

    def test_true_root_reports_zero(self, sigma_g):
        # -3 is a root of the quadratic member; pass it as 0*w + (-3)
        got = evaluate_at_quadratic(a_poly(sigma_g, 2), -1, 0, -3)
        assert got == (0, 0)

    def test_rejects_bad_d(self, sigma_g):
        p = a_poly(sigma_g, 2)
        for D in (0, 1, 4, 12, -8):
            with pytest.raises(DomainError):
                evaluate_at_quadratic(p, D, 1, 0)

    def test_zero_iff_min_poly_divides(self, sigma_g):
        rng = random.Random(11)
        for _ in range(40):
            D = rng.choice([-1, -2, -3, 2, 3, 5, -7, 13])
            a = rng.choice([1, -1, 2, 3])
            b = rng.randint(-4, 4)
            m = QuadraticShift(D, a, b).min_poly
            extra = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            multiple = m * extra
            assert evaluate_at_quadratic(multiple, D, a, b) == (0, 0)
            if not (extra % m).is_zero:  # m is monic: division over Z
                val = evaluate_at_quadratic(extra, D, a, b)
                assert val != (0, 0)

    def test_golden_ratio_unit(self):
        # w(5) = (1+sqrt 5)/2 satisfies w^2 = w + 1
        p = IntPoly((-1, -1, 1))
        assert evaluate_at_quadratic(p, 5, 1, 0) == (0, 0)


class TestEvaluateAtCyclotomic:
    def test_x_at_zeta4(self, sigma_g):
        assert evaluate_at_cyclotomic(a_poly(sigma_g, 1), 4, 1, 0) == (0, 1)

    def test_p3_at_shifted_cube_root(self, sigma_g):
        vec = evaluate_at_cyclotomic(a_poly(sigma_g, 3), 3, 1, 1)
        assert vec == (7, 17)

    def test_linear_shift_value(self):
        vec = evaluate_at_cyclotomic(IntPoly((1, 1)), 3, 1, 0)
        assert vec == (1, 1)
        assert any(vec)

    def test_phi_m_vanishes_at_zeta(self):
        from darcais import cyclotomic

        for m in range(3, 16):
            vec = evaluate_at_cyclotomic(cyclotomic(m), m, 1, 0)
            assert not any(vec)

    def test_numeric_cross_check(self, sigma_g):
        mpmath.mp.dps = 50
        for m, a, b, n in [(3, 1, 1, 3), (5, 2, -1, 4), (8, 1, 0, 6), (7, -1, 2, 5)]:
            poly = a_poly(sigma_g, n)
            vec = evaluate_at_cyclotomic(poly, m, a, b)
            zeta = mpmath.e ** (2j * mpmath.pi / m)
            direct = mpmath.polyval([mpmath.mpf(c) for c in reversed(poly.coeffs)], a * zeta + b)
            recon = mpmath.fsum(
                [mpmath.re(v * zeta**k) for k, v in enumerate(vec)]
            ) + 1j * mpmath.fsum([mpmath.im(v * zeta**k) for k, v in enumerate(vec)])
            assert mpmath.fabs(direct - recon) < mpmath.mpf(10) ** -30
            assert any(vec)

    def test_rejects_small_m(self, sigma_g):
        with pytest.raises(DomainError):
            evaluate_at_cyclotomic(a_poly(sigma_g, 1), 2, 1, 0)


class TestHurwitz:
    def test_examples(self):
        assert hurwitz_check(IntPoly((3, 1))) is True
        assert hurwitz_check(IntPoly((8, 21, 1))) is True
        assert hurwitz_check(IntPoly((1, 0, 1))) is False

    def test_constant_is_vacuously_stable(self):
        assert hurwitz_check(IntPoly((5,))) is True

    def test_root_at_origin_is_domain_error(self):
        with pytest.raises(DomainError):
            hurwitz_check(IntPoly((0, 1)))
        with pytest.raises(DomainError):
            hurwitz_check(IntPoly.zero())

    def test_symmetric_factor_detected(self):
        # (X + 1)(X**2 + 1): boundary roots, not strictly Hurwitz
        assert hurwitz_check(IntPoly((1, 1, 1, 1))) is False

    def test_sign_flip_handled(self):
        assert hurwitz_check(IntPoly((-3, -1))) is True

    def test_against_numpy_roots(self):
        rng = random.Random(13)
        checked = 0
        while checked < 120:
            degree = rng.randint(1, 7)
            coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.randint(1, 6)]
            if coeffs[0] == 0:
                continue
            roots = np.roots(list(reversed(coeffs)))
            margin = max(abs(r.real) for r in roots)
            if margin < 1e-9 or any(abs(r.real) < 1e-9 for r in roots):
                continue  # too close to the axis for a float oracle
            want = all(r.real < 0 for r in roots)
            assert hurwitz_check(IntPoly(coeffs)) == want, coeffs
            checked += 1

    def test_sigma_reduced_polynomials_nonnegative_and_hurwitz(self, sigma_g):
        for n in range(1, 31):
            h = h_int(sigma_g, n)
            assert all(c >= 0 for c in h.coeffs)
            assert hurwitz_check(h) is True


def hurwitz_outcome(check, p):
    """check(p), or DomainError if it raises one."""
    try:
        return check(p)
    except DomainError:
        return DomainError


coefficient = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


class TestHurwitzOracle:
    def test_sigma_sweep(self, sigma_g):
        for n in range(1, 61):
            h = h_int(sigma_g, n)
            assert hurwitz_check(h) == hurwitz_check_fraction(h), n

    def test_identity_and_random_tables(self, identity_g):
        tables = [random_table(seed, 40, 1, 9) for seed in (1, 2, 3)]
        for g in [identity_g, *tables, random_table(4, 40)]:
            for n in range(1, 41):
                h = h_int(g, n)
                assert hurwitz_outcome(hurwitz_check, h) == hurwitz_outcome(
                    hurwitz_check_fraction, h
                ), (g, n)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(coefficient, min_size=1, max_size=11))
    @example([1, 1, 1, 1])  # (X + 1)(X**2 + 1): all-zero row
    @example([2, 2, 1, 1])  # (X + 1)(X**2 + 2)
    @example([6, 2, 3, 1])  # (X + 3)(X**2 + 2)
    @example([2, 2, 3, 1, 1])  # (X**2 + X + 1)(X**2 + 2)
    @example([1, 2, 2, 1, 1])  # a zero pivot in a nonzero row
    @example([Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)])
    @example([-3, -1])
    @example([0, 1])
    def test_matches_fraction_table(self, coeffs):
        # Scaling by the positive lcm of the denominators moves no root.
        scale = lcm(*(Fraction(c).denominator for c in coeffs))
        p = IntPoly(int(Fraction(c) * scale) for c in coeffs)
        assert hurwitz_outcome(hurwitz_check, p) == hurwitz_outcome(
            hurwitz_check_fraction, coeffs
        )


def routh_sweep(seed: int, count: int) -> list[list[int]]:
    """Integer polynomials (constant first, leading coefficient > 0) of
    degree 1..12: random coefficients, a third of those of both signs, and
    products of random linear and quadratic factors, whose tables hold
    zero and near-zero pivots."""
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        degree, k = rng.randint(1, 12), rng.choice((3, 30, 1000))
        if rng.random() < 0.5:
            low = rng.choice((-k, 1, 1))
            polys.append([rng.randint(low, k) for _ in range(degree)] + [rng.randint(1, k)])
            continue
        factors = []
        while sum(len(f) - 1 for f in factors) < degree:
            factors.append(rng.choice(((rng.randint(1, 9), 1),
                                       (rng.randint(1, 30), rng.randint(-1, 3), 1))))
        polys.append(list(expand_product(factors).coeffs))
    return polys


class TestRouthIntervals:
    def test_toy_precision_is_sound(self):
        # Rows cut to a few bits decide little, so an endpoint rounded the
        # wrong way shows as a wrong answer: flooring hi gives hundreds here.
        examples = [[1, 1, 1, 1], [2, 2, 1, 1], [6, 2, 3, 1], [2, 2, 3, 1, 1], [1, 2, 2, 1, 1],
                    [3, 1], [1, 0, 1]]
        decided = total = 0
        for coeffs in examples + routh_sweep(21, 2000):
            want = bool(coeffs[0]) and hurwitz_check_fraction(coeffs)  # X | p: not stable
            for bits in (2, 4, 8, 16):
                got = _routh(coeffs, bits)
                assert got in (None, want), (coeffs, bits)
                decided += got is not None
                total += 1
        assert decided > total // 2

    @staticmethod
    def spy_on_routh(monkeypatch) -> list[tuple[list[int], int, bool | None]]:
        calls = []

        def spy(coeffs, bits):
            verdict = _routh(coeffs, bits)
            calls.append((coeffs, bits, verdict))
            return verdict

        monkeypatch.setattr(series, "_routh", spy)
        return calls

    def test_production_precision_never_needs_the_exact_table(self, sigma_g, identity_g,
                                                              monkeypatch):
        calls = self.spy_on_routh(monkeypatch)
        for g in (sigma_g, identity_g):
            for h in a_poly_list(g, 80)[1:]:
                assert hurwitz_check(IntPoly(h.coeffs[1:])) is True
        assert len(calls) == 2 * 80  # one width per n, A_1/X included
        for coeffs, bits, verdict in calls:
            assert bits == 8 * (len(coeffs) - 1) + 64 and verdict is True, len(coeffs)

    @pytest.mark.parametrize("n", [149, 200])
    def test_sigma_past_the_first_width_settles_at_the_second(self, sigma_g, monkeypatch, n):
        # The exact table (1.65 s at n = 149, 9.85 s at 200, 2-vCPU Xeon) says True.
        h = IntPoly(a_poly(sigma_g, n).coeffs[1:])
        calls = self.spy_on_routh(monkeypatch)
        assert hurwitz_check(h) is True
        assert [(bits, verdict) for _, bits, verdict in calls] == [
            (8 * (n - 1) + 64, None), (16 * (n - 1) + 64, True)]


class TestTauCongruences:
    def test_product_oracle_extended_window(self):
        assert tau_list(12) == eta24_expansion(11)

    def test_ramanujan_congruence_mod_691(self):
        # tau(n) agrees with the 11th-power divisor sum mod 691
        values = tau_list(200)
        for n in range(1, 201):
            sigma11 = sum(d**11 for d in range(1, n + 1) if n % d == 0)
            assert (values[n - 1] - sigma11) % 691 == 0, n


class TestEvaluatorCrossConsistency:
    def test_zeta4_matches_gaussian_generator(self, sigma_g):
        for n in (1, 2, 5, 8):
            poly = a_poly(sigma_g, n)
            for a, b in ((1, 0), (2, -3), (-1, 4)):
                assert evaluate_at_cyclotomic(poly, 4, a, b) == evaluate_at_quadratic(
                    poly, -1, a, b
                )

    def test_zeta6_is_the_d_minus3_generator(self, sigma_g):
        # zeta_6 = (1 + sqrt(-3))/2, exactly the integral generator for D = -3
        for n in (1, 3, 6):
            poly = a_poly(sigma_g, n)
            for a, b in ((1, 0), (3, -2), (-2, 1)):
                assert evaluate_at_cyclotomic(poly, 6, a, b) == evaluate_at_quadratic(
                    poly, -3, a, b
                )

    def test_zeta3_is_shifted_generator(self, sigma_g):
        # zeta_3 = w(-3) - 1: same evaluation point, bases differing by
        # u + v*zeta_3 = (u - v) + v*w(-3)
        for n in (2, 4, 7):
            poly = a_poly(sigma_g, n)
            for a, b in ((1, 0), (2, 5), (-3, -1)):
                u, v = evaluate_at_cyclotomic(poly, 3, a, b)
                assert evaluate_at_quadratic(poly, -3, a, b - a) == (u - v, v)


class TestPartitionRecurrenceOracle:
    def test_against_pentagonal_recurrence(self, sigma_g):
        # independent oracle: Euler's pentagonal-number recurrence for the
        # partition counts, compared against the formal exponential at x = 1
        N = 50
        p = [1] + [0] * N
        for n in range(1, N + 1):
            total = 0
            k = 1
            while True:
                for g_k in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                    if g_k > n:
                        break
                    total += (-1) ** (k + 1) * p[n - g_k]
                if k * (3 * k - 1) // 2 > n:
                    break
                k += 1
            p[n] = total
        assert series_oracle(sigma_g, 1, N) == p
