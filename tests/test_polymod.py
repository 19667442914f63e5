import ast
import math
import random
import time
from itertools import product
from pathlib import Path

import pytest

from darcais import (
    ArithmeticFunction,
    DomainError,
    IntPoly,
    a_poly,
    a_poly_mod,
    cyclotomic,
    euler_phi,
    factor,
    factor_a_poly_mod,
    is_irreducible,
    parse_candidate,
    reduce_mod,
)
from darcais import arith, polynomial
from darcais.polymod import ModPoly, _factor_bracket, poly_gcd, pow_mod

from conftest import random_table
from oracles import (
    a_poly_oracle,
    cyclotomic_by_division,
    divides_a_poly_mod,
    is_irreducible_rabin,
    multiplicative_order,
)


def random_mod_poly(rng, p, max_degree=8):
    coeffs = [rng.randrange(p) for _ in range(rng.randint(1, max_degree + 1))]
    return ModPoly(p, coeffs)


def brute_irreducible(f: ModPoly) -> bool:
    """Oracle: no monic divisor of degree 1..deg//2 (exhaustive search)."""
    p, d = f.p, f.degree
    if d <= 0:
        return False
    for k in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=k):
            candidate = ModPoly(p, list(tail) + [1])
            if candidate.divides(f):
                return False
    return True


class TestModPoly:
    def test_reduction_on_construction(self):
        assert ModPoly(7, (8, -1, 14)).coeffs == (1, 6)

    def test_divmod(self):
        rng = random.Random(3)
        for p in (2, 3, 5, 7):
            for _ in range(40):
                a = random_mod_poly(rng, p)
                b = random_mod_poly(rng, p)
                if b.is_zero:
                    continue
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.is_zero or r.degree < b.degree
                assert (a // b, a % b) == (q, r)
                assert all(0 <= c < p for c in q.coeffs + r.coeffs)

    def test_pow_mod_matches_plain_pow(self):
        f = ModPoly(5, (2, 0, 1, 1))
        x = ModPoly.x(5)
        assert pow_mod(x, 12, f) == (x**12) % f
        rng = random.Random(3)
        for p in (2, 3, 7):
            for _ in range(20):
                base = random_mod_poly(rng, p, 6)
                f = random_mod_poly(rng, p, 4) + ModPoly(p, (0,) * 5 + (1,))
                assert pow_mod(base, 0, f) == ModPoly.one(p)
                for e in range(1, 40):
                    assert pow_mod(base, e, f) == (base**e) % f, (p, base, e, f)

    def test_gcd_monic(self):
        a = ModPoly(7, (0, 1)) * ModPoly(7, (1, 1)) * 3
        b = ModPoly(7, (1, 1)) * ModPoly(7, (2, 1)) * 5
        assert poly_gcd(a, b) == ModPoly(7, (1, 1))

    def test_mixed_moduli_rejected(self):
        with pytest.raises(DomainError):
            ModPoly(5, (1,)) + ModPoly(7, (1,))

    def test_modulus_must_be_prime_and_single_precision(self):
        with pytest.raises(DomainError):
            ModPoly(6, (1,))
        with pytest.raises(DomainError):
            ModPoly(2**31 + 11, (1,))


class TestReduceMod:
    def test_h5_reduction(self):
        assert reduce_mod(IntPoly((8, 21, 1)), 7) == ModPoly(7, (1, 0, 1))

    def test_h6_reduction(self):
        got = reduce_mod(IntPoly((144, 181, 34, 1)), 7)
        assert got == ModPoly(7, (4, 6, 6, 1))

    def test_zero(self):
        assert reduce_mod(IntPoly.zero(), 5).is_zero

    def test_rejects_what_is_not_an_int_poly(self):
        for poly in (ModPoly(5, (1, 2)), (1, 2), 3):
            with pytest.raises(TypeError):
                reduce_mod(poly, 7)


class TestFactor:
    def test_x2_plus_1_mod_7_irreducible(self):
        fact = factor(ModPoly(7, (1, 0, 1)))
        assert fact.degrees() == [2]
        assert [mult for _, mult in fact.factors] == [1]

    def test_x2_plus_1_mod_5_splits(self):
        fact = factor(ModPoly(5, (1, 0, 1)))
        assert [p.coeffs for p, _ in fact.factors] == [(2, 1), (3, 1)]

    def test_fermat_polynomial(self):
        for p in (2, 3, 5, 7):
            f = ModPoly(p, [0, p - 1] + [0] * (p - 2) + [1])  # X**p - X
            fact = factor(f)
            assert [q.coeffs for q, _ in fact.factors] == [(c, 1) for c in range(p)]

    def test_round_trip_200_random(self):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            p = rng.choice((2, 3, 5, 7, 11, 13))
            f = random_mod_poly(rng, p, max_degree=9)
            if f.is_zero:
                continue
            fact = factor(f)
            assert fact.product() == f
            assert sum(q.degree * m for q, m in fact.factors) == f.degree
            for q, _ in fact.factors:
                assert q.leading == 1
                assert is_irreducible_rabin(q)
            assert len({q for q, _ in fact.factors}) == len(fact.factors)
            done += 1

    def test_canonical_ordering(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_mod_poly(rng, 5, max_degree=8)
            if f.is_zero:
                continue
            fact = factor(f)
            keys = [q.sort_key() for q, _ in fact.factors]
            assert keys == sorted(keys)

    # factor takes no seed, so no seed can change a factorization; that the
    # documents printing one differ only in it is
    # tests/test_cli.py::TestSeedIsALabel.

    def test_same_seed_same_output(self):
        # Twice past the memo: the splitter's fixed randomness repeats.
        f = ModPoly(11, (3, 1, 4, 1, 5, 9, 2, 6, 1))
        assert factor.__wrapped__(f).to_json_dict(42) == factor.__wrapped__(f).to_json_dict(42)

    def test_char2_repeated_and_equal_degree(self):
        # (X^2 + X + 1)^2 * (X^3 + X + 1) * (X^3 + X^2 + 1) over F_2
        q1 = ModPoly(2, (1, 1, 1))
        q2 = ModPoly(2, (1, 1, 0, 1))
        q3 = ModPoly(2, (1, 0, 1, 1))
        f = q1 * q1 * q2 * q3
        fact = factor(f)
        assert dict(((q.coeffs, m) for q, m in fact.factors)) == {
            (1, 1, 1): 2,
            (1, 1, 0, 1): 1,
            (1, 0, 1, 1): 1,
        }

    def test_unit_recorded(self):
        fact = factor(ModPoly(7, (3, 0, 3)))
        assert fact.unit == 3
        assert fact.product() == ModPoly(7, (3, 0, 3))

    def test_constant_polynomial(self):
        fact = factor(ModPoly(5, (4,)))
        assert fact.unit == 4 and fact.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor(ModPoly(5, ()))

    def test_json_shape(self):
        doc = factor(ModPoly(5, (1, 0, 1))).to_json_dict(9)
        assert doc["p"] == 5 and doc["seed"] == 9
        assert doc["factors"] == [
            {"coeffs": [2, 1], "mult": 1},
            {"coeffs": [3, 1], "mult": 1},
        ]


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible(ModPoly(7, (4, 6, 6, 1)))  # the cubic witness mod 7
        assert not is_irreducible(ModPoly(5, (1, 0, 1)))
        assert is_irreducible(ModPoly(2, (1, 1)))

    def test_against_exhaustive_search(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            for _ in range(60):
                f = random_mod_poly(rng, p, max_degree=4)
                if f.degree < 1:
                    continue
                assert is_irreducible(f) == brute_irreducible(f.monic()), (p, f.coeffs)

    def test_agrees_with_rabin(self):
        rng = random.Random(19)
        for p in (2, 3, 5, 7, 11, 13):
            for _ in range(40):
                f = random_mod_poly(rng, p, max_degree=12)
                if not f.is_zero:
                    assert is_irreducible(f) == is_irreducible_rabin(f), (p, f.coeffs)

    def test_degree_zero_not_irreducible(self):
        assert not is_irreducible(ModPoly(3, (2,)))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_irreducible(ModPoly(3, ()))


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic(1) == IntPoly((-1, 1))
        assert cyclotomic(4) == IntPoly((1, 0, 1))
        assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))

    def test_degree_and_content(self):
        for m in range(1, 40):
            phi_m = cyclotomic(m)
            assert phi_m.degree == euler_phi(m)
            assert phi_m.leading == 1
            assert math.gcd(*phi_m.coeffs) == 1

    def test_divides_x_m_minus_1(self):
        for m in range(1, 40):
            x_m = IntPoly.monomial(m, 1) - IntPoly.one()
            assert x_m.div_exact(cyclotomic(m)) * cyclotomic(m) == x_m

    def test_product_over_divisors(self):
        from darcais.arith import divisors

        for m in range(1, 201):
            prod = IntPoly.one()
            for d in divisors(m):
                prod = prod * cyclotomic(d)
            assert prod == IntPoly.monomial(m, 1) - IntPoly.one()

    def test_matches_the_division_oracle(self):
        for m in (*range(1, 301), 2310, 4620):
            assert cyclotomic(m) == cyclotomic_by_division(m), m

    def test_neither_recurses_nor_keeps_a_memo(self):
        tree = ast.parse(Path(polynomial.__file__).read_text())
        (func,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "cyclotomic"]
        assert func.decorator_list == []
        assert "cyclotomic" not in {node.id for node in ast.walk(func)
                                    if isinstance(node, ast.Name)}

    def test_large_level_within_budget(self):
        # 2**4 passes over phi(55440) = 11520 coefficients; the division
        # by every Phi_d, d | 55440, took minutes.
        start = time.perf_counter()
        phi_m = cyclotomic(55440)
        assert time.perf_counter() - start < 2
        assert phi_m.degree == 11520 and phi_m.evaluate(1) == 1

    def test_irreducible_mod_full_order_prime(self):
        for m, q in ((5, 2), (7, 3), (9, 2), (11, 2), (10, 7)):
            assert multiplicative_order(q, m) == euler_phi(m)
            assert is_irreducible_rabin(reduce_mod(cyclotomic(m), q))


class TestAPolyMod:
    def test_cross_path_equality(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g):
            for p in (2, 3, 5, 7, 11):
                for n in range(41):
                    assert a_poly_mod(g, n, p) == reduce_mod(a_poly(g, n), p)

    def test_prime_index_form(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(7, 15)):
            for p in (2, 3, 5, 7, 11, 13):
                want = ModPoly(p, [0, -g(p)] + [0] * (p - 2) + [1])
                assert a_poly_mod(g, p, p) == want

    def test_identity_power_collapse(self, identity_g):
        assert a_poly_mod(identity_g, 10, 5) == ModPoly(5, [0] * 10 + [1])

    def test_splitting_recursion(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g):
            for p in (2, 3, 5, 7):
                ap = a_poly_mod(g, p, p)
                for ell in range(6):
                    for r in range(p):
                        lhs = a_poly_mod(g, ell * p + r, p)
                        rhs = a_poly_mod(g, r, p) * ap**ell
                        assert lhs == rhs

    def test_linear_split_iff_nice_g(self):
        # sweep the residue of g at p: all factors linear iff residue is 0 or 1
        for p in (2, 3, 5, 7, 11, 13):
            for residue in range(p):
                table = [1] + [1] * (p - 2) + [residue + p]
                g = ArithmeticFunction.from_table(table, name=f"g{p}_{residue}")
                fact = factor(a_poly_mod(g, p, p))
                all_linear = all(q.degree <= 1 for q, _ in fact.factors)
                assert all_linear == (residue in (0, 1)), (p, residue)

    def test_wilson_linear_coefficient(self, sigma_g, identity_g):
        for g in (sigma_g, identity_g, random_table(12, 15)):
            for p in (2, 3, 5, 7, 11, 13):
                assert a_poly_mod(g, p, p).coeff(1) == (-g(p)) % p

    def test_table_exhaustion_is_range_error(self):
        from darcais import TableExhaustedError

        g = ArithmeticFunction.from_table([1, 2, 3])
        with pytest.raises(TableExhaustedError):
            a_poly_mod(g, 10, 5)


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)
DEEP_INDICES = (2501, 3001, 3502)


def oracle_gs():
    """sigma (g(p) = 1 mod p), identity (g(p) = 0 mod p) and three tables."""
    tables = [random_table(seed, 15) for seed in (41, 42, 43)]
    return [ArithmeticFunction.sigma(), ArithmeticFunction.identity()] + tables


def power_route(g, p, indices) -> dict:
    """Oracle: A_n mod p as A_r * (X*(X**(p-1) - g(p)))**l for n = l*p + r,
    with A_r reduced from the integer polynomial and the power taken by
    repeated squaring instead of from binomial coefficients."""
    base = ModPoly(p, [0, -g(p)] + [0] * (p - 2) + [1])
    small = [reduce_mod(a_poly(g, r), p) for r in range(p)]
    powers = {}
    out = {}
    for n in indices:
        ell, r = divmod(n, p)
        if ell not in powers:
            powers[ell] = base**ell
        out[n] = small[r] * powers[ell]
    return out


class TestClosedFormAPolyMod:
    def test_matches_power_route(self):
        for g in oracle_gs():
            for p in ORACLE_PRIMES:
                for n, want in power_route(g, p, range(301)).items():
                    assert a_poly_mod(g, n, p) == want, (g.name, p, n)

    def test_small_index_matches_partition_oracle(self):
        # A_r mod p for r < p is read from the integer recursion; the
        # partition sum is an independent route to the same polynomial.
        for g in oracle_gs():
            for p in ORACLE_PRIMES:
                for r in range(p):
                    want = reduce_mod(a_poly_oracle(g, r), p)
                    assert a_poly_mod(g, r, p) == want, (g.name, p, r)

    def test_matches_power_route_deep(self, sigma_g):
        for n, want in power_route(sigma_g, 5, DEEP_INDICES).items():
            assert a_poly_mod(sigma_g, n, 5) == want, n


class TestFactorAPolyMod:
    def test_matches_full_factorization(self):
        for g in oracle_gs():
            for p in ORACLE_PRIMES:
                for n in range(151):
                    want = factor(a_poly_mod(g, n, p))
                    assert factor_a_poly_mod(g, n, p) == want, (g.name, p, n)

    def test_matches_full_factorization_deep(self, sigma_g):
        for n in DEEP_INDICES:
            want = factor(a_poly_mod(sigma_g, n, 5))
            assert factor_a_poly_mod(sigma_g, n, 5) == want, n

    def test_identity_is_a_pure_power_of_x(self, identity_g):
        fact = factor_a_poly_mod(identity_g, 10**6, 5)
        assert [(q.coeffs, m) for q, m in fact.factors] == [((0, 1), 10**6)]

    def test_cost_does_not_grow_with_n(self, sigma_g):
        fact = factor_a_poly_mod(sigma_g, 10**9 + 3, 7)
        assert sum(q.degree * m for q, m in fact.factors) == 10**9 + 3
        assert fact.unit == 1

    @pytest.mark.parametrize("p", arith.primes_up_to(61))
    def test_bracket_closed_form_is_its_factorization(self, p):
        # B = X**p - c*X for every c mod p: X times X**e - b, e = ord_p(c).
        for c in range(p):
            bracket = ModPoly(p, [0, -c] + [0] * (p - 2) + [1])
            want = factor(bracket)
            assert want.unit == 1 and _factor_bracket(p, c) == want.factors, c

    def test_table_exhaustion_is_range_error(self):
        from darcais import TableExhaustedError

        g = ArithmeticFunction.from_table([1, 2, 3])
        with pytest.raises(TableExhaustedError):
            factor_a_poly_mod(g, 10, 5)
        assert factor_a_poly_mod(g, 3, 5) == factor(a_poly_mod(g, 3, 5))

    def test_rejects_what_a_poly_mod_rejects(self, sigma_g):
        # A float index fails, even after the equal int has run.
        for fn in (a_poly_mod, factor_a_poly_mod):
            with pytest.raises(DomainError):
                fn(sigma_g, -1, 5)
            with pytest.raises(DomainError):
                fn(sigma_g, 12, 6)
            fn(sigma_g, 12, 7)
            with pytest.raises(TypeError):
                fn(sigma_g, 12.0, 7)


def monic_irreducibles_up_to_degree_2(p: int) -> list[ModPoly]:
    """Every monic irreducible of degree 1 or 2 over F_p, X among them."""
    linear = [ModPoly(p, (c, 1)) for c in range(p)]
    quadratic = [ModPoly(p, (c0, c1, 1)) for c1 in range(p) for c0 in range(p)]
    return linear + [q for q in quadratic if brute_irreducible(q)]


def member_of_factorization(q: ModPoly, g, n: int, p: int) -> bool:
    """The generic obstruction's reading: the monic irreducible q divides
    A_n mod p exactly when it is one of the factors of A_n mod p."""
    return q in {poly for poly, _ in factor_a_poly_mod(g, n, p).factors}


def min_poly_factors(specs, p: int) -> set[ModPoly]:
    """Every irreducible factor of c.min_poly mod p over the candidates."""
    found = set()
    for spec in specs:
        c = parse_candidate(spec)
        found.update(q for q, _ in factor(reduce_mod(c.min_poly, p)).factors)
    return found


def scan_grid_specs() -> list[str]:
    """The candidates of the benchmark's four scan-grid kinds, both
    orientations of each a-range."""
    specs = [
        f"quad:{D},{a},{b}"
        for D, a_hi, b_hi in ((-2, 4, 4), (-17, 3, 3))
        for a in range(-a_hi, a_hi + 1)
        for b in range(-b_hi, b_hi + 1)
        if a
    ]
    specs += [f"cyc:8,{a},{b}" for a in range(-6, 7) for b in range(-3, 4) if a]
    specs += [f"gauss:{a},{b}" for a in range(-3, 4) for b in range(-6, 7) if a]
    return specs


def certify_deep_specs() -> list[str]:
    """The candidates of the benchmark's certify-deep workload."""
    return [
        f"cyc:{m},{s * 6 * k},{b}"
        for m in (8, 12)
        for k in (1, 2, 3, 4, 6, 7)
        for s in (1, -1)
        for b in range(-9, 10)
    ]


class TestDividesAPolyMod:
    """Membership in ``factor_a_poly_mod``, the one route the generic
    obstruction takes, against division of the expanded A_n mod p."""

    @pytest.mark.usefixtures("held_a_poly")
    def test_matches_division_of_the_full_polynomial(self):
        # Range: every monic irreducible of degree <= 2 mod p for p in
        # ORACLE_PRIMES; sigma, identity and three random tables; every
        # n < 5p + 3 and n in {61, 2501, 3001}.
        gs = [ArithmeticFunction.sigma(), ArithmeticFunction.identity()]
        gs += [random_table(seed, 80) for seed in (1, 2, 3)]
        checked = 0
        for p in ORACLE_PRIMES:
            qs = monic_irreducibles_up_to_degree_2(p)
            assert ModPoly.x(p) in qs and len(qs) == p + (p * p - p) // 2
            for g in gs:
                for n in sorted(set(range(5 * p + 3)) | {61, 2501, 3001}):
                    for q in qs:
                        want = divides_a_poly_mod(q, g, n, p)
                        assert member_of_factorization(q, g, n, p) == want, (g.name, p, n, q)
                        checked += 1
        assert checked == 60915

    def test_matches_division_on_the_benchmark_candidates(self):
        # Range: every irreducible factor of c.min_poly mod p, p <= 13, for
        # c in the four scan-grid kinds and the certify-deep candidates;
        # sigma, identity and one random table; n in {2501, 3001, 3502}.
        gs = [ArithmeticFunction.sigma(), ArithmeticFunction.identity(), random_table(1, 80)]
        specs = scan_grid_specs() + certify_deep_specs()
        checked = 0
        for p in (2, 3, 5, 7, 11, 13):
            qs = sorted(min_poly_factors(specs, p), key=ModPoly.sort_key)
            for g in gs:
                for n in (2501, 3001, 3502):
                    for q in qs:
                        want = divides_a_poly_mod(q, g, n, p)
                        assert member_of_factorization(q, g, n, p) == want, (g.name, p, n, q)
                        checked += 1
        assert checked == 1872

    def test_matches_division_by_reducible_polynomials(self):
        # Powers and products of linear factors: whether such a q divides
        # A_r * B**l depends on l, not only on which irreducibles divide
        # A_r and B, so only these q see the multiplicities l*m that
        # factor_a_poly_mod adds for the bracket B.
        gs = [ArithmeticFunction.sigma(), ArithmeticFunction.identity(), random_table(1, 80)]
        for p in (2, 3, 5, 7):
            linear = [ModPoly(p, (c, 1)) for c in range(p)]
            qs = [u * v for i, u in enumerate(linear) for v in linear[i:]]
            qs += [ModPoly.x(p) ** k for k in (3, 4, 7)] + [linear[1] ** 3 * linear[0]]
            for g in gs:
                for n in sorted(set(range(5 * p + 3)) | {61, 2501}):
                    mult = dict(factor_a_poly_mod(g, n, p).factors)
                    for q in qs:
                        want = divides_a_poly_mod(q, g, n, p)
                        got = all(mult.get(u, 0) >= k for u, k in factor(q).factors)
                        assert got == want, (g.name, p, n, q)

    def test_cost_does_not_grow_with_n(self, sigma_g):
        # A_n mod 5 is A_1 * (X**5 - X)**l: X and X - 1 divide it, while the
        # irreducible X**2 + 2 divides neither factor.
        n = 10**12 + 1
        assert member_of_factorization(ModPoly.x(5), sigma_g, n, 5)
        assert member_of_factorization(ModPoly(5, (-1, 1)), sigma_g, n, 5)
        assert not member_of_factorization(ModPoly(5, (2, 0, 1)), sigma_g, n, 5)


class TestAgainstSympy:
    """sympy's factorizer as an extra independent oracle (tests only)."""

    def test_factor_matches_sympy(self):
        import sympy

        x = sympy.Symbol("x")
        rng = random.Random(314)
        for _ in range(50):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            f = random_mod_poly(rng, p, max_degree=9)
            if f.degree < 1:
                continue
            mine = factor(f)
            spoly = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p)
            unit, pairs = spoly.factor_list()
            theirs = sorted(
                (
                    ModPoly(p, [int(c) % p for c in reversed(q.all_coeffs())]).sort_key(),
                    mult,
                )
                for q, mult in pairs
            )
            ours = sorted((q.sort_key(), mult) for q, mult in mine.factors)
            assert ours == theirs, (p, f.coeffs)
            assert int(unit) % p == mine.unit


class TestLargeModulus:
    def test_single_precision_limit_boundary(self):
        p = 2**31 - 1  # Mersenne prime, the largest allowed modulus
        inert = ModPoly(p, (1, 0, 1))  # p = 3 mod 4, so X^2 + 1 stays prime
        assert is_irreducible_rabin(inert)
        assert factor(inert).degrees() == [2]
        split = ModPoly(p, (-2 % p, 0, 1))  # 2 is a square mod p (p = 7 mod 8)
        fact = factor(split)
        assert fact.degrees() == [1, 1]
        assert fact.product() == split
