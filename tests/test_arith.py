import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import darcais
from darcais import (
    ArithmeticFunction,
    CertifyConfig,
    CyclotomicShift,
    DomainError,
    QuadraticShift,
    Scope,
    TableExhaustedError,
    certify,
    dedekind_kummer_split,
    euler_phi,
    is_prime,
    legendre_symbol,
    sigma,
)
from darcais.arith import divisors, is_squarefree, prime_factors, primes_up_to, replace

from oracles import inertia_degree_cyclotomic, multiplicative_order

PACKAGE_ROOT = str(Path(darcais.__file__).parent.parent)


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def brute_phi(m):
    from math import gcd

    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


class TestSigma:
    def test_one(self):
        assert sigma(1) == 1

    def test_small_values(self):
        assert sigma(6) == brute_sigma(6) == 12
        assert sigma(12) == brute_sigma(12) == 28

    def test_against_enumeration(self):
        for n in range(1, 200):
            assert sigma(n) == brute_sigma(n)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            sigma(0)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(7) == 6

    def test_against_enumeration(self):
        for m in range(1, 150):
            assert euler_phi(m) == brute_phi(m)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            euler_phi(0)


class TestFactorization:
    """The three functions that read the trial-division factorization,
    against sympy over every nonzero |n| <= 10**4."""

    def test_against_sympy(self):
        from math import prod

        from sympy import factorint

        for n in range(-(10**4), 10**4 + 1):
            if n == 0:
                continue
            exponents = {int(p): e for p, e in factorint(abs(n)).items()}
            squarefree = all(e == 1 for e in exponents.values())
            assert prime_factors(n) == sorted(exponents), n
            assert is_squarefree(n) == squarefree, n
            if n > 0:
                assert euler_phi(n) == prod(p ** (e - 1) * (p - 1) for p, e in exponents.items())

    @pytest.mark.parametrize("fn", [prime_factors, is_squarefree, divisors, euler_phi])
    def test_rejects_zero(self, fn):
        with pytest.raises(DomainError):
            fn(0)

    @pytest.mark.parametrize("fn", [divisors, sigma, euler_phi])
    def test_rejects_negative(self, fn):
        for n in (-1, -12):
            with pytest.raises(DomainError):
                fn(n)


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(-1, 7) == -1
        assert legendre_symbol(0, 5) == 0
        assert legendre_symbol(2, 7) == 1

    def test_matches_euler_criterion(self):
        for p in primes_up_to(50):
            if p == 2:
                continue
            for D in range(-20, 21):
                want = pow(D % p, (p - 1) // 2, p)
                want = -1 if want == p - 1 else want
                assert legendre_symbol(D, p) == want

    def test_squares_are_residues(self):
        for p in (3, 5, 7, 11, 13):
            for x in range(1, p):
                assert legendre_symbol(x * x, p) == 1

    def test_rejects_two_and_composites(self):
        with pytest.raises(DomainError):
            legendre_symbol(3, 2)
        with pytest.raises(DomainError):
            legendre_symbol(3, 9)


class TestMultiplicativeOrder:
    """The oracle that the cyclotomic tests read residue degrees from."""

    def test_against_brute_force(self):
        for m in range(1, 60):
            for a in range(-m, 2 * m):
                if math.gcd(a, m) != 1:
                    continue
                f = next(f for f in range(1, m + 1) if pow(a, f, m) == 1 % m)
                assert multiplicative_order(a, m) == f, (a, m)

    def test_rejects_non_invertible_and_bad_modulus(self):
        for a, m in ((2, 4), (0, 7), (6, 9), (3, 0), (3, -5)):
            with pytest.raises(DomainError):
                multiplicative_order(a, m)


class TestInertiaDegree:
    def test_examples(self):
        assert inertia_degree_cyclotomic(7, 4) == 2
        assert inertia_degree_cyclotomic(3, 4) == 2
        assert inertia_degree_cyclotomic(2, 7) == 3

    def test_minimality(self):
        for p in (2, 3, 5, 7, 11):
            for m in range(3, 40):
                f = inertia_degree_cyclotomic(p, m)
                m_p = m
                while m_p % p == 0:
                    m_p //= p
                assert pow(p, f, m_p) % m_p == 1 % m_p
                for e in range(1, f):
                    assert pow(p, e, m_p) != 1 % m_p

    def test_strips_p_part(self):
        # level 12 = 4 * 3: for p = 2 only the odd part 3 matters
        assert inertia_degree_cyclotomic(2, 12) == multiplicative_order(2, 3)

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            inertia_degree_cyclotomic(5, 2)


class TestIsPrime:
    def test_small(self):
        primes = set(primes_up_to(200))
        for n in range(200):
            assert is_prime(n) == (n in primes)

    def test_strong_pseudoprimes(self):
        for n in (341, 561, 645, 25326001, 3215031751):
            assert not is_prime(n)
        assert is_prime(2**31 - 1)

    def test_rejects_huge(self):
        with pytest.raises(DomainError):
            is_prime(2**64)


class TestArithmeticFunction:
    def test_builtin_values(self, sigma_g, identity_g):
        assert sigma_g(6) == 12
        assert identity_g(6) == 6
        assert sigma_g(1) == identity_g(1) == 1

    def test_table_lookup_and_exhaustion(self):
        g = ArithmeticFunction.from_table([1, -4, 7])
        assert g(2) == -4
        assert g(3) == 7
        with pytest.raises(TableExhaustedError):
            g(4)

    def test_require_up_to_is_plan_time(self):
        g = ArithmeticFunction.from_table([1, 2])
        g.require_up_to(2)
        with pytest.raises(TableExhaustedError):
            g.require_up_to(3)

    def test_g1_must_be_one(self):
        with pytest.raises(DomainError):
            ArithmeticFunction.from_table([2, 3])

    def test_rejects_bad_arguments(self, sigma_g):
        with pytest.raises(DomainError):
            sigma_g(0)
        with pytest.raises(DomainError):
            sigma_g(-3)

    def test_from_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\n5\n-2\n")
        g = ArithmeticFunction.from_file(path)
        assert g(1) == 1 and g(2) == 5 and g(3) == -2

    def test_from_file_rejects_bad_head(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n5\n")
        with pytest.raises(DomainError):
            ArithmeticFunction.from_file(path)

    def test_hashable(self, sigma_g):
        assert len({sigma_g, ArithmeticFunction.sigma()}) == 1

    def test_table_is_hashed_once(self):
        class CountingTuple(tuple):
            hashes = 0

            def __hash__(self):
                CountingTuple.hashes += 1
                return super().__hash__()

        g = ArithmeticFunction(kind="table", name="t", table=CountingTuple((1, 2, 3)))
        for _ in range(5):
            hash(g)
        assert CountingTuple.hashes == 1
        assert hash(g) == hash(ArithmeticFunction.from_table([1, 2, 3], name="t"))

    def test_pickle_rehashes_in_the_loading_process(self):
        # A hash computed under another PYTHONHASHSEED must not travel along.
        script = (
            "import pickle, sys; from darcais import ArithmeticFunction; "
            "sys.stdout.buffer.write(pickle.dumps(ArithmeticFunction.from_table([1, 5, 2])))"
        )
        path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        blob = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              check=True).stdout
        loaded = pickle.loads(blob)
        assert {ArithmeticFunction.from_table([1, 5, 2]): "hit"}[loaded] == "hit"


class TestValueClasses:
    """The library's value classes share ``arith.FrozenValue``."""

    def test_same_fields_of_another_class_are_another_key(self):
        q, c = QuadraticShift(D=5, a=1, b=0), CyclotomicShift(m=5, a=1, b=0)
        assert q != c and len({q: 0, c: 1}) == 2
        assert dedekind_kummer_split(q, 3).candidate is q
        assert dedekind_kummer_split(c, 3).candidate is c

    def test_equal_by_fields_however_built(self):
        q = QuadraticShift(-1, 2, 1)
        assert q == QuadraticShift(D=-1, a=2, b=1) == QuadraticShift.gaussian(2, 1)
        assert hash(q) == hash(QuadraticShift(D=-1, a=2, b=1))
        assert repr(q) == "QuadraticShift(D=-1, a=2, b=1)"
        assert Scope.single(4) == Scope("single", 4) != Scope.single(5)

    def test_assignment_raises(self):
        cert = certify(ArithmeticFunction.sigma(), QuadraticShift.gaussian(1, 100), 2)
        for value, name in ((QuadraticShift(-1, 2, 1), "a"), (cert, "method"),
                            (cert.scope, "n"), (CertifyConfig(), "seed"),
                            (ArithmeticFunction.sigma(), "kind")):
            with pytest.raises(AttributeError):
                setattr(value, name, 3)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_cached_property_caches_and_keeps_the_key(self):
        c = CyclotomicShift(m=12, a=2, b=1)
        before = hash(c)
        assert c.min_poly is c.min_poly and "min_poly" in vars(c)
        assert hash(c) == before and c == CyclotomicShift(12, 2, 1)

    def test_replace_revalidates(self):
        config = replace(CertifyConfig(), seed=3)
        assert config.seed == 3 and config.primes == CertifyConfig().primes
        with pytest.raises(DomainError):
            replace(config, primes=(4,))
        with pytest.raises(DomainError):
            replace(QuadraticShift(-1, 2, 1), a=0)
        with pytest.raises(TypeError):
            replace(config, bogus=1)

    def test_bad_arguments_are_type_errors(self):
        for args, kwargs in (((), {}), (("single", 1, 2, (), 5), {}),
                             (("single",), {"kind": "all"}), ((), {"kind": "all", "m": 1})):
            with pytest.raises(TypeError):
                Scope(*args, **kwargs)


class TestPrimesUpTo:
    def test_values_and_type(self):
        assert primes_up_to(1) == ()
        assert primes_up_to(2) == (2,)
        assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert all(is_prime(p) for p in primes_up_to(500))
        assert len(primes_up_to(1000)) == 168
