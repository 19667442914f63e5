import random
from fractions import Fraction

import pytest

from darcais import DomainError, IntPoly, format_poly, reduce_mod


class TestIntPoly:
    def test_canonical_trailing_strip(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).is_zero
        assert IntPoly(()).degree == -1

    def test_arithmetic(self):
        p = IntPoly((1, 1))  # 1 + X
        q = IntPoly((-1, 1))  # -1 + X
        assert p * q == IntPoly((-1, 0, 1))
        assert p + q == IntPoly((0, 2))
        assert p - p == IntPoly.zero()
        assert (p * 3).coeffs == (3, 3)
        assert p**3 == IntPoly((1, 3, 3, 1))

    def test_power_zero(self):
        assert IntPoly((0, 5)) ** 0 == IntPoly.one()

    def test_evaluate(self):
        p = IntPoly((8, 21, 1))
        assert p.evaluate(0) == 8
        assert p.evaluate(-1) == -12
        assert p.evaluate(Fraction(1, 2)) == Fraction(8, 1) + Fraction(21, 2) + Fraction(1, 4)

    def test_div_exact(self):
        num = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # X^6 - 1
        den = IntPoly((-1, 1))  # X - 1
        got = num.div_exact(den)
        assert got * den == num

    def test_div_exact_rejects_inexact(self):
        with pytest.raises(DomainError):
            IntPoly((1, 0, 1)).div_exact(IntPoly((1, 1)))

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            IntPoly((Fraction(1, 2),))

    def test_json_form(self):
        p = IntPoly((0, -3, 12345678901234567890))
        assert p.to_json_dict() == {
            "degree": 2,
            "coeffs": ["0", "-3", "12345678901234567890"],
        }

    def test_divmod_by_monic(self):
        num = IntPoly((5, 0, 3, 1))  # X^3 + 3X^2 + 5
        den = IntPoly((1, 0, 1))  # X^2 + 1
        q, r = divmod(num, den)
        assert (q, r) == (IntPoly((3, 1)), IntPoly((2, -1)))
        assert q * den + r == num
        assert (num // den, num % den) == (q, r)
        assert (den * q) % den == IntPoly.zero()
        assert den % num == den  # a lower degree is its own remainder

    def test_divmod_rejects_a_non_integral_quotient(self):
        with pytest.raises(DomainError):
            IntPoly((1, 1)) % IntPoly((1, 2))
        assert IntPoly((2, 4)) % IntPoly((1, 2)) == IntPoly.zero()
        with pytest.raises(DomainError):
            IntPoly((1, 1)) % IntPoly.zero()

    def test_divmod_agrees_across_rings(self):
        # Z and F_p share one long division: by a monic divisor the
        # integer quotient and remainder, reduced, are those over F_p.
        rng = random.Random(11)
        for _ in range(200):
            num = IntPoly(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
            den = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [1])
            q, r = divmod(num, den)
            assert r.degree < den.degree
            assert q * den + r == num
            for p in (2, 5, 7):
                want = (reduce_mod(q, p), reduce_mod(r, p))
                assert divmod(reduce_mod(num, p), reduce_mod(den, p)) == want


class TestFormatting:
    def test_format_poly(self):
        assert format_poly((8, 21, 1)) == "X^2 + 21*X + 8"
        assert format_poly((0, -1, 1)) == "X^2 - X"
        assert format_poly(()) == "0"
        assert format_poly((-5,)) == "-5"
        assert str(IntPoly((1, 0, -1, 2))) == "2*X^3 - X^2 + 1"
