"""Behaviour of the dense polynomial types over Z and F_p.

``IntPoly`` and ``ModPoly`` share one implementation of the ring
operations and of long division; these tests pin what each type promises
on top of that.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darcais
from darcais import DomainError, IntPoly, reduce_mod
from darcais.numfield import CyclotomicShift
from darcais.polymod import ModPoly, factor, poly_gcd

PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13))
INT_COEFFS = st.lists(st.integers(-60, 60), max_size=8)
INT_POLYS = INT_COEFFS.map(IntPoly)
NONZERO_INT_POLYS = INT_POLYS.filter(lambda f: not f.is_zero)


class TestReductionIsARingMap:
    @settings(max_examples=150, deadline=None)
    @given(a=INT_POLYS, b=INT_POLYS, p=PRIMES, k=st.integers(0, 4))
    def test_reduce_mod_commutes(self, a, b, p, k):
        ra, rb = reduce_mod(a, p), reduce_mod(b, p)
        assert reduce_mod(a + b, p) == ra + rb
        assert reduce_mod(a - b, p) == ra - rb
        assert reduce_mod(a * b, p) == ra * rb
        assert reduce_mod(a**k, p) == ra**k
        assert reduce_mod(a * 7, p) == ra * 7


class TestFieldDivision:
    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            divmod(ModPoly(5, (1, 1)), ModPoly.zero(5))

    def test_monic_and_divides(self):
        f = ModPoly(7, (2, 3, 4))
        assert f.monic() == ModPoly(7, (4, 6, 1))  # 4 * 2 = 1 mod 7
        assert f.monic().divides(f) and f.divides(f * ModPoly(7, (1, 1)))
        assert not ModPoly(7, (1, 1)).divides(ModPoly(7, (1, 0, 1)))
        assert ModPoly.zero(7).divides(ModPoly.zero(7))
        with pytest.raises(DomainError):
            ModPoly.zero(7).monic()


class TestDivExact:
    @settings(max_examples=100, deadline=None)
    @given(a=INT_POLYS, b=NONZERO_INT_POLYS)
    def test_round_trip(self, a, b):
        assert (a * b).div_exact(b) == a

    @settings(max_examples=100, deadline=None)
    @given(a=INT_POLYS, b=NONZERO_INT_POLYS, r=INT_POLYS)
    def test_rejects_a_remainder(self, a, b, r):
        r = IntPoly(r.coeffs[: b.degree])  # degree below b's
        if r.is_zero:
            return
        with pytest.raises(DomainError):
            (a * b + r).div_exact(b)

    def test_rejects_non_integral_quotient(self):
        with pytest.raises(DomainError):
            IntPoly((1, 1)).div_exact(IntPoly((2, 2)))

    def test_rejects_zero_divisor(self):
        with pytest.raises(DomainError):
            IntPoly((1, 1)).div_exact(IntPoly.zero())


class TestModPolyContracts:
    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g: f + g,
            lambda f, g: f - g,
            lambda f, g: f * g,
            lambda f, g: divmod(f, g),
            lambda f, g: f % g,
            poly_gcd,
        ],
    )
    def test_mixed_moduli_rejected(self, op):
        with pytest.raises(DomainError):
            op(ModPoly(5, (1, 2)), ModPoly(7, (3, 1)))

    def test_gcd_rejects_mixed_moduli_with_zero(self):
        with pytest.raises(DomainError):
            poly_gcd(ModPoly(5, (1, 2)), ModPoly.zero(7))

    def test_integer_addends_are_not_coerced(self):
        f = ModPoly(5, (1, 2))
        for op in (lambda: f + 1, lambda: 1 + f, lambda: f - 1, lambda: 1 - f):
            with pytest.raises(TypeError):
                op()

    def test_scalars(self):
        f = ModPoly(5, (1, 2))
        assert f * 3 == 3 * f == ModPoly(5, (3, 1))
        assert f * 5 == ModPoly.zero(5)
        with pytest.raises(TypeError):
            f * 1.5
        with pytest.raises(TypeError):
            f * IntPoly((1, 1))

    def test_repr_and_str(self):
        f = ModPoly(7, (8, -1, 14, 1))
        assert repr(f) == "ModPoly(7, [1, 6, 0, 1])"
        assert str(f) == "X^3 + 6*X + 1 (mod 7)"
        assert repr(ModPoly.zero(3)) == "ModPoly(3, [])"
        assert str(ModPoly.zero(3)) == "0 (mod 3)"
        assert repr(IntPoly((1, -2))) == "IntPoly([1, -2])"

    def test_equality_and_hash(self):
        f, g = ModPoly(5, (6, 1)), ModPoly(5, (1, 6))
        assert f == g and hash(f) == hash(g)
        assert len({f, g, ModPoly(5, (1, 1))}) == 1
        assert ModPoly(5, (1,)) != ModPoly(7, (1,))
        assert ModPoly(5, (1, 2)) != IntPoly((1, 2))
        assert ModPoly.one(5) == ModPoly(5, (1,)) and ModPoly.x(5) == ModPoly(5, (0, 1))

    @given(coeffs=INT_COEFFS, p=PRIMES, x=st.integers(-10**6, 10**6))
    def test_evaluate_in_range(self, coeffs, p, x):
        f = ModPoly(p, coeffs)
        value = f.evaluate(x)
        assert 0 <= value < p
        assert value == IntPoly(coeffs).evaluate(x) % p

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ModPoly(5, (1,)).p = 7


class TestPickleAndCopy:
    """Polynomials, and the values that hold them, rebuild through their constructors."""

    @staticmethod
    def values():
        candidate = CyclotomicShift(5, 2, -1)
        assert candidate.min_poly.degree == 4  # cached on the instance
        return [
            IntPoly((1, 2)),
            IntPoly(()),
            ModPoly(5, (1, 2)),
            factor(ModPoly(7, (6, 0, 0, 1))),
            candidate,
        ]

    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, clone):
        for value in self.values():
            twin = clone(value)
            assert type(twin) is type(value) and twin == value, value
            assert hash(twin) == hash(value), value
        candidate = clone(self.values()[-1])
        assert candidate.min_poly == CyclotomicShift(5, 2, -1).min_poly

    def test_clone_stays_immutable(self):
        twin = copy.copy(ModPoly(5, (1, 2)))
        assert twin.p == 5 and twin.coeffs == (1, 2)
        with pytest.raises(AttributeError):
            twin._coeffs = (3,)


def _functions_by_class() -> dict[str, dict[str, ast.FunctionDef]]:
    out = {}
    for path in Path(darcais.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out[f"{path.stem}.{node.name}"] = {
                    item.name: item for item in node.body if isinstance(item, ast.FunctionDef)
                }
    return out


SHARED = ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "__divmod__",
          "__floordiv__", "__mod__", "__eq__", "__hash__", "__repr__")


def test_one_implementation_of_the_dense_operations():
    classes = _functions_by_class()
    for name in ("__add__", "__mul__", "__pow__", "__divmod__", "monic", "divides"):
        owners = [cls for cls, defs in classes.items() if name in defs]
        assert len(owners) == 1, (name, owners)
    assert not set(classes["polymod.ModPoly"]) & set(SHARED)
    # F_p is the only field left, so ``monic`` and ``divides`` are its own.
    assert {"monic", "divides"} <= set(classes["polymod.ModPoly"])
    div_exact = classes["polynomial.IntPoly"]["div_exact"]
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(div_exact))
