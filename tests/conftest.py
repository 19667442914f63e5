import importlib
import random
from functools import cache
from pathlib import Path

import pytest

import darcais
from darcais import ArithmeticFunction, IntPoly, polymod, series

PACKAGE = Path(darcais.__file__).parent
LIBRARY_MODULES = tuple(
    importlib.import_module(f"darcais.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if not path.stem.startswith("__")
)


def library_memos() -> dict:
    """Every ``lru_cache`` of the library, by qualified name."""
    return {
        f"{module.__name__}.{name}": obj
        for module in LIBRARY_MODULES
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }


def clear_library_caches() -> None:
    """Empty every process-wide memo of the library, as in a fresh process."""
    for memo in library_memos().values():
        memo.cache_clear()


@pytest.fixture
def held_a_poly(monkeypatch):
    """``series.a_poly`` memoized for one test: a test that asks the one-shot
    callers (``certify_exact``, ``polymod``'s A_r mod p) at every n of many
    candidates holds its rows, as a scan does.  No value changes."""
    monkeypatch.setattr(series, "a_poly", cache(series.a_poly))


@pytest.fixture
def held_pieces(monkeypatch):
    """``polymod.factor_a_poly_mod`` memoized for one test: a test that asks
    the one-shot ``certify_generic`` at every n of many candidates holds the
    pieces of A_n mod p, as a scan does.  No value changes."""
    monkeypatch.setattr(polymod, "factor_a_poly_mod", cache(polymod.factor_a_poly_mod))


@pytest.fixture
def sigma_g():
    return ArithmeticFunction.sigma()


@pytest.fixture
def identity_g():
    return ArithmeticFunction.identity()


def random_table(seed: int, length: int, low: int = -9, high: int = 9) -> ArithmeticFunction:
    """A reproducible table-backed g with g(1) = 1."""
    rng = random.Random(seed)
    values = [1] + [rng.randint(low, high) for _ in range(length - 1)]
    return ArithmeticFunction.from_table(values, name=f"table{seed}")


def expand_product(factors) -> IntPoly:
    """Multiply out a list of coefficient tuples (constant term first)."""
    out = IntPoly.one()
    for coeffs in factors:
        out = out * IntPoly(coeffs)
    return out


# The factored forms of the first seven integer polynomials for g = sigma,
# used as golden values; each inner tuple is one factor, constant term first.
SIGMA_FACTORED = {
    0: [(1,)],
    1: [(0, 1)],
    2: [(0, 1), (3, 1)],
    3: [(0, 1), (8, 1), (1, 1)],
    4: [(0, 1), (14, 1), (3, 1), (1, 1)],
    5: [(0, 1), (6, 1), (3, 1), (8, 21, 1)],
    6: [(0, 1), (10, 1), (1, 1), (144, 181, 34, 1)],
}
