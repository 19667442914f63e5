"""Write ``genuine_roots.json``: known roots for the soundness tests.

Every monic irreducible factor f of degree 2..8 of the integer D'Arcais
polynomial A_n, for n <= 30, under sigma, the identity and the tables
``random_table(s, 40, -20, 20)`` of ``tests/conftest.py`` (s = 1, 2, 3).
Each root of f is a genuine root of A_{n0}, so no certificate with an
infinite scope may cover (f, n0).  A_n comes from the row recursion of
``tests/oracles.py`` and is factored over Z by sympy, a test-only
dependency.  The file names each g, and holds the values of each table, so
it reads without this script.

Run from the repository root:

    python tests/data/make_genuine_roots.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import sympy  # noqa: E402

from conftest import random_table  # noqa: E402
from darcais import ArithmeticFunction  # noqa: E402
from oracles import a_poly_list_rows  # noqa: E402

PATH = HERE / "genuine_roots.json"
N_MAX = 30
DEGREES = range(2, 9)


def corpus_functions() -> list[ArithmeticFunction]:
    tables = [random_table(s, 40, -20, 20) for s in (1, 2, 3)]
    return [ArithmeticFunction.sigma(), ArithmeticFunction.identity(), *tables]


def build_corpus() -> dict:
    x = sympy.Symbol("x")
    entries = []
    for g in corpus_functions():
        for n0, a_n in enumerate(a_poly_list_rows(g, N_MAX)):
            _, factors = sympy.factor_list(sympy.Poly(a_n.coeffs[::-1], x))
            for f, _ in factors:
                if f.degree() in DEGREES and f.LC() == 1:
                    coeffs = [int(c) for c in reversed(f.all_coeffs())]
                    entries.append({"g": g.name, "n0": n0, "coeffs": coeffs})
    entries.sort(key=lambda e: (e["g"], e["n0"], len(e["coeffs"]), e["coeffs"]))
    return {
        "n_max": N_MAX,
        "tables": {g.name: list(g.table) for g in corpus_functions() if g.kind == "table"},
        "entries": entries,
    }


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    PATH.write_text(dumps(build_corpus()))
    print(f"wrote {PATH}")
