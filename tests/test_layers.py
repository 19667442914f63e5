"""The package's modules form layers: each imports only modules below it."""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import darcais
from darcais.errors import DomainError

LAYERS = ("errors", "arith", "polynomial", "series", "polymod", "numfield", "certify", "cli")
# The package facade and the ``python -m`` entry point sit above every layer.
ENTRY_POINTS = ("__init__", "__main__")
PACKAGE = Path(darcais.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """Sibling modules named by the relative imports of one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:
            # ``from . import x``: x is an edge only if it names a module,
            # not a package attribute such as ``__version__``.
            found.update(a.name for a in node.names if a.name in LAYERS)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | set(ENTRY_POINTS)


def test_imports_point_strictly_down():
    for rank, module in enumerate(LAYERS):
        for target in sibling_imports(module):
            assert LAYERS.index(target) < rank, f"{module} imports {target}"


def oracle_names() -> set[str]:
    """Names that ``tests/oracles.py`` defines (not the ones it imports)."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_oracles_stay_out_of_the_library():
    # Each decision has one route in the library; a second route lives in
    # tests/oracles.py only, and must not come back as library API.
    names = oracle_names()
    assert {
        "a_poly_oracle",
        "_partitions",
        "DEFAULT_ORACLE_BOUND",
        "a_poly_list_rows",
        "hurwitz_check_fraction",
        "divides_a_poly_mod",
        "is_irreducible_rabin",
        "periodic_residues",
        "zmija_order_six",
        "evaluate_at_quadratic",
        "cyclotomic_by_division",
        "min_poly_by_powers",
    } <= names
    # ``__main__`` only calls ``cli.main``; importing it would run the CLI.
    for mod in (darcais, *(importlib.import_module(f"darcais.{m}") for m in LAYERS)):
        assert not names & set(vars(mod)), mod.__name__


def test_both_minimal_polynomials_are_one_shift():
    # a**d * h((X - b) / a) is built in one place, by Horner's rule in X - b,
    # for Phi_m and for w_D's polynomial alike; no product of polynomials runs.
    tree = ast.parse((PACKAGE / "numfield.py").read_text())

    def body(func):  # the statements, without the annotations
        return ast.Module(body=func.body, type_ignores=[])

    def products(root, *ops):
        return [node for node in ast.walk(root)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ops)]

    (shift,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_shifted_min_poly"]
    min_polys = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "min_poly"]
    assert len(min_polys) == 2
    for func in min_polys:
        called = {node.func.id for node in ast.walk(body(func))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_shifted_min_poly" in called and not products(body(func), ast.Mult, ast.Pow)
    # The shift names IntPoly once, for its result, and raises nothing to a power.
    assert [node.id for node in ast.walk(body(shift))
            if isinstance(node, ast.Name) and node.id == "IntPoly"] == ["IntPoly"]
    assert not products(body(shift), ast.Pow)


def test_numfield_does_not_read_series():
    assert "series" not in sibling_imports("numfield")


def test_obstruction_search_reads_no_splitting_report():
    # The generic obstruction factors f mod p at every prime, p | index
    # included; the Dedekind-Kummer report serves ``split`` only.
    assert "dedekind_kummer_split" not in (PACKAGE / "certify.py").read_text()


def test_irreducibility_is_read_from_factor():
    # Rabin's test is the oracle ``is_irreducible_rabin``; the library reads
    # irreducibility from its one factorization.
    tree = ast.parse((PACKAGE / "polymod.py").read_text())
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "is_irreducible"]
    called = {node.func.id for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "factor" in called and not called & {"pow_mod", "poly_gcd"}


def test_each_chain_decision_is_made_in_one_place():
    # The generic obstruction and the unramified criterion each decide in one
    # search, which their certify_* functions and the scan's point tests
    # call: _point_tests reaches no polymod or arith function of its own.
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module in ("arith", "polymod")
                for alias in node.names}

    def reads(name: str) -> set[str]:
        """polymod.x, arith.x and bare names that the function reads."""
        found = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Name):
                found.add(node.id)
        return found

    point = reads("_point_tests")
    assert not {name for name in point if name.split(".")[0] in ("polymod", "arith")}
    assert not point & (imported - {"ArithmeticFunction"})  # annotations only
    assert {"_obstruction_search", "_unramified_search"} <= point
    assert "_obstruction_search" in reads("certify_generic")
    assert "_unramified_search" in reads("certify_theorem_not_ramified")
    # The prime loops themselves: A_n mod p factored and the witness cases.
    assert [f for f in funcs if "polymod.factor_a_poly_mod" in reads(f)] == [
        "_obstruction_search", "check_zmija_conditions"]
    assert [f for f in funcs if "arith.legendre_symbol" in reads(f)] == ["_unramified_search"]
    # Whether a real-axis point builds its row is read from the absolute bound:
    # scan_grid checks the row at _han_open's |b| and spells no threshold of its own.
    assert "_han_open" in reads("scan_grid")
    assert {node.value for node in ast.walk(funcs["scan_grid"])
            if isinstance(node, ast.Constant) and isinstance(node.value, (int, float))} <= {0, 1}


def seed_holders(node, prefix: str) -> set[str]:
    """Qualified names of the functions with a parameter ``seed`` and the
    classes with a field ``seed``, in and below ``node``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            params = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
            if "seed" in {arg.arg for arg in params}:
                found.add(name)
        elif isinstance(child, ast.ClassDef):
            if any(isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "seed"
                   for stmt in child.body):
                found.add(name)
        found |= seed_holders(child, name if hasattr(child, "name") else prefix)
    return found


def test_only_the_documents_that_print_a_seed_take_one():
    # A factorization over F_p is unique and sorted, so no computation reads
    # the seed: only the certificate that records it, the two JSON writers
    # that print it and the configuration that holds the one default do.
    found = set()
    for module in LAYERS:
        found |= seed_holders(ast.parse((PACKAGE / f"{module}.py").read_text()), module)
    assert found == {"certify.certify_generic", "certify.CertifyConfig",
                     "polymod.Factorization.to_json_dict",
                     "numfield.SplittingReport.to_json_dict"}


def test_series_reads_how_g_is_given_in_one_place():
    # Every route of series is chosen from the form (N, E), not from g.kind.
    tree = ast.parse((PACKAGE / "series.py").read_text())
    (form,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_log_derivative_form"]

    def kind_reads(root):
        return sum(isinstance(node, ast.Attribute) and node.attr == "kind"
                   for node in ast.walk(root))

    assert kind_reads(tree) == kind_reads(form) > 0


# What ``import darcais.cli`` must not add to a fresh interpreter: the
# stdlib modules ``dataclasses`` pulls in at import, and ``fractions`` with
# the modules it loads, which only ``poly --rational`` imports.
RATIONAL_ONLY = ("fractions", "decimal", "numbers")
STARTUP_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", *RATIONAL_ONLY)

# The seed-0 argv of the benchmark's three workloads, the absolute bound
# proving a real quadratic point from its bracket of sqrt(D), and a gauss
# scan crossing a = 0: all of their exact arithmetic is over the integers.
RUN_PATH_ARGV = (
    ["scan", "--kind=quad:-17", "--a-range=1:3", "--b-range=-3:3", "--n-max", "50"],
    ["scan", "--kind=cyc:8", "--a-range=-6:-1", "--b-range=-3:3", "--n-max", "50"],
    ["scan", "--kind=quad:-2", "--a-range=1:4", "--b-range=-4:4", "--n-max", "50"],
    ["scan", "--kind=gauss", "--a-range=-3:1", "--b-range=-2:6", "--n-max", "50"],
    ["certify", "--candidate", "cyc:8,18,-8", "--n", "2501"],
    ["certify", "--candidate", "cyc:12,42,-5", "--n", "3001"],
    ["certify", "--candidate", "cyc:8,-12,9", "--n", "3502"],
    ["hurwitz", "--max", "55"],
    ["tau", "--max", "3012"],
    ["poly", "200"],
    ["certify", "--candidate", "quad:3,1000,-3", "--n", "3"],
    ["scan", "--kind", "gauss", "--a-range=-1:1", "--b-range=-3:3", "--n-max", "200"],
)


def test_cli_import_loads_every_layer_and_no_code_generation():
    # bench/tracer.py reads every layer from sys.modules right after this import.
    script = (
        "import json, sys; before = set(sys.modules); import darcais.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert {f"darcais.{layer}" for layer in LAYERS} <= loaded
    assert not loaded & set(STARTUP_EXCLUDED)


def test_cli_import_without_site_loads_no_annotation_or_path_modules():
    # Under ``python -S`` no site hook imports these first: annotation names
    # come from collections.abc, and a g-table is read with open and os.path.
    script = "import sys; import darcais.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    loaded = set(subprocess.run([sys.executable, "-S", "-c", script],
                                env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, check=True).stdout.split())
    assert {"darcais.cli", "random"} <= loaded  # polymod.factor splits with random
    assert not loaded & {"typing", "pathlib", "fnmatch", "ntpath", "urllib.parse", "ipaddress"}


# Each size cap at the function that checks it, called past its cap: the
# call, a builder it must not reach, the quantity and cap of its error, and
# the value the error names (cap + 1 where the call sets it directly).  A
# scan's rows are refused before its first point (a = -1), so before
# ``certify_all_n``.  The a = 0 row's size, n * bits(s * x**n), grows with
# |x| and, scaled by s = n! (the identity), with n.
series, polymod, certify = (importlib.import_module(f"darcais.{name}")
                            for name in ("series", "polymod", "certify"))
SIGMA, IDENTITY = darcais.ArithmeticFunction.sigma(), darcais.ArithmeticFunction.identity()
ROW_X = 10**100
ROW_SIZE = 120000 * (120000 * 17 + 120000 * ROW_X.bit_length())
LIBRARY_CAPS = {
    "tau_list": (lambda: series.tau_list(series.MAX_TAU_N + 1),
                 (series, "_square_truncated"), "tau_list: N", series.MAX_TAU_N,
                 series.MAX_TAU_N + 1),
    "a_poly_list": (lambda: series.a_poly_list(SIGMA, series.MAX_ROWS_N + 1),
                    (series, "_scaled_columns"), "a_poly_list: n", series.MAX_ROWS_N,
                    series.MAX_ROWS_N + 1),
    "a_poly": (lambda: series.a_poly(IDENTITY, series.MAX_A_POLY_N + 1),
               (series, "_log_derivative_form"), "a_poly: n", series.MAX_A_POLY_N,
               series.MAX_A_POLY_N + 1),
    "row_at": (lambda: series.row_at(SIGMA, 3, series.MAX_ROW_N + 1),
               (series, "_log_derivative_form"), "row_at: n", series.MAX_ROW_N,
               series.MAX_ROW_N + 1),
    "row_at-size-x": (lambda: series.row_at(IDENTITY, ROW_X, 120000),
                      (series, "factorial"), "row_at: n * bits(s * x**n)", series.MAX_ROW_BITS,
                      ROW_SIZE),
    "row_at-size-n": (lambda: series.row_at(IDENTITY, 1, 120000),
                      (series, "factorial"), "row_at: n * bits(s * x**n)", series.MAX_ROW_BITS,
                      120000 * (120000 * 17 + 120000 * 1)),
    "a_poly_mod": (lambda: polymod.a_poly_mod(SIGMA, polymod.MAX_A_POLY_MOD_N + 1, 5),
                   (polymod, "_split_index"), "a_poly_mod: n", polymod.MAX_A_POLY_MOD_N,
                   polymod.MAX_A_POLY_MOD_N + 1),
    # r = N mod p past its cap with l = N // p = 1: refused before A_r mod p is built
    # (the bracket B, of degree p, never is).
    "a_poly_mod-r": (lambda: polymod.a_poly_mod(SIGMA, 800000000, 400000009),
                     (polymod, "ModPoly"), "a_poly: n", series.MAX_A_POLY_N, 399999991),
    "factor_a_poly_mod": (
        lambda: polymod.factor_a_poly_mod(SIGMA, polymod.MAX_FACTOR_DEGREE + 1, 2147483647),
        (polymod, "_split_index"), "factor_a_poly_mod: min(n, p)", polymod.MAX_FACTOR_DEGREE,
        polymod.MAX_FACTOR_DEGREE + 1),
    "factor_a_poly_mod-r": (lambda: polymod.factor_a_poly_mod(SIGMA, 40000000, 30000001),
                            (polymod, "ModPoly"), "a_poly: n", series.MAX_A_POLY_N, 9999999),
    "scan_grid-rows": (
        lambda: certify.scan_grid(SIGMA, "gauss", (-1, 1), (0, 0), series.MAX_ROWS_N + 1,
                                  certify.CertifyConfig(exact_eval_bound=10**9)),
        (certify, "certify_all_n"), "scan_grid: min(n_max, exact_eval_bound)",
        series.MAX_ROWS_N, series.MAX_ROWS_N + 1),
    "scan_grid-row": (
        lambda: certify.scan_grid(SIGMA, "gauss", (-1, 0), (0, 0), series.MAX_ROW_N + 1),
        (certify, "certify_all_n"), "row_at: n", series.MAX_ROW_N, series.MAX_ROW_N + 1),
    "scan_grid-row-size": (
        lambda: certify.scan_grid(IDENTITY, "gauss", (-1, 0), (ROW_X, ROW_X), 120000),
        (certify, "certify_all_n"), "row_at: n * bits(s * x**n)", series.MAX_ROW_BITS,
        ROW_SIZE),
    "scan_grid-walk": (
        lambda: certify.scan_grid(SIGMA, "gauss", (-1, certify.MAX_SCAN_WALK - 1), (0, 0), 1),
        (certify, "certify_all_n"), "scan_grid: points x n_max", certify.MAX_SCAN_WALK,
        certify.MAX_SCAN_WALK + 1),
}


def refusal(call) -> str:
    """The message of the DomainError ``call`` raises, within 0.1 s and 50 MB traced."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError) as info:
            call()
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 50 * 2**20
    return str(info.value)


def forbidden(*args, **kwargs):
    raise AssertionError("built past its cap")


@pytest.mark.parametrize("case", list(LIBRARY_CAPS))
def test_each_cap_refuses_at_its_function_before_building(monkeypatch, case):
    call, (module, builder), quantity, cap, got = LIBRARY_CAPS[case]
    monkeypatch.setattr(module, builder, forbidden)
    assert refusal(call) == f"{quantity} is at most {cap} (memory cap), got {got}"


def test_scan_checks_the_real_axis_row_only_where_it_builds_one(monkeypatch):
    # Under sigma b builds its row to n = 120000 exactly when |b| <= _han_open(120000).
    # Just inside, the row's size is refused before the first point; just past,
    # the absolute bound settles every n, and the row is neither checked nor built.
    b = certify._han_open(120000)
    monkeypatch.setattr(certify, "certify_all_n", forbidden)
    with pytest.raises(DomainError) as info:
        certify.scan_grid(SIGMA, "gauss", (-1, 0), (b, b), 120000)
    assert str(info.value) == (f"row_at: n * bits(s * x**n) is at most {series.MAX_ROW_BITS} "
                               f"(memory cap), got {120000 * 120000 * b.bit_length()}")
    monkeypatch.undo()
    monkeypatch.setattr(series, "row_form", forbidden)
    points = certify.scan_grid(SIGMA, "gauss", (-1, 0), (b + 1, b + 1), 120000).points
    assert [(pt.a, pt.status, pt.methods) for pt in points] == [
        (-1, "all_n", ("translated_shift",)), (0, "up_to_nmax", ("han_bound",))]


def test_factor_refuses_past_its_degree_cap(monkeypatch):
    # A polynomial of degree 5 * 10**7 + 1 is itself past 50 MB; the cap is lowered.
    monkeypatch.setattr(polymod, "MAX_FACTOR_DEGREE", 3)
    monkeypatch.setattr(polymod, "_squarefree_parts", forbidden)
    f = polymod.ModPoly(5, (1, 2, 3, 4, 1))
    assert refusal(lambda: polymod.factor(f)) == "factor: degree is at most 3 (memory cap), got 4"


def test_only_poly_rational_loads_fractions():
    # One fresh interpreter runs every argv in turn, and reports after each
    # run which of the modules it loaded.
    script = (
        "import json, os, sys\n"
        "from darcais import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = cli.main([*argv, '--out', os.devnull])\n"
        "    print(json.dumps([code, sorted(m for m in sys.modules if m in sys.argv[2:])]))\n"
    )
    argvs = [*RUN_PATH_ARGV, ["poly", "5", "--rational"]]
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argvs), *RATIONAL_ONLY],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == len(argvs)
    for argv, (code, loaded) in zip(RUN_PATH_ARGV, reports):
        assert code == 0 and loaded == [], argv
    assert reports[-1] == [0, sorted(RATIONAL_ONLY)]
