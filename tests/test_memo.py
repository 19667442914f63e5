"""The library's process-wide memos: bounded, and invisible in the output."""

import ast
import json
import re
from pathlib import Path

import pytest

from darcais import (
    ArithmeticFunction,
    certify,
    cli,
    certify_all_n,
    certify_theorem_translated,
    parse_candidate,
    polymod,
    scan_grid,
    verify_certificate,
)
from darcais.arith import FrozenValue

from conftest import PACKAGE, clear_library_caches, library_memos, random_table

README = Path(__file__).resolve().parents[1] / "README.md"
MEMO_DECORATORS = {"lru_cache", "cache"}
# The one unbounded memo, whose keys come from a small domain: the prime
# moduli a run uses.
UNBOUNDED_ALLOWED = {"_check_modulus"}

GS = (ArithmeticFunction.sigma(), ArithmeticFunction.identity(), random_table(1, 40))
# The scan-grid rectangles of the benchmark, with n_max inside the table's reach.
GRIDS = (
    ("quad:-2", (1, 4), (-4, 4)),
    ("quad:-17", (1, 3), (-3, 3)),
    ("cyc:8", (1, 6), (-3, 3)),
    ("gauss", (-1, 3), (-4, 4)),
)
SCAN_N_MAX = 30
# Between them these reach each memoized method and the inconclusive chain;
# the large n take the structural route n = l*p + r.
CERTIFY_CASES = (
    ("quad:-2,1,1", 1),
    ("quad:-2,1,1", 7),
    ("quad:-2,3,-2", 29),
    ("quad:-17,2,-1", 40),
    ("gauss:21,3", 5),
    ("gauss:2,1", 9),
    ("cyc:8,3,1", 12),
    ("cyc:8,6,1", 2501),
    ("cyc:12,-6,5", 3001),
    ("quad:3,1,-3", 3),  # -3 + sqrt(3) is a root of A_3 for the identity
)


def _memo_name(node) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def memoized_functions() -> list[tuple[str, str, ast.expr]]:
    """(module, function, decorator) for every memo decorator in the package."""
    found = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    (module, node.name, dec)
                    for dec in node.decorator_list
                    if _memo_name(dec) in MEMO_DECORATORS
                )
    return found


def memoized_defs() -> list[tuple[str, ast.FunctionDef]]:
    """(module, definition) for every memoized function in the package."""
    return [
        (module, node)
        for module, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_memo_name(dec) in MEMO_DECORATORS for dec in node.decorator_list)
    ]


def annotation_names(annotation: ast.expr) -> set[str]:
    """Every name an annotation mentions, quoted annotations included."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return {
        _memo_name(node)
        for node in ast.walk(annotation)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


MUTABLE_BUILTINS = {"dict", "list", "set", "Dict", "List", "Set"}


def mutable_result_types() -> set[str]:
    """The mutable builtins, and the package's classes with a field of one
    of them (a frozen value class still hands out its dict)."""
    found = set(MUTABLE_BUILTINS)
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(stmt, ast.AnnAssign)
                and annotation_names(stmt.annotation) & MUTABLE_BUILTINS
                for stmt in node.body
            ):
                found.add(node.name)
    return found


def readme_memo_names() -> set[str]:
    """The memos README's memo paragraph names, each as `module.function(...)`."""
    (block,) = [b for b in README.read_text().split("\n\n") if "memoized per process" in b]
    paragraph = block.split("\n- ")[0]  # the next library entry starts a bullet
    return {f"darcais.{name}" for name in re.findall(r"`(\w+\.\w+)\(", paragraph)}


def has_finite_maxsize(dec: ast.expr) -> bool:
    if not isinstance(dec, ast.Call) or _memo_name(dec) != "lru_cache":
        return False
    args = {kw.arg: kw.value for kw in dec.keywords}
    if dec.args:
        args.setdefault("maxsize", dec.args[0])
    size = args.get("maxsize")
    return isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0


class TestMemoGuard:
    def test_every_memo_is_bounded_or_allowed(self):
        for module, name, dec in memoized_functions():
            assert has_finite_maxsize(dec) or name in UNBOUNDED_ALLOWED, f"{module}.{name}"

    def test_allowlist_names_existing_unbounded_memos(self):
        unbounded = {name for _, name, dec in memoized_functions() if not has_finite_maxsize(dec)}
        assert unbounded == UNBOUNDED_ALLOWED

    def test_memos_are_applied_only_as_decorators(self):
        references = sum(
            1
            for _, tree in _trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and _memo_name(node) in MEMO_DECORATORS
        )
        assert references == len(memoized_functions())

    def test_no_memo_holds_degree_n_results(self):
        (tree,) = (tree for module, tree in _trees() if module == "polymod")
        (node,) = (
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "a_poly_mod"
        )
        assert node.decorator_list == []
        assert not hasattr(polymod.a_poly_mod, "cache_clear")

    def test_memos_return_immutable_types(self):
        # Every caller of a memo shares its result: one that mutated a cached
        # dict would change the output of every later hit.
        mutable = mutable_result_types()
        assert {"Certificate", "ZmijaReport"} <= mutable
        defs = memoized_defs()
        assert len(defs) == len(memoized_functions())
        for module, node in defs:
            assert node.returns is not None, f"{module}.{node.name} has no return annotation"
            bad = annotation_names(node.returns) & mutable
            assert not bad, f"{module}.{node.name} returns {sorted(bad)}"

    def test_scan_reads_the_value_classes_fields(self):
        # The scan sees fields only as class-body annotations; each value
        # class with a mutable field must show up in it.
        mutable = mutable_result_types()
        classes = FrozenValue.__subclasses__()
        assert {"Certificate", "ZmijaReport", "Scope", "CyclotomicShift"} <= {
            cls.__name__ for cls in classes
        }
        for cls in classes:
            holds_mutable = any(
                annotation_names(ast.Constant(text)) & MUTABLE_BUILTINS
                for text in cls.__annotations__.values()
            )
            assert (cls.__name__ in mutable) == holds_mutable, cls.__name__
        assert "Certificate" in mutable

    def test_clear_helper_reaches_every_memo(self):
        declared = {f"darcais.{module}.{name}" for module, name, _ in memoized_functions()}
        assert declared == set(library_memos())

    def test_readme_names_exactly_the_memos(self):
        # A change that adds or drops a memo updates README's list with it.
        assert readme_memo_names() == set(library_memos())

    def test_the_scans_hit_every_memo(self):
        # README: a memo stays only where the scans pay for it.
        clear_library_caches()
        g = ArithmeticFunction.sigma()
        for grid in GRIDS:
            scan_grid(g, *grid, SCAN_N_MAX)
        hits = {name: memo.cache_info().hits for name, memo in library_memos().items()}
        assert all(hits.values()), hits


def _scan_bytes(g, kind, a_range, b_range) -> str:
    return json.dumps(scan_grid(g, kind, a_range, b_range, SCAN_N_MAX).to_json_dict())


class TestOutputIgnoresCacheState:
    def test_scan_grid(self):
        cold = {}
        for g in GS:
            for grid in GRIDS:
                clear_library_caches()
                cold[g.name, grid[0]] = _scan_bytes(g, *grid)
        # Warm: every memo now holds what all the scans above left in it.
        for g in GS:
            for grid in GRIDS:
                assert _scan_bytes(g, *grid) == cold[g.name, grid[0]], (g.name, grid[0])

    def test_certify(self):
        cold = {}
        for g in GS:
            for spec, n in CERTIFY_CASES:
                c = parse_candidate(spec)
                clear_library_caches()
                cold[g.name, spec, n] = certify(g, c, n).canonical_json()
                clear_library_caches()
                cold[g.name, spec, None] = certify_all_n(g, c).canonical_json()
        methods = set()
        for g in GS:
            for spec, n in CERTIFY_CASES:
                c = parse_candidate(spec)
                for key, cert in ((n, certify(g, c, n)), (None, certify_all_n(g, c))):
                    assert cert.canonical_json() == cold[g.name, spec, key], (g.name, spec, key)
                    assert verify_certificate(g, cert)
                    methods.add(cert.method)
        assert {"han_bound", "translated_shift", "not_ramified", "generic_obstruction",
                "none"} <= methods

    def test_certificates_share_no_cached_dict(self):
        # translated_shift is memoized per (g, c); each call must still build
        # its own details and evidence.
        g, c = ArithmeticFunction.sigma(), parse_candidate("cyc:8,1,1")
        first = certify_theorem_translated(g, c)
        want = first.canonical_json()
        first.details["item"] = 0
        first.evidence["g3_mod_3"] = "changed"
        second = certify_theorem_translated(g, c)
        assert second.canonical_json() == want
        assert second.evidence == {"g3_mod_3": 1} and verify_certificate(g, second)


# The seed-0 scan-grid workload of the benchmark, and one call of each other
# caller of factor_a_poly_mod, with the number of times each runs it.
PIECE_RUNS = (
    (["scan", "--kind=quad:-17", "--a-range=1:3", "--b-range=-3:3", "--n-max", "50"], 11),
    (["scan", "--kind=cyc:8", "--a-range=-6:-1", "--b-range=-3:3", "--n-max", "50"], 17),
    (["scan", "--kind=quad:-2", "--a-range=1:4", "--b-range=-4:4", "--n-max", "50"], 12),
    (["scan", "--kind=gauss", "--a-range=-3:1", "--b-range=-2:6", "--n-max", "50"], 0),
    (["certify", "--candidate", "cyc:8,18,-8", "--n", "2501"], 3),
    (["zmija"], 16),
    (["poly", "40", "--mod", "7", "--factor"], 1),
)


class TestScanHoldsItsPieces:
    """``factor_a_poly_mod`` has no memo: a scan holds the irreducibles of
    A_n mod p per (p, class of n) for all its points, and the other callers
    never ask for the same pieces twice."""

    @pytest.mark.parametrize("argv, runs", PIECE_RUNS,
                             ids=[" ".join(argv[:2]) for argv, _ in PIECE_RUNS])
    def test_each_piece_is_assembled_once_per_run(self, monkeypatch, capsys, argv, runs):
        clear_library_caches()
        asked, assemble = [], polymod.factor_a_poly_mod
        monkeypatch.setattr(polymod, "factor_a_poly_mod",
                            lambda g, n, p: asked.append((n, p)) or assemble(g, n, p))
        assert cli.main([*argv, "--seed", "61964"]) in (0, 1)
        capsys.readouterr()
        assert len(asked) == len(set(asked)) == runs, asked
