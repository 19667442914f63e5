"""Certificates come from the strategy table and nowhere else.

In ``certify.py``, ``Certificate(...)`` is built only by ``_chain`` (its
inconclusive ``"none"`` result) and by the functions the ``_CHAIN`` runners
call, each of which builds exactly one, proven or not; and
``verify_certificate`` names no method but ``"none"``: every other method
is replayed through its table entry.
"""

import ast
from pathlib import Path

import darcais
from darcais.certify import _CHAIN

TREE = ast.parse((Path(darcais.__file__).parent / "certify.py").read_text())
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}


def chain_runners() -> dict[str, ast.Lambda]:
    """The runner lambda of each ``_CHAIN`` entry, by method name."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_CHAIN"]:
            return {
                key.value: entry.elts[1] for key, entry in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("certify.py assigns no _CHAIN table")


def certificate_builders() -> set[str]:
    """Top-level definitions of certify.py that call ``Certificate(...)``."""
    found = set()
    for node in TREE.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "Certificate":
                found.add(getattr(node, "name", "<module level>"))
    return found


def test_the_parsed_table_is_the_runtime_table():
    assert list(chain_runners()) == list(_CHAIN)


def test_runners_call_one_module_function_by_its_global_name():
    # A rebinding of the module global (as a tracer does) must reach the chain.
    for method, runner in chain_runners().items():
        call = runner.body
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), method
        assert call.func.id in FUNCTIONS, method


def test_certificates_are_built_only_by_the_chain():
    allowed = {"_chain"} | {runner.body.func.id for runner in chain_runners().values()}
    assert "_chain" in certificate_builders()
    assert certificate_builders() <= allowed, certificate_builders() - allowed


def test_each_chain_method_builds_one_certificate():
    for method, runner in chain_runners().items():
        builder = FUNCTIONS[runner.body.func.id]
        literals = [
            node
            for node in ast.walk(builder)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "Certificate"
        ]
        assert len(literals) == 1, method


def test_replay_names_no_method_but_none():
    methods = set(_CHAIN) | {
        kw.value.value
        for node in ast.walk(TREE)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "Certificate"
        for kw in node.keywords
        if kw.arg == "method" and isinstance(kw.value, ast.Constant)
    }
    body = FUNCTIONS["verify_certificate"].body[1:]  # past the docstring
    named = {
        node.value
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert named & methods == {"none"}
