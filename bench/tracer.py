"""Run one darcais CLI invocation in-process with every library layer traced.

Usage (with the darcais sources on PYTHONPATH):

    python3 bench/tracer.py ARG...

The invocation runs in this fresh process, so the library's process-wide
caches start cold exactly as they do for a user of the CLI.  Every public
function of ``arith``, ``polynomial``, ``series``, ``polymod``,
``numfield``, ``certify`` and ``cli`` is wrapped at every module that binds
it, together with ``IntPoly.evaluate`` and ``to_json_dict`` of the
polynomial classes.  Each wrapped call records a span (name, start, end,
parent) in memory.  ``ModPoly`` multiplication and division are too
frequent and too small for spans; they are counted instead, with their
computed number of coefficient multiply-adds.

Standard output receives one JSON object: the CLI's exit code, the text it
wrote to standard output, and the per-layer statistics computed from the
spans at the end (self time is a span's duration minus the part its child
spans cover).
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402

LAYERS = ("arith", "polynomial", "series", "polymod", "numfield", "certify", "cli")

# Strategy-chain entry points of the certify layer, by certificate method.
CERTIFY_METHODS = {
    "certify_han_bound": "han_bound",
    "certify_theorem_translated": "translated_shift",
    "certify_theorem_gaussian_sigma": "gaussian_sigma",
    "certify_theorem_not_ramified": "not_ramified",
    "certify_generic": "generic_obstruction",
    "certify_exact": "exact_evaluation",
    "certify_all_n": "certify_all_n",
}


class Recorder:
    """Spans in flat arrays (24 bytes each) plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def summary(self, t_start: float, t_end: float) -> dict:
        """Per-name calls, total and self time; wall time no span covers."""
        n = len(self.name_id)
        cover = [0.0] * n
        top = 0.0
        for i in range(n):
            d = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                top += d
            else:
                cover[p] += d
        spans: dict[str, list] = {}
        for i in range(n):
            d = self.end[i] - self.start[i]
            row = spans.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - cover[i]
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in spans.items()},
            "counters": self.counters,
            "span_count": n,
            "wall_s": t_end - t_start,
            "unattributed_s": (t_end - t_start) - top,
        }


def _wrap(rec: Recorder, name: str, fn, before=None, after=None):
    nid = rec.intern(name)
    open_, close = rec.open, rec.close

    def wrapper(*args, **kwargs):
        i = open_(nid)
        try:
            if before is not None:
                before(*args, **kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        finally:
            close(i)

    return functools.wraps(fn)(wrapper)


def _hooks(rec: Recorder) -> dict:
    """Counters taken at the boundary of particular functions."""
    factor_inputs: set = set()
    a_poly_seen: dict = {}

    def factor(f, seed=0):
        factor_inputs.add((f.p, f.coeffs, seed))
        rec.counters["polymod.factor.distinct_inputs"] = len(factor_inputs)
        rec.maximum("polymod.factor.max_degree", f.degree)

    def a_poly_mod(g, n, p):
        rec.maximum("polymod.a_poly_mod.max_n", n)

    def a_poly_list(g, n):
        largest = a_poly_seen.get(g, -1)
        if n <= largest:
            rec.add("series.a_poly_list.repeat_calls")
        a_poly_seen[g] = max(largest, n)
        rec.maximum("series.a_poly_list.max_n", n)

    hooks = {
        "polymod.factor": (factor, None),
        "polymod.a_poly_mod": (a_poly_mod, None),
        "series.a_poly_list": (a_poly_list, None),
    }
    for fname, method in CERTIFY_METHODS.items():
        key = f"certify.{method}.proven"

        def proven(cert, key=key):
            if cert.proven:
                rec.add(key)

        hooks[f"certify.{fname}"] = (None, proven)
    return hooks


def _public_functions(mod) -> dict:
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)) and \
                getattr(obj, "__module__", None) == mod.__name__:
            out[name] = obj
    return out


def darcais_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "darcais" or name.startswith("darcais.")) and mod is not None]


def unwrapped_bindings(originals) -> list[str]:
    """Module globals, or entries of module-level containers, still bound
    to an original (unwrapped) function."""
    ids = {id(fn) for fn in originals}
    missed = []
    for mod in darcais_modules():
        for name, obj in vars(mod).items():
            values = obj.values() if isinstance(obj, dict) else \
                obj if isinstance(obj, (list, tuple, set, frozenset)) else (obj,)
            if any(id(v) in ids for v in values):
                missed.append(f"{mod.__name__}.{name}")
    return missed


def install(rec: Recorder) -> list:
    """Wrap every layer in place; returns the original functions."""
    modules = {layer: sys.modules[f"darcais.{layer}"] for layer in LAYERS}
    hooks = _hooks(rec)
    wrapped = {}  # id(original) -> wrapper
    originals = []
    for layer, mod in modules.items():
        for name, fn in _public_functions(mod).items():
            span = f"{layer}.{name}"
            before, after = hooks.get(span, (None, None))
            wrapped[id(fn)] = _wrap(rec, span, fn, before, after)
            originals.append(fn)
    # A name imported with ``from .x import f`` is a separate binding of the
    # same object: rebind every module global that holds an original.
    for mod in darcais_modules():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])

    polynomial = modules["polynomial"]
    polynomial.IntPoly.evaluate = _wrap(rec, "polynomial.IntPoly.evaluate",
                                        polynomial.IntPoly.evaluate)
    base = polynomial.IntPoly.__mro__[1]
    base.to_json_dict = _wrap(rec, "polynomial.to_json_dict", base.to_json_dict)
    _count_modpoly(rec, modules["polymod"].ModPoly)

    missed = unwrapped_bindings(originals)
    if missed:
        raise RuntimeError(f"unwrapped bindings left: {missed}")
    return originals


def _count_modpoly(rec: Recorder, ModPoly) -> None:
    mul0, divmod0 = ModPoly.__mul__, ModPoly.__divmod__
    counters = rec.counters
    for key in ("polymod.ModPoly.mul.calls", "polymod.ModPoly.mul.coeff_ops",
                "polymod.ModPoly.divmod.calls", "polymod.ModPoly.divmod.coeff_ops"):
        counters[key] = 0

    def mul(self, other):
        counters["polymod.ModPoly.mul.calls"] += 1
        width = len(other.coeffs) if isinstance(other, ModPoly) else 1
        counters["polymod.ModPoly.mul.coeff_ops"] += len(self.coeffs) * width
        return mul0(self, other)

    def divmod_(self, other):
        counters["polymod.ModPoly.divmod.calls"] += 1
        if isinstance(other, ModPoly):
            qdeg = len(self.coeffs) - len(other.coeffs)
            if qdeg >= 0:
                counters["polymod.ModPoly.divmod.coeff_ops"] += (qdeg + 1) * len(other.coeffs)
        return divmod0(self, other)

    ModPoly.__mul__ = ModPoly.__rmul__ = mul
    ModPoly.__divmod__ = divmod_


def main(argv: list[str]) -> int:
    rec = Recorder()
    i = rec.open(rec.intern("darcais.import"))
    import darcais.cli  # noqa: F401
    rec.close(i)
    install(rec)
    cli = sys.modules["darcais.cli"]
    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout = stdout
    text = captured.getvalue()
    stats = rec.summary(_T0, time.perf_counter())
    stats["counters"]["cli.out_bytes"] = len(text.encode())
    json.dump({"exit": code, "stdout": text, "stats": stats}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
