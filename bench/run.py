"""Benchmark runner for the darcais CLI (stdlib only).

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the library is taken from ``src/``.
Each workload (see ``workloads.py``) is a seeded list of CLI invocations.
One pass runs every invocation once, each in a fresh ``python3 -m darcais``
process, one at a time: the library keeps process-wide caches that a CLI
user pays for cold on every call, so repeating calls inside one process
would measure cache hits no user gets.  Passes repeat until ``--seconds``
have elapsed; timings are medians over passes.

``--trace 0`` reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb).  ``--trace 1`` alternates untraced passes with passes that
run each invocation through ``tracer.py`` and reports per-layer metrics.
Outputs are checked after the timed loop (``checks.py``).  Every line but
the last is a JSON record of the run (argv, seed, environment, samples,
fail_ratio, problems); the last line is the result object.  With
``--workload all`` a table of every workload follows the records.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from tracer import CERTIFY_METHODS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES_PER_PASS = 2
VERSION_ARGV = ["--version"]

# The speed of a shared host drifts by up to 1.6x within a minute.  Each run
# times a fixed pure-Python kernel before every process it starts and scales
# its timings by (CALIBRATION_NOMINAL_S / median kernel time) **
# CALIBRATION_ELASTICITY, so they read as seconds on the host at nominal
# speed.  The CLI's time moved with the 0.6th power of the kernel's time
# (log-log slope over 20-second windows of interleaved samples, r = 0.7 to
# 0.84): a full ratio over-corrects.  The record line keeps the raw timings
# and the kernel times.
CALIBRATION_NOMINAL_S = 0.06
CALIBRATION_ELASTICITY = 0.6

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Result:
    argv: list
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float
    stats: dict | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DARCAIS_CONFIG")}
    env["PYTHONPATH"] = str(SRC)
    return env


# Forks the command from a small interpreter and reports its exit code, wall
# time, CPU time and peak RSS.  Linux carries the RSS of the process that
# forks into the child's ru_maxrss across exec, so forking from the runner
# itself would report the runner's size instead of the CLI's.
_LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(int(sys.argv[1]), repr((os.waitstatus_to_exitcode(status), wall,
                                  ru.ru_utime + ru.ru_stime, ru.ru_maxrss)).encode())
"""


def spawn(argv: list, env: dict, traced: bool = False) -> Result:
    """Run one invocation in a fresh process and measure that process."""
    entry = [str(BENCH_DIR / "tracer.py")] if traced else ["-m", "darcais"]
    report_r, report_w = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-I", "-c", _LAUNCHER, str(report_w), sys.executable, *entry, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, pass_fds=(report_w,))
    os.close(report_w)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    with open(report_r, "rb") as fh:
        report = fh.read()
    if proc.returncode != 0 or not report:
        raise RuntimeError(f"launcher failed for {argv}: {err[0].decode(errors='replace')}")
    code, wall, cpu, rss_kb = ast.literal_eval(report.decode())
    result = Result(argv, code, out, err[0], wall, cpu, rss_kb / 1024)
    if traced and result.code == 0:
        try:
            doc = json.loads(out)
            result.code, result.out, result.stats = doc["exit"], doc["stdout"].encode(), doc["stats"]
        except (ValueError, KeyError):
            result.code = -1
    return result


def run_pass(invocations: list, env: dict, calibration: list, traced: bool = False) -> list:
    """One process per invocation, each preceded by a calibration sample."""
    results = []
    for argv in invocations:
        calibration.append(calibration_kernel())
        results.append(spawn(argv, env, traced))
    return results


def calibration_kernel() -> float:
    """Time a fixed mix of the work the CLI does: small modular
    convolutions, bigint multiply-adds and Fraction sums."""
    t0 = time.perf_counter()
    for _ in range(3):
        a = list(range(1, 150))
        for _ in range(6):
            out = [0] * (2 * len(a) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(a):
                    out[i + j] += x * y
            a = [c % 1000003 for c in out[:149]]
        big, acc = 3**2000, 0
        for k in range(1, 4000):
            acc += big * k
        q = Fraction(0)
        for k in range(1, 300):
            q += Fraction(k, k * k + 1)
    return time.perf_counter() - t0


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the tracer's statistics
# ---------------------------------------------------------------------------


def merge_stats(stats_list: list) -> dict:
    """Sum the statistics of one pass's invocations (maxima stay maxima)."""
    spans: dict = {}
    counters: dict = {}
    unattributed = 0.0
    for st in stats_list:
        for name, s in st["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += s["calls"]
            row[1] += s["total_s"]
            row[2] += s["self_s"]
        for key, value in st["counters"].items():
            if ".max_" in key:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        unattributed += st["unattributed_s"]
    return {"spans": spans, "counters": counters, "unattributed_s": unattributed}


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics of one traced pass, in BENCHMARK.json order.

    ``distinct_inputs`` and ``repeat_calls`` count within each process,
    where an in-library cache would live, and are summed over the pass.
    """
    spans, counters = merged["spans"], merged["counters"]
    m: dict = {}

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def count(key):
        return counters.get(key, 0)

    f = "polymod.factor"
    m[f"{f}.calls"] = calls(f)
    m[f"{f}.distinct_inputs"] = count(f"{f}.distinct_inputs")
    m[f"{f}.repeat_ratio"] = 1 - count(f"{f}.distinct_inputs") / calls(f) if calls(f) else 0.0
    m[f"{f}.self_s"] = self_s(f)
    m[f"{f}.total_s"] = spans.get(f, (0, 0.0, 0.0))[1]
    m[f"{f}.max_degree"] = count(f"{f}.max_degree")
    for fn in ("a_poly_mod", "pow_mod", "poly_gcd"):
        m[f"polymod.{fn}.calls"] = calls(f"polymod.{fn}")
        m[f"polymod.{fn}.self_s"] = self_s(f"polymod.{fn}")
    m["polymod.a_poly_mod.max_n"] = count("polymod.a_poly_mod.max_n")
    for op in ("mul", "divmod"):
        for stat in ("calls", "coeff_ops"):
            m[f"polymod.ModPoly.{op}.{stat}"] = count(f"polymod.ModPoly.{op}.{stat}")
    for fname, method in CERTIFY_METHODS.items():
        m[f"certify.{method}.calls"] = calls(f"certify.{fname}")
        m[f"certify.{method}.proven"] = count(f"certify.{method}.proven")
        m[f"certify.{method}.self_s"] = self_s(f"certify.{fname}")
    generic = m["certify.generic_obstruction.calls"]
    m["certify.generic_obstruction.proven_ratio"] = (
        m["certify.generic_obstruction.proven"] / generic if generic else 0.0)
    s = "series.a_poly_list"
    m[f"{s}.calls"] = calls(s)
    m[f"{s}.repeat_calls"] = count(f"{s}.repeat_calls")
    m[f"{s}.max_n"] = count(f"{s}.max_n")
    m[f"{s}.self_s"] = self_s(s)
    for fn in ("tau_list", "hurwitz_check", "h_poly", "evaluate_at_quadratic",
               "evaluate_at_cyclotomic"):
        m[f"series.{fn}.calls"] = calls(f"series.{fn}")
        m[f"series.{fn}.self_s"] = self_s(f"series.{fn}")
    for fn in ("min_poly_quadratic_shift", "min_poly_cyclotomic_shift", "parse_candidate",
               "dedekind_kummer_split"):
        m[f"numfield.{fn}.calls"] = calls(f"numfield.{fn}")
        m[f"numfield.{fn}.self_s"] = self_s(f"numfield.{fn}")
    for fn in ("primes_up_to", "legendre_symbol", "is_prime"):
        m[f"arith.{fn}.calls"] = calls(f"arith.{fn}")
    m["arith.self_s"] = sum(row[2] for name, row in spans.items() if name.startswith("arith."))
    m["polynomial.IntPoly.evaluate.calls"] = calls("polynomial.IntPoly.evaluate")
    m["polynomial.IntPoly.evaluate.self_s"] = self_s("polynomial.IntPoly.evaluate")
    m["polynomial.to_json_dict.self_s"] = self_s("polynomial.to_json_dict")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.out_bytes"] = count("cli.out_bytes")
    m["trace.unattributed_s"] = merged["unattributed_s"]
    m["trace.overhead_ratio"] = 0.0  # set from the untraced passes of the same run
    return m


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    return {"max_degree": "degree", "max_n": "n", "out_bytes": "bytes"}.get(stat, "count")


def layer_better(name: str) -> str:
    return "higher" if name.endswith((".proven", ".proven_ratio")) else "lower"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "darcais").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _check_all(name: str, seed: int, invocations: list, passes: list) -> tuple[int, int, list]:
    """Check every result in full until one of its invocation passes, later
    ones against that one's bytes.  Returns attempted, failed, problems."""
    reference = {}
    if seed == workloads.DEFAULT_SEED:
        reference = {tuple(r["argv"]): r["sha256"] for r in checks.load_reference(name)}
    first: dict = {}
    attempted = failed = 0
    problems = []
    for results in passes:
        for i, r in enumerate(results):
            attempted += 1
            if i not in first:
                found = checks.check(r.argv, r.code, r.out, r.err,
                                     reference.get(tuple(r.argv), "") if reference else None)
                if not found:
                    first[i] = checks.digest(r.out)
            elif r.code != checks.EXPECTED_EXIT or b"Traceback" in r.err:
                found = [f"exit code {r.code} or traceback"]
            elif checks.digest(r.out) != first[i]:
                found = ["stdout differs from an earlier pass"]
            else:
                found = []
            if found:
                failed += 1
                problems.append({"argv": r.argv, "problems": found})
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    invocations = workloads.generate(name, seed)
    env = child_env()
    spawn(VERSION_ARGV, env)  # compiles the bytecode caches; not measured
    load_before = os.getloadavg()
    calibration, setup, untraced, traced = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        setup += run_pass([VERSION_ARGV] * SETUP_SAMPLES_PER_PASS, env, calibration)
        untraced.append(run_pass(invocations, env, calibration))
        if trace:
            traced.append(run_pass(invocations, env, calibration, traced=True))
    load_after = os.getloadavg()

    attempted, failed, problems = _check_all(name, seed, invocations,
                                             untraced + traced)
    for r in setup:
        attempted += 1
        if r.code != 0 or not r.out.startswith(b"darcais "):
            failed += 1
            problems.append({"argv": r.argv, "problems": [f"exit code {r.code}"]})

    samples = {
        "wall_s": [sum(r.wall for r in results) for results in untraced],
        "cpu_s": [sum(r.cpu for r in results) for results in untraced],
        "setup_s": [r.wall for r in setup],
        "calibration_s": calibration,
    }
    scale = (CALIBRATION_NOMINAL_S / statistics.median(calibration)) ** CALIBRATION_ELASTICITY
    if trace:
        per_pass = [layer_metrics(merge_stats([r.stats for r in results if r.stats]))
                    for results in traced]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        samples["traced_wall_s"] = [sum(r.wall for r in results) for results in traced]
        metrics["trace.overhead_ratio"] = (statistics.median(samples["traced_wall_s"])
                                           / statistics.median(samples["wall_s"]) - 1)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(samples[k]) for k in ("wall_s", "cpu_s", "setup_s")}
        metrics["peak_rss_mb"] = max(r.rss_mb for results in untraced for r in results)
        units = END_TO_END_UNITS
    for k, unit in units.items():
        if unit == "s":
            metrics[k] *= scale
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": invocations,
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "passes": len(untraced),
        "speed_scale": scale,
        "raw_samples": {k: quartiles(v) for k, v in samples.items()},
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record, result


def print_table(results: dict) -> None:
    names = list(results)
    metrics = list(results[names[0]]["metrics"]) + ["fail_ratio"]
    rows = [["metric (unit)"] + names]
    for metric in metrics:
        if metric == "fail_ratio":
            row = ["fail_ratio (ratio)"] + [
                f"{r['failed'] / r['attempted']:.4g}" for r in results.values()]
        else:
            unit = results[names[0]]["metrics"][metric]["unit"]
            row = [f"{metric} ({unit})"] + [
                f"{r['metrics'][metric]['value']:.6g}" for r in results.values()]
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "darcais" / "cli.py").is_file():
        print(f"error: no darcais sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the certificate replay in checks
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        record, results[name] = run_workload(name, args.seed, seconds, bool(args.trace))
        print(json.dumps(record), flush=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print_table(results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
