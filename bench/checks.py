"""Output checks for the darcais benchmark, run outside the timed region.

Every invocation must exit with its expected code and print no traceback.
Then, by command:

* ``certify`` - the certificate is ``proven_nonroot`` and replays byte for
  byte through ``verify_certificate``;
* ``scan``    - the grid covers the requested rectangle row-major, with
  known statuses and uncertified indices inside 1..n_max;
* ``tau``     - the zero list of the scan is empty;
* ``hurwitz`` - every n reports Hurwitz and so does the summary;
* ``poly``    - A_n is monic of degree n with zero constant term, and its
  linear coefficient is (n-1)! * sigma(n), computed here independently.

For the default seed the SHA-256 of each standard output must also equal
the reference recorded from the library before any optimisation
(``reference.json``), so not a single output byte may change.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

EXPECTED_EXIT = 0
SCAN_STATUSES = {"all_n", "up_to_nmax", "partial", "unknown"}


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_reference(workload: str) -> list[dict]:
    """Recorded (argv, sha256) pairs of the default seed for ``workload``."""
    return json.loads(REFERENCE_PATH.read_text())["workloads"][workload]


def _flag(argv: list[str], name: str) -> str:
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok[len(name) + 1:]
    raise KeyError(name)


def _sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _replays(doc: dict) -> bool:
    from darcais import numfield
    from darcais.arith import ArithmeticFunction
    from darcais.certify import Certificate, CertifyConfig, Scope, verify_certificate

    cert_doc = doc["certificate"]
    scope = cert_doc["scope"]
    cert = Certificate(
        g_name=cert_doc["g"],
        candidate=numfield.candidate_from_json(cert_doc["candidate"]),
        scope=Scope(kind=scope["kind"], n=scope.get("n"), modulus=scope.get("modulus"),
                    residues=tuple(scope.get("residues", ()))),
        verdict=cert_doc["verdict"],
        method=cert_doc["method"],
        details=cert_doc["details"],
        evidence=cert_doc["evidence"],
        witness_prime=cert_doc["witness_prime"],
    )
    cfg = doc["config"]
    config = CertifyConfig(primes=tuple(cfg["primes"]), exact_eval_bound=cfg["exact_eval_bound"],
                           not_ramified_prime_bound=cfg["not_ramified_prime_bound"],
                           seed=cfg["seed"])
    g = {"sigma": ArithmeticFunction.sigma, "identity": ArithmeticFunction.identity}[cfg["g"]]()
    return verify_certificate(g, cert, config)


def _check_document(argv: list[str], doc: dict) -> list[str]:
    command = argv[0]
    problems = []
    if doc.get("tool") != "darcais" or doc.get("seed") != int(_flag(argv, "--seed")):
        problems.append("run header does not echo the invocation")
    if command == "certify":
        if doc["certificate"]["verdict"] != "proven_nonroot":
            problems.append(f"verdict {doc['certificate']['verdict']}")
        elif not _replays(doc):
            problems.append("certificate does not replay")
    elif command == "scan":
        grid = doc["grid"]
        a_lo, a_hi = map(int, _flag(argv, "--a-range").split(":"))
        b_lo, b_hi = map(int, _flag(argv, "--b-range").split(":"))
        n_max = int(_flag(argv, "--n-max"))
        cells = [(a, b) for a in range(a_lo, a_hi + 1) for b in range(b_lo, b_hi + 1)]
        if [(pt["a"], pt["b"]) for pt in grid["points"]] != cells:
            problems.append("grid points do not cover the rectangle row-major")
        for pt in grid["points"]:
            if pt["status"] not in SCAN_STATUSES or \
                    any(not 1 <= n <= n_max for n in pt["uncertified"]):
                problems.append(f"bad grid point {pt}")
                break
    elif command == "tau":
        if doc["zeros"] != [] or doc["scanned_up_to"] != int(_flag(argv, "--max")):
            problems.append(f"tau scan reports zeros {doc['zeros']}")
    elif command == "hurwitz":
        m = int(_flag(argv, "--max"))
        if not doc["all_hurwitz"] or [r["n"] for r in doc["results"]] != list(range(1, m + 1)) \
                or not all(r["hurwitz"] for r in doc["results"]):
            problems.append("hurwitz does not report all-true")
    elif command == "poly":
        n = int(argv[1])
        coeffs = doc["poly"]["coeffs"]
        if doc["poly"]["degree"] != n or len(coeffs) != n + 1 or coeffs[-1] != "1" \
                or coeffs[0] != "0" or coeffs[1] != str(factorial(n - 1) * _sigma(n)):
            problems.append("A_n is not monic of degree n with the expected low terms")
    return problems


def check(argv: list[str], code: int, out: bytes, err: bytes,
          reference: str | None = None) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    problems = []
    if code != EXPECTED_EXIT:
        problems.append(f"exit code {code}")
    if b"Traceback" in err:
        problems.append("traceback on stderr")
    if reference is not None and digest(out) != reference:
        problems.append("stdout differs from the recorded reference")
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    try:
        problems += _check_document(argv, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed document: {exc!r}")
    return problems


def record_reference() -> None:
    """Write ``reference.json`` from one run of each default-seed invocation."""
    import run
    import workloads

    env = run.child_env()
    doc = {"seed": workloads.DEFAULT_SEED, "source_sha256": run._source_digest(), "workloads": {}}
    for name in workloads.WORKLOADS:
        entries = doc["workloads"][name] = []
        for argv in workloads.generate(name, workloads.DEFAULT_SEED):
            r = run.spawn(argv, env)
            if r.code != EXPECTED_EXIT or b"Traceback" in r.err:
                raise SystemExit(f"cannot record {argv}: exit code {r.code}")
            entries.append({"argv": argv, "sha256": digest(r.out)})
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    record_reference()
