"""Command-line interface.

Each ``_cmd_*`` handler takes the parsed arguments, g and the run's
``CertifyConfig`` and returns the run's body (a dict), a zero-argument
function that builds its ``--format text`` form, and its exit code; it
writes nothing.  ``main`` alone checks the flags and turns a run into
output: it builds the config, whichever subcommand runs, and the run
header that echoes it once, before g is loaded, and ``_write_run`` merges
the header into the body, or builds the text form when the run writes it,
so identical invocations produce byte-identical files.  A size past its
cap is refused by the library function that builds it; ``_cmd_poly``
checks the caps on what it prints, and ``_env_config`` the cap on the
config file it reads.  Exit codes: 0 success (or proven), 1 inconclusive
(or a notable finding), 2 usage/domain error, 3 table exhaustion.  The
one ``except`` in ``main`` maps ``TableExhaustedError`` to 3 and
``DomainError``, ``OSError``, ``OverflowError`` (a size no list can
hold) or ``MemoryError`` to 2, with an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from math import factorial

from . import __version__, numfield, polymod, series
from .arith import ArithmeticFunction
from .certify import (
    DEFAULT_CONFIG,
    MAX_NOT_RAMIFIED_PRIME_BOUND,
    CertifyConfig,
    certify as run_certify,
    certify_all_n,
    check_zmija_conditions,
    scan_grid,
)
from .errors import DomainError, TableExhaustedError, read_at_most, require_at_most
from .polynomial import IntPoly, format_poly

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

_BUILTIN_G = {"sigma": ArithmeticFunction.sigma, "identity": ArithmeticFunction.identity,
              "id": ArithmeticFunction.identity}


def _load_g(spec: str) -> ArithmeticFunction:
    if spec in _BUILTIN_G:
        return _BUILTIN_G[spec]()
    if spec.startswith("table:"):
        return ArithmeticFunction.from_file(spec[len("table:"):])
    return ArithmeticFunction.from_file(spec)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise DomainError(f"malformed prime list {text!r}") from None


def _config_from_args(args) -> CertifyConfig:
    return CertifyConfig(primes=_parse_primes(args.primes), exact_eval_bound=args.exact_eval_bound,
                         not_ramified_prime_bound=args.not_ramified_bound, seed=args.seed)


def _run_header(args, config: CertifyConfig) -> dict:
    """Full run configuration, embedded in every output document: the
    ``CertifyConfig`` and the other common flags.  A key whose flag the
    subcommand lacks shows its default (``_add_common``).  ``oracle_bound``
    is a recorded constant that no flag sets and no computation reads: it
    leaves, with the seed, when the bench's output digests are re-recorded
    (ROADMAP item 20)."""
    return {
        "tool": "darcais",
        "version": __version__,
        "seed": config.seed,
        "config": {**config.to_json_dict(), "g": args.g, "oracle_bound": 25,
                   "format": args.format},
    }


def _write_run(args, header: dict, body: dict, text: Callable[[], str]) -> None:
    """The one writer: ``{**header, **body}`` as JSON, or ``text()`` under
    ``--format text``, or ``text()`` after a ``# <header>`` line under csv;
    JSON never builds the text form."""
    if args.format == "csv":
        payload = f"# {json.dumps(header, sort_keys=True)}\n{text()}"
    elif args.format == "text":
        payload = text()
        payload = payload if payload.endswith("\n") else payload + "\n"
    else:
        payload = json.dumps({**header, **body}, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)  # looked up per call: callers may swap sys.stdout


# The common flags by config key: the default, the argparse options, and
# the subcommands that read the flag ``--key`` (dashes for underscores).
# A subcommand that does not read a key still keeps its default, so the
# run header echoes the full configuration.
_EVERY = ("poly", "tau", "certify", "scan", "minpoly", "split", "zmija", "hurwitz")
_CERTIFYING = ("certify", "scan")
_FORMATS = ("json", "csv", "text")
_COMMON_FLAGS = {
    "g": ("sigma", {"help": "arithmetic function: sigma | identity | table:FILE (default sigma)"},
          ("poly", "certify", "scan", "zmija", "hurwitz")),
    "primes": (",".join(str(p) for p in DEFAULT_CONFIG.primes),
               {"help": "comma-separated primes for the obstruction search"}, _CERTIFYING),
    "exact_eval_bound": (DEFAULT_CONFIG.exact_eval_bound, {
        "type": int, "help": "largest n for the exact-evaluation fallback"}, _CERTIFYING),
    "not_ramified_bound": (DEFAULT_CONFIG.not_ramified_prime_bound, {
        "type": int, "help": "prime search bound for the unramified criterion "
        f"(at most {MAX_NOT_RAMIFIED_PRIME_BOUND})"}, _CERTIFYING),
    "seed": (DEFAULT_CONFIG.seed,
             {"type": int, "help": "seed recorded into factorizations/certificates"}, _EVERY),
    "format": ("json", {}, _EVERY),  # choices: _format_choices
    "out": (None, {"help": "write output to FILE instead of stdout"}, _EVERY),
}


# The largest N ``poly`` prints, where the run's peak reaches 64 GiB,
# rounded down: A_N took 0.65-0.77 * N**2 * log2(N) bytes and A_N / N!
# 1.42-1.49 (N = 200..3200; Python 3.11, x86-64, the larger of the json and
# text peaks).  Every other size is capped by the function that builds it.
MAX_POLY_N = 70000
MAX_RATIONAL_POLY_N = 50000


def _check_flag_defaults(config: dict) -> None:
    """A config value must be one its flag accepts on the command line."""
    unknown = set(config) - set(_COMMON_FLAGS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        want = int if isinstance(_COMMON_FLAGS[key][0], int) else str
        if type(value) is not want or (want is str and "\0" in value):
            raise DomainError(f"config key {key!r} does not take {value!r}")


def _format_choices(command: str) -> tuple[str, ...]:
    """csv joins the formats on scan, the one command with a CSV form."""
    return _FORMATS if command == "scan" else ("json", "text")


def _check_config(args) -> None:
    """Each flag holds one value, file names hold no NUL, the bounds are
    counts and the format is one the command writes, whether set by flag or
    by config file.  argparse reads ``--flag=--`` as an empty list, and no
    flag takes several values."""
    for key, value in vars(args).items():
        if isinstance(value, list):
            raise DomainError(f"--{key.replace('_', '-')} expects one value, not '--'")
    if "\0" in args.g + (args.out or ""):
        raise DomainError("a file name cannot hold a NUL byte")
    for key in ("exact_eval_bound", "not_ramified_bound"):
        if (value := getattr(args, key)) < 0:
            flag = "--" + key.replace("_", "-")
            raise DomainError(f"{flag} (config key {key!r}) must be >= 0, got {value}")
    if args.format not in (choices := _format_choices(args.command)):
        raise DomainError(f"{args.command} writes --format (config key 'format') "
                          f"{' or '.join(choices)}, not {args.format!r}")


def _add_common(parser: argparse.ArgumentParser, command: str, defaults: dict) -> None:
    """Add the common flags ``command`` reads; the others only set defaults."""
    for key, (_, options, readers) in _COMMON_FLAGS.items():
        if command not in readers:
            parser.set_defaults(**{key: defaults[key]})
            continue
        if key == "format":
            options = {**options, "choices": _format_choices(command)}
        parser.add_argument("--" + key.replace("_", "-"), default=defaults[key], **options)


def build_parser(flag_defaults: dict | None = None) -> argparse.ArgumentParser:
    defaults = {key: default for key, (default, _, _) in _COMMON_FLAGS.items()}
    if flag_defaults is not None:
        _check_flag_defaults(flag_defaults)
        defaults.update(flag_defaults)
    parser = argparse.ArgumentParser(
        prog="darcais",
        description="Exact computations with D'Arcais polynomials and non-root certificates.",
    )
    parser.add_argument("--version", action="version", version=f"darcais {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("poly", help="print the n-th D'Arcais polynomial for g")
    p_an.add_argument("n", type=int)
    p_an.add_argument("--mod", type=int, default=None, help="reduce modulo this prime")
    p_an.add_argument("--factor", action="store_true", help="factor the mod-p polynomial")
    p_an.add_argument("--rational", action="store_true",
                      help="print the rational polynomial (divide by n!)")

    p_tau = sub.add_parser("tau", help="Ramanujan tau values / desk-scale zero scan")
    p_tau.add_argument("n", type=int, nargs="?", default=None)
    p_tau.add_argument("--max", type=int, default=None, help="scan tau(1..N) for zeros")

    p_cert = sub.add_parser("certify", help="produce a non-root certificate")
    p_cert.add_argument("--candidate", required=True,
                        help=numfield.CANDIDATE_GRAMMAR)
    group = p_cert.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None)
    group.add_argument("--all-n", action="store_true")

    p_scan = sub.add_parser("scan", help="certify a rectangle of shifted candidates")
    p_scan.add_argument("--kind", default="gauss", help=numfield.FAMILY_GRAMMAR)
    p_scan.add_argument("--a-range", required=True, help="LO:HI inclusive")
    p_scan.add_argument("--b-range", required=True, help="LO:HI inclusive")
    p_scan.add_argument("--n-max", type=int, default=30)

    p_min = sub.add_parser("minpoly", help="minimal polynomial and index of a candidate")
    p_min.add_argument("--candidate", required=True)

    p_split = sub.add_parser("split", help="Dedekind-Kummer splitting report")
    p_split.add_argument("--candidate", required=True)
    p_split.add_argument("--p", type=int, required=True)

    sub.add_parser("zmija", help="audit the cyclotomic splitting conditions for g")

    p_hur = sub.add_parser("hurwitz", help="Routh-Hurwitz check of P_n/X for n = 1..max")
    p_hur.add_argument("--max", type=int, default=30)

    for command, subparser in sub.choices.items():
        _add_common(subparser, command, defaults)
    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise DomainError(f"malformed range {text!r}; expected LO:HI") from None


def _cmd_poly(args, g, config) -> tuple[dict, Callable[[], str], int]:
    if args.n < 0:
        raise DomainError(f"n must be >= 0, got {args.n}")
    if args.factor and args.mod is None:
        raise DomainError("--factor requires --mod")
    if args.rational and args.mod is not None:
        raise DomainError("--rational cannot be combined with --mod")
    if args.mod is not None:
        body = {"n": args.n, "mod": args.mod}
        if args.factor:
            fact = polymod.factor_a_poly_mod(g, args.n, args.mod)

            def text() -> str:
                factors = " * ".join(
                    f"({format_poly(p.coeffs)})" + (f"^{m}" if m > 1 else "")
                    for p, m in fact.factors
                ) or "1"
                unit = "" if fact.unit == 1 else f"{fact.unit} * "
                return f"{unit}{factors} (mod {args.mod})"

            return {**body, "factorization": fact.to_json_dict(config.seed)}, text, EXIT_OK
        reduced = polymod.a_poly_mod(g, args.n, args.mod)
        return ({**body, "poly": {"degree": reduced.degree, "coeffs": list(reduced.coeffs)}},
                lambda: str(reduced), EXIT_OK)
    require_at_most(f"poly N{' --rational' * args.rational}: N", args.n,
                    MAX_RATIONAL_POLY_N if args.rational else MAX_POLY_N)
    poly = series.a_poly(g, args.n)
    if args.rational:  # P_n = A_n / n!, the one place Q coefficients appear
        from fractions import Fraction  # imported here: no other run loads it

        coeffs = [Fraction(c, factorial(args.n)) for c in poly.coeffs]
        doc = {"degree": poly.degree, "coeffs": [str(c) for c in coeffs]}
        return {"n": args.n, "poly": doc}, lambda: format_poly(coeffs), EXIT_OK
    return {"n": args.n, "poly": poly.to_json_dict()}, lambda: str(poly), EXIT_OK


def _cmd_tau(args, g, config) -> tuple[dict, Callable[[], str], int]:
    if args.max is not None:
        values = series.tau_list(args.max)
        zeros = [i + 1 for i, v in enumerate(values) if v == 0]
        text = "no zero found" if not zeros else f"zero at n = {zeros}"
        return ({"scanned_up_to": args.max, "zeros": zeros},
                lambda: f"tau(1..{args.max}): {text}", EXIT_OK if not zeros else EXIT_INCONCLUSIVE)
    if args.n is None:
        raise DomainError("tau needs an index or --max N")
    value = str(series.tau(args.n))
    return {"n": args.n, "tau": value}, lambda: value, EXIT_OK


def _cmd_certify(args, g, config) -> tuple[dict, Callable[[], str], int]:
    candidate = numfield.parse_candidate(args.candidate)
    if args.all_n:
        cert = certify_all_n(g, candidate, config)
    else:
        cert = run_certify(g, candidate, args.n, config)
    return ({"certificate": cert.to_json_dict()},
            lambda: (f"{cert.verdict} for {candidate.describe()} ({cert.scope.describe()})"
                     f" via {cert.method}"),
            EXIT_OK if cert.proven else EXIT_INCONCLUSIVE)


def _cmd_scan(args, g, config) -> tuple[dict, Callable[[], str], int]:
    grid = scan_grid(g, args.kind, _parse_range(args.a_range), _parse_range(args.b_range),
                     args.n_max, config)
    return {"grid": grid.to_json_dict()}, grid.to_csv, EXIT_OK


def _cmd_minpoly(args, g, config) -> tuple[dict, Callable[[], str], int]:
    candidate = numfield.parse_candidate(args.candidate)
    index = str(candidate.index)
    body = {
        "candidate": candidate.to_json_dict(),
        "degree": candidate.degree,
        "min_poly": candidate.min_poly.to_json_dict(),
        "index": index,
    }
    return body, lambda: f"{candidate.describe()}: {candidate.min_poly}, index {index}", EXIT_OK


def _cmd_split(args, g, config) -> tuple[dict, Callable[[], str], int]:
    candidate = numfield.parse_candidate(args.candidate)
    report = numfield.dedekind_kummer_split(candidate, args.p)

    def text() -> str:
        if not report.applicable:
            return f"p = {args.p} divides the index {candidate.index}; not applicable"
        shape = ", ".join(f"(e={e}, f={f})" for _, e, f in report.entries)
        return f"p = {args.p} in Q({candidate.describe()}): {shape}" + (
            " [ramified]" if report.ramified else ""
        )

    return {"report": report.to_json_dict(config.seed)}, text, EXIT_OK


def _cmd_zmija(args, g, config) -> tuple[dict, Callable[[], str], int]:
    report = check_zmija_conditions(g)
    text = (
        f"mod 5: {'ok' if report.cond_mod5 else 'FAIL'}; "
        f"mod 7: {'ok' if report.cond_mod7 else 'FAIL'}; "
        f"mod 11: {'ok' if report.cond_mod11 else 'FAIL'}"
    )
    return ({"zmija": report.to_json_dict()}, lambda: text,
            EXIT_OK if report.passed else EXIT_INCONCLUSIVE)


def _cmd_hurwitz(args, g, config) -> tuple[dict, Callable[[], str], int]:
    if args.max < 1:
        raise DomainError(f"--max must be >= 1, got {args.max}")
    polys = series.a_poly_list(g, args.max)
    results = []
    for n in range(1, args.max + 1):
        h = IntPoly(polys[n].coeffs[1:])  # A_n/X = n! * P_n/X, the same roots
        # A root at the origin is not strictly in the left half-plane.
        results.append({"n": n, "hurwitz": bool(h.coeff(0)) and series.hurwitz_check(h)})
    all_true = all(r["hurwitz"] for r in results)
    text = (
        f"P_n/X Hurwitz for all n <= {args.max}"
        if all_true
        else "NOTABLE: non-Hurwitz instance found; see JSON output"
    )
    return ({"max": args.max, "results": results, "all_hurwitz": all_true}, lambda: text,
            EXIT_OK if all_true else EXIT_INCONCLUSIVE)


_COMMANDS = {
    "poly": _cmd_poly,
    "tau": _cmd_tau,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
    "minpoly": _cmd_minpoly,
    "split": _cmd_split,
    "zmija": _cmd_zmija,
    "hurwitz": _cmd_hurwitz,
}


# JSON file with default values for the common flags (g, primes, seed, ...).
CONFIG_ENV_VAR = "DARCAIS_CONFIG"
# The largest config file read, in bytes: where parsing it would peak at
# 64 GiB, from its 4.6-46.0 bytes per file byte (flat and nested JSON arrays
# and objects, up to 900 deep; 2-7 MB files, Python 3.11, x86-64), rounded
# down.
MAX_CONFIG_BYTES = 14 * 10**8


def _env_config() -> dict | None:
    """The JSON object of the file ``DARCAIS_CONFIG`` names, or None; at most
    ``MAX_CONFIG_BYTES`` + 1 bytes are read, and a file past the cap is
    refused before it is parsed."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return None
    try:
        config = json.loads(read_at_most(f"config file {path!r}: bytes", path,
                                         MAX_CONFIG_BYTES).decode())
    except DomainError:
        raise  # the size refusal, with its own message
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting: RecursionError
        raise DomainError(f"cannot read config file {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise DomainError(f"config file {path!r} must hold a JSON object, got {config!r}")
    return config


def main(argv=None) -> int:
    # Python >= 3.11 caps int <-> str conversion at 4300 digits; a run reads
    # and prints its integers in full, and hands the cap back when it ends.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser(_env_config()).parse_args(argv)
        _check_config(args)
        config = _config_from_args(args)
        header = _run_header(args, config)
        g = _load_g(args.g) if args.command in _COMMON_FLAGS["g"][2] else None
        body, text, code = _COMMANDS[args.command](args, g, config)
        _write_run(args, header, body, text)
        return code
    except (DomainError, TableExhaustedError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RANGE if isinstance(exc, TableExhaustedError) else EXIT_USAGE
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
