import argparse
import ast
import contextlib
import io
import json
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darcais import (ArithmeticFunction, CertifyConfig, DomainError,
                     __version__, certify, cli, polymod, series, verify_certificate)
from darcais.certify import MAX_SCAN_WALK
from darcais.cli import main
from darcais.numfield import (MAX_CYCLOTOMIC_DEGREE, MAX_CYCLOTOMIC_LEVEL, candidate_family,
                              parse_candidate)

from conftest import clear_library_caches

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "poly", "5", "--format", "text")
        assert code == 0
        assert out.strip() == "X^5 + 30*X^4 + 215*X^3 + 450*X^2 + 144*X"

    def test_zero_index(self, capsys):
        code, out, _ = run(capsys, "poly", "0", "--format", "text")
        assert code == 0 and out.strip() == "1"

    def test_json_embeds_config(self, capsys):
        code, out, _ = run(capsys, "poly", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["tool"] == "darcais" and "version" in doc
        assert doc["seed"] == 0
        assert doc["config"]["primes"] == [2, 3, 5, 7, 11, 13]
        assert doc["config"]["format"] == "json"
        assert doc["poly"]["coeffs"] == ["0", "8", "9", "1"]

    def test_mod_factor(self, capsys):
        code, out, _ = run(capsys, "poly", "12", "--mod", "7", "--factor")
        doc = json.loads(out)
        assert code == 0
        # degrees weighted by multiplicity recompose the degree 12
        total = sum(
            (len(f["coeffs"]) - 1) * f["mult"] for f in doc["factorization"]["factors"]
        )
        assert total == 12

    def test_mod_factor_matches_full_factorization(self, capsys):
        from darcais import ArithmeticFunction, a_poly_mod, factor

        code, out, _ = run(capsys, "poly", "64", "--mod", "5", "--factor", "--seed", "3")
        want = factor(a_poly_mod(ArithmeticFunction.sigma(), 64, 5))
        assert code == 0
        assert json.loads(out)["factorization"] == want.to_json_dict(3)

    def test_factor_requires_mod(self, capsys):
        code, _, err = run(capsys, "poly", "5", "--factor")
        assert code == 2 and "requires --mod" in err

    def test_rational_conflicts_with_mod(self, capsys):
        code, _, err = run(capsys, "poly", "5", "--rational", "--mod", "7")
        assert code == 2

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "poly", "3", "--rational", "--format", "text")
        assert code == 0 and out.strip() == "1/6*X^3 + 3/2*X^2 + 4/3*X"

    def test_rational_json_is_a_over_n_factorial(self, capsys):
        # P_3 = A_3 / 3! = (X^3 + 9X^2 + 8X) / 6, in lowest terms.
        code, out, _ = run(capsys, "poly", "3", "--rational")
        assert code == 0
        assert json.loads(out)["poly"] == {"degree": 3, "coeffs": ["0", "4/3", "3/2", "1/6"]}
        code, out, _ = run(capsys, "poly", "0", "--rational")
        assert code == 0 and json.loads(out)["poly"] == {"degree": 0, "coeffs": ["1"]}

    @pytest.mark.parametrize(
        "argv, config",
        [(("poly", "5", "--oracle"), None), (("poly", "5", "--oracle-bound", "9"), None),
         (("poly", "5"), {"oracle_bound": 9})],
        ids=["oracle", "oracle-bound", "config-key"],
    )
    def test_no_flag_or_key_picks_the_partition_oracle(self, argv, config):
        # The sum over partitions is a test oracle (tests/oracles.py), not a CLI route.
        code, err = _run_isolated(argv, config)
        assert code == 2 and sum("error:" in line for line in err.splitlines()) == 1


class TestTau:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "tau", "2", "--format", "text")
        assert code == 0 and out.strip() == "-24"

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "tau", "--max", "50", "--format", "text")
        assert code == 0 and "no zero found" in out

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "tau")
        assert code == 2


class TestCertify:
    def test_proven_exit_zero(self, capsys):
        code, out, _ = run(capsys, "certify", "--candidate", "gauss:2,1", "--n", "9")
        doc = json.loads(out)
        assert code == 0
        assert doc["certificate"]["verdict"] == "proven_nonroot"

    def test_all_n(self, capsys):
        code, out, _ = run(capsys, "certify", "--candidate", "quad:5,1,0", "--all-n")
        doc = json.loads(out)
        assert code == 0
        assert doc["certificate"]["scope"]["kind"] == "all"

    def test_degenerate_candidate_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--candidate", "quad:-1,0,5", "--n", "2")
        assert code == 2 and "rational integer" in err

    def test_malformed_candidate_is_usage_error(self, capsys):
        for spec, message in (
            ("", "malformed candidate"),
            ("gauss:1,2,3", "malformed candidate"),
            ("quad:x,1,2", "malformed candidate"),
            ("poly:1,2,3", "malformed candidate"),
            ("quad:4,1,0", "D must be squarefree"),
            ("cyc:2,1,0", "m >= 3"),
        ):
            code, out, err = run(capsys, "certify", f"--candidate={spec}", "--n", "1")
            assert code == 2 and out == "", spec
            assert err.startswith("error: ") and message in err, spec
            assert "Traceback" not in err, spec

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=st.text(max_size=16))
    @example(spec="--")
    def test_any_unparsable_candidate_is_usage_error(self, capsys, spec):
        try:
            parse_candidate(spec)
        except DomainError:
            pass
        else:
            return
        code, out, err = run(capsys, "certify", f"--candidate={spec}", "--n", "1")
        assert code == 2 and out == "", spec
        assert err.startswith("error: ") and "Traceback" not in err, spec

    def test_inconclusive_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--candidate", "quad:409,1,-11", "--n", "5"
        )
        assert code == 1
        assert json.loads(out)["certificate"]["verdict"] == "inconclusive"

    def test_runs_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "certify", "--candidate", "gauss:6,7", "--n", "5")
        _, out2, _ = run(capsys, "certify", "--candidate", "gauss:6,7", "--n", "5")
        assert out1 == out2


class TestScan:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-range=-1:1", "--b-range=0:1", "--n-max", "4",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "a,b,status,methods"
        assert len(lines) == 2 + 6

    def test_json_grid(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "3"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["grid"]["points"][0]["status"] == "all_n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, "scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[1] == "a,b,status,methods"

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "scan", "--a-range", "oops", "--b-range=0:0")
        assert code == 2

    def test_malformed_kind_is_usage_error(self, capsys):
        for kind in ("quad:x", "cyc:", "cyc:1.5"):
            code, _, err = run(
                capsys, "scan", "--kind", kind, "--a-range=1:1", "--b-range=0:0"
            )
            assert code == 2, kind
            assert "unknown grid kind" in err and "Traceback" not in err, kind
        # The kind's parameter is checked even when every row has a = 0.
        for kind in ("cyc:2", "quad:-4"):
            code, out, err = run(
                capsys, "scan", "--kind", kind, "--a-range=0:0", "--b-range=0:0"
            )
            assert code == 2 and out == "", kind
            assert err.startswith("error: ") and "Traceback" not in err, kind

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.text(max_size=12))
    def test_any_unparsable_kind_is_usage_error(self, capsys, kind):
        try:
            candidate_family(kind)
        except DomainError:
            pass
        else:
            return
        code, out, err = run(capsys, "scan", f"--kind={kind}", "--a-range=0:0", "--b-range=0:0")
        assert code == 2 and out == "", kind
        assert err.startswith("error: ") and "Traceback" not in err, kind

    def test_empty_range_is_usage_error(self, capsys):
        for ranges in (("--a-range=3:1", "--b-range=0:0"), ("--a-range=0:0", "--b-range=3:1")):
            code, out, err = run(capsys, "scan", *ranges, "--format", "csv")
            assert code == 2 and out == "", ranges
            assert err.startswith("error: ") and "LO <= HI" in err, ranges

    @pytest.mark.parametrize("g, n_maxes", [("sigma", (7000, 20000)), ("identity", (7000,))])
    def test_real_axis_scans_run_past_6000(self, capsys, g, n_maxes):
        # One integer row per b at a = 0; each point's zeros up to 6000 are
        # the zeros of the scan to 6000.
        def uncertified(n_max):
            code, out, _ = run(capsys, "scan", "--g", g, "--a-range=0:0", "--b-range=-3:3",
                               "--n-max", str(n_max))
            assert code == 0, n_max
            return [pt["uncertified"] for pt in json.loads(out)["grid"]["points"]]

        base = uncertified(6000)
        for n_max in n_maxes:
            assert [[n for n in zeros if n <= 6000] for zeros in uncertified(n_max)] == base

    @pytest.mark.parametrize("n_max", [200000, 300000])
    def test_real_axis_point_the_bound_settles_runs_past_the_row_caps(self, capsys, n_max):
        # At b = 10**7 the absolute bound settles every n <= 1.03 * 10**6, so
        # the scan neither builds nor checks the row, past its caps too.
        code, out, _ = run(capsys, "scan", "--a-range=0:0", "--b-range=10000000:10000000",
                           "--n-max", str(n_max))
        assert code == 0
        (point,) = json.loads(out)["grid"]["points"]
        assert (point["status"], point["methods"]) == ("up_to_nmax", ["han_bound"])


class TestOtherCommands:
    def test_minpoly(self, capsys):
        code, out, _ = run(capsys, "minpoly", "--candidate", "cyc:12,2,5")
        doc = json.loads(out)
        assert code == 0
        assert doc["index"] == "64" and doc["degree"] == 4

    def test_split(self, capsys):
        code, out, _ = run(capsys, "split", "--candidate", "cyc:4,3,0", "--p", "7")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["e"] == [1] and doc["report"]["f"] == [2]

    def test_split_inapplicable(self, capsys):
        code, out, _ = run(capsys, "split", "--candidate", "quad:5,3,0", "--p", "3")
        assert code == 0
        assert json.loads(out)["report"]["applicable"] is False

    def test_split_json_reads_no_index(self, capsys, monkeypatch):
        # p = 5 divides a = 10, so Dedekind-Kummer does not apply; the index,
        # 10**(3000*2999/2), is read only by the text form, which JSON never builds.
        from darcais.numfield import CyclotomicShift

        def unread(c):
            raise AssertionError("the index was read")

        monkeypatch.setattr(CyclotomicShift, "index", property(unread))
        code, out, err = run(capsys, "split", "--candidate", "cyc:3001,10,3", "--p", "5")
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["applicable"] is False

    def test_zmija_pass(self, capsys):
        code, out, _ = run(capsys, "zmija")
        assert code == 0
        assert json.loads(out)["zmija"]["passed"] is True

    def test_zmija_fail_exit_one(self, capsys, tmp_path):
        table = tmp_path / "adv.txt"
        table.write_text("\n".join(["1", "5"] + ["1"] * 8) + "\n")
        code, out, _ = run(capsys, "zmija", "--g", str(table))
        assert code == 1
        assert json.loads(out)["zmija"]["passed"] is False

    def test_hurwitz(self, capsys):
        code, out, _ = run(capsys, "hurwitz", "--max", "10", "--format", "text")
        assert code == 0 and "Hurwitz for all n <= 10" in out

    def test_hurwitz_needs_a_positive_max(self, capsys):
        for value in ("0", "-3"):
            code, out, err = run(capsys, "hurwitz", "--max", value, "--format", "text")
            assert code == 2 and out == "", value
            assert err.startswith("error: ") and "--max" in err, value

    def test_hurwitz_root_at_origin_is_not_hurwitz(self, capsys, tmp_path):
        # g(2) = 0 makes H_2 = X/2, whose root at 0 is not in the open left half-plane
        table = tmp_path / "g.txt"
        table.write_text("1\n0\n1\n1\n")
        code, out, err = run(capsys, "hurwitz", "--max", "4", "--g", f"table:{table}")
        doc = json.loads(out)
        assert code == 1 and err == ""
        assert doc["results"][1] == {"n": 2, "hurwitz": False}
        assert [r["n"] for r in doc["results"]] == [1, 2, 3, 4]
        assert doc["all_hurwitz"] is False

    def test_hurwitz_past_a_short_table_is_exit_three(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("1\n3\n")
        code, out, err = run(capsys, "hurwitz", "--max", "5", "--g", f"table:{table}")
        assert code == 3 and out == "" and "tabulated up to 2" in err

    def test_hurwitz_builds_the_polynomials_once(self, capsys):
        clear_library_caches()
        with mock.patch.object(series, "a_poly_list", wraps=series.a_poly_list) as spy:
            code, _, _ = run(capsys, "hurwitz", "--max", "12")
        assert code == 0
        assert spy.call_args_list[0] == mock.call(ArithmeticFunction.sigma(), 12)

    def test_scan_builds_one_list_for_every_point(self, capsys):
        # With 2 the only prime, exact evaluation settles some n at each of
        # the 78 points; all of them divide rows of one list A_0..A_30.
        clear_library_caches()
        with mock.patch.object(series, "a_poly_list", wraps=series.a_poly_list) as spy:
            code, out, _ = run(capsys, "scan", "--kind=quad:-2", "--a-range=1:6",
                               "--b-range=-6:6", "--n-max", "30", "--primes", "2")
        points = json.loads(out)["grid"]["points"]
        assert code == 0 and len(points) == 78
        assert all("exact_evaluation" in pt["methods"] for pt in points)
        assert spy.call_args_list == [mock.call(ArithmeticFunction.sigma(), 30)]


def seeds(doc) -> list:
    """Every value under a key ``seed`` in a JSON document, in document order."""
    if isinstance(doc, dict):
        return [v for k, v in doc.items() if k == "seed"] + [
            s for k, v in doc.items() if k != "seed" for s in seeds(v)]
    return [s for v in doc for s in seeds(v)] if isinstance(doc, list) else []


def unseeded(doc):
    """``doc`` with every value under a key ``seed`` set to None."""
    if isinstance(doc, dict):
        return {k: None if k == "seed" else unseeded(v) for k, v in doc.items()}
    return [unseeded(v) for v in doc] if isinstance(doc, list) else doc


class TestSeedIsALabel:
    """The seed is printed, never read: ``factor`` takes none, since monic
    irreducible factors are unique and sorted.  This replaces a polymod test
    that factored under several seeds and compared the factors."""

    # A factorization, a splitting report, and a generic_obstruction
    # certificate at p = 5, whose evidence holds two factorizations.
    ARGV = (("poly", "64", "--mod", "5", "--factor"),
            ("split", "--candidate", "cyc:12,5,3", "--p", "7"),
            ("certify", "--candidate", "cyc:8,18,-8", "--n", "2501"))

    def test_documents_differ_only_in_the_seed(self, capsys):
        for argv in self.ARGV:
            (code0, out0, _), (code7, out7, _) = (run(capsys, *argv, "--seed", s)
                                                  for s in ("0", "7"))
            doc0, doc7 = json.loads(out0), json.loads(out7)
            assert code0 == code7 == 0, argv
            assert set(seeds(doc0)) == {0} and set(seeds(doc7)) == {7}, argv
            assert unseeded(doc0) == unseeded(doc7), argv
        g = ArithmeticFunction.sigma()
        cert = certify(g, parse_candidate("cyc:8,18,-8"), 2501, CertifyConfig(seed=7))
        assert cert.method == "generic_obstruction" and cert.witness_prime == 5
        assert json.loads(out7)["certificate"] == json.loads(cert.canonical_json())
        assert len(seeds(doc7)) == 5 and verify_certificate(g, cert)


class TestGLoading:
    def test_table_file(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("1\n3\n4\n")
        code, out, _ = run(capsys, "poly", "2", "--g", str(table), "--format", "text")
        assert code == 0 and out.strip() == "X^2 + 3*X"

    def test_table_prefix(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("1\n3\n")
        code, out, _ = run(
            capsys, "poly", "2", "--g", f"table:{table}", "--format", "text"
        )
        assert code == 0 and out.strip() == "X^2 + 3*X"

    def test_exhaustion_is_exit_three(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("1\n3\n")
        code, _, err = run(capsys, "poly", "9", "--g", str(table))
        assert code == 3

    def test_exhaustion_past_a_full_store_is_exit_three(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("1\n3\n")
        clear_library_caches()
        code, _, _ = run(capsys, "hurwitz", "--max", "2", "--g", f"table:{table}")
        assert code == 0
        code, out, err = run(capsys, "poly", "5", "--g", f"table:{table}")
        assert code == 3 and out == "" and "tabulated up to 2" in err

    def test_bad_head_is_exit_two(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text("7\n")
        code, _, _ = run(capsys, "poly", "2", "--g", str(table))
        assert code == 2

    def test_missing_file_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "poly", "2", "--g", "nope.txt")
        assert code == 2

    def test_identity_alias(self, capsys):
        code, out, _ = run(capsys, "poly", "2", "--g", "id", "--format", "text")
        assert code == 0 and out.strip() == "X^2 + 2*X"


class TestEnvConfig:
    def test_env_config_sets_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "text", "seed": 7}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "poly", "2")
        assert code == 0 and out.strip() == "X^2 + 3*X"

    def test_flags_override_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "text"}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "poly", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["format"] == "json"

    def test_bad_env_config_is_usage_error(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, _, err = run(capsys, "poly", "2")
        assert code == 2 and "unknown config keys" in err

    @pytest.mark.parametrize("argv", [("tau", "5"), ("poly", "2"), ("hurwitz", "--max", "3"),
                                      ("minpoly", "--candidate", "quad:-1,1,0")])
    def test_csv_config_is_refused_off_scan(self, capsys, tmp_path, monkeypatch, argv):
        # As on the command line, where --format csv exits 2 off scan.
        with pytest.raises(SystemExit) as flag:
            main([*argv, "--format", "csv"])
        assert flag.value.code == 2 and "invalid choice: 'csv'" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "csv"}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} writes --format (config key 'format') json or text, " \
                      "not 'csv'\n"

    def test_csv_config_keeps_scan_writing_csv(self, capsys, tmp_path, monkeypatch):
        argv = ("scan", "--a-range=0:0", "--b-range=0:1", "--n-max", "3")
        code, want, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and want.splitlines()[1] == "a,b,status,methods"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "csv"}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        assert run(capsys, *argv) == (0, want, "")


class TestInputPathsExitTwo:
    """Malformed input exits 2 with an error line, never a traceback."""

    @pytest.mark.parametrize(
        "config",
        ["5", "true", "null", "[1]", '{"primes": 5}', '{"g": 5}', '{"out": 5}',
         '{"format": "xml"}', '{"seed": 1.5}', '{"seed": true}', '{"g": "a\\u0000b"}',
         pytest.param("[" * 100000, id="nested-100000")],
    )
    def test_bad_env_config(self, capsys, tmp_path, monkeypatch, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, err = run(capsys, "poly", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    # A file one byte past its cap is refused before it is parsed; at the cap
    # the same malformed file is parsed, and its parse error is the one named.
    @pytest.mark.parametrize("over", [0, 1], ids=["cap", "cap+1"])
    def test_env_config_past_its_bytes_is_refused_unparsed(self, capsys, tmp_path,
                                                           monkeypatch, over):
        row = f"| `DARCAIS_CONFIG` | {cli.MAX_CONFIG_BYTES} | `config file 'FILE': bytes` |"
        assert row in README.read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": ')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", 9 - over)
        code, out, err = run(capsys, "tau", "2")
        assert (code, out) == (2, "")
        if over:
            assert err == (f"error: config file {str(cfg)!r}: bytes is at most 8 "
                           "(memory cap), got 9\n")
        else:
            assert err.startswith(f"error: cannot read config file {str(cfg)!r}: Expecting value")

    @pytest.mark.parametrize("over", [0, 1], ids=["cap", "cap+1"])
    def test_g_table_past_its_bytes_is_refused_unparsed(self, capsys, tmp_path, monkeypatch,
                                                        over):
        from darcais import arith

        row = f"| `--g FILE` | {arith.MAX_TABLE_BYTES} | `g-table FILE: bytes` |"
        assert row in README.read_text()
        table = tmp_path / "g.txt"
        table.write_text("1\nx\n")
        monkeypatch.setattr(arith, "MAX_TABLE_BYTES", 4 - over)
        code, out, err = run(capsys, "poly", "2", "--g", str(table))
        assert (code, out) == (2, "")
        assert err == (f"error: g-table {table}: bytes is at most 3 (memory cap), got 4\n"
                       if over else f"error: {table}:2: not an integer: 'x'\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_g_table_is_read_to_its_cap(self, capsys, monkeypatch):
        from darcais import arith

        monkeypatch.setattr(arith, "MAX_TABLE_BYTES", 10)
        assert run(capsys, "poly", "2", "--g", "/dev/zero") == (
            2, "", "error: g-table /dev/zero: bytes is at most 10 (memory cap), got 11\n")

    def test_undecodable_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, _, err = run(capsys, "poly", "2")
        assert code == 2 and err.startswith("error: ")

    # Sizes no list can hold: each of these fails before it allocates anything.
    @pytest.mark.parametrize("size", [2**63, 10**20], ids=["2**63", "10**20"])
    @pytest.mark.parametrize(
        "argv",
        [("tau", "{}"), ("tau", "--max", "{}"), ("poly", "{}"), ("poly", "{}", "--rational"),
         ("poly", "{}", "--mod", "5")],
        ids=["tau", "tau-max", "poly", "poly-rational", "poly-mod"],
    )
    def test_size_past_any_list_is_usage_error(self, capsys, argv, size):
        code, out, err = run(capsys, *(arg.format(size) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    # Sizes past their cap: refused before anything is built.  Only cap + 1
    # and 10**20 run here; a size just under a cap fills memory.
    # By test id: the CLI mode, the cap, the quantity the refusal names at
    # cap + 1 and at 10**20, and the command line, "{}" for the size.
    # ``certify --n N`` builds A_N over Z once exact evaluation reaches N, so
    # the primes and the unramified search are cut until nothing proves N first.
    SIZE_ARGV = {
        "tau-n": ("tau N", series.MAX_TAU_N, "tau_list: N", ("tau", "{}")),
        "tau-max": ("tau --max", series.MAX_TAU_N, "tau_list: N", ("tau", "--max", "{}")),
        "hurwitz-max": ("hurwitz --max", series.MAX_ROWS_N, "a_poly_list: n",
                        ("hurwitz", "--max", "{}")),
        "poly-n": ("poly N", cli.MAX_POLY_N, "poly N: N", ("poly", "{}")),
        "poly-rational": ("poly N --rational", cli.MAX_RATIONAL_POLY_N, "poly N --rational: N",
                          ("poly", "{}", "--rational")),
        "poly-mod": ("poly N --mod p", polymod.MAX_A_POLY_MOD_N, "a_poly_mod: n",
                     ("poly", "{}", "--mod", "5")),
        "poly-mod-factor": ("poly N --mod p --factor", polymod.MAX_FACTOR_DEGREE,
                            "factor_a_poly_mod: min(n, p)",
                            ("poly", "{}", "--mod", "2147483647", "--factor")),
        "scan-rows": ("scan (a = 0)", series.MAX_ROW_N, "row_at: n",
                      ("scan", "--a-range=0:0", "--b-range=0:0", "--n-max", "{}")),
        "scan-n-max": ("scan", MAX_SCAN_WALK, "scan_grid: points x n_max",
                       ("scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "{}")),
        "certify-n": ("certify --n N", series.MAX_A_POLY_N, "a_poly: n",
                      ("certify", "--candidate", "quad:-2,1,3", "--primes", "2",
                       "--not-ramified-bound", "0", "--n", "{}", "--exact-eval-bound", "{}")),
    }

    # Sizes derived from two flags, or from g and b: A_r over Z under --mod p
    # (r = N mod p, with l = N // p = 0 and 1), the rows a scan holds for
    # exact evaluation, the points of a scan, and the a = 0 row, whose size
    # n * bits(s * x**n) grows with |b| and, scaled by s = n! (the identity),
    # with n.  Each case gives the value its error names; "{}" is that value.
    ROW_B = 10**100
    DERIVED_ARGV = {
        "poly-mod-r": ("poly N --mod p", series.MAX_A_POLY_N, "a_poly: n",
                       ("poly", "{}", "--mod", "2147483647"), series.MAX_A_POLY_N + 1),
        "poly-mod-r-past-p": ("poly N --mod p", series.MAX_A_POLY_N, "a_poly: n",
                              ("poly", "800000000", "--mod", "400000009"), 399999991),
        "scan-exact-eval-rows": ("scan (a != 0)", series.MAX_ROWS_N,
                                 "scan_grid: min(n_max, exact_eval_bound)",
                                 ("scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "{}",
                                  "--exact-eval-bound", "{}"), series.MAX_ROWS_N + 1),
        "scan-points": ("scan", MAX_SCAN_WALK, "scan_grid: points x n_max",
                        ("scan", "--a-range=1:{}", "--b-range=0:0", "--n-max", "1"),
                        MAX_SCAN_WALK + 1),
        "scan-row-size-b": ("scan (a = 0, the row's size)", series.MAX_ROW_BITS,
                            "row_at: n * bits(s * x**n)",
                            ("scan", "--g", "identity", "--a-range=0:0",
                             f"--b-range={ROW_B}:{ROW_B}", "--n-max", "120000"),
                            120000 * (120000 * 17 + 120000 * ROW_B.bit_length())),
        "scan-row-size-n": ("scan (a = 0, the row's size)", series.MAX_ROW_BITS,
                            "row_at: n * bits(s * x**n)",
                            ("scan", "--g", "identity", "--a-range=0:0", "--b-range=0:0",
                             "--n-max", "120000"), 120000 * (120000 * 17 + 120000 * 1)),
    }

    def run_within_memory(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and peak < 50 * 2**20
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("over", [1, 10**20], ids=["cap+1", "10**20"])
    @pytest.mark.parametrize("case", list(SIZE_ARGV))
    def test_size_over_its_cap_is_usage_error(self, capsys, case, over):
        _, cap, quantity, argv = self.SIZE_ARGV[case]
        size = str(cap + over if over == 1 else over)
        err = self.run_within_memory(capsys, [a.format(size) for a in argv])
        assert err.startswith(f"error: {quantity} is at most {cap} (memory cap), got ")

    @pytest.mark.parametrize("case", list(DERIVED_ARGV))
    def test_derived_size_over_its_cap_is_usage_error(self, capsys, case):
        _, cap, quantity, argv, got = self.DERIVED_ARGV[case]
        err = self.run_within_memory(capsys, [a.format(got) for a in argv])
        assert err == f"error: {quantity} is at most {cap} (memory cap), got {got}\n"

    # The level m of a cyc: candidate: phi(m) is refused where the minimal
    # polynomial or the index would be built.  At m = 1000000007 both are
    # refused before anything is built: the cyclotomic polynomial alone has
    # 10**9 coefficients.  certify reaches the minimal polynomial through
    # generic_obstruction, and split by factoring it mod p, as p = 3 does not
    # divide a.
    CYC_ARGV = {
        "minpoly": ("minpoly", "--candidate", "cyc:1000000007,1,1"),
        "split": ("split", "--candidate", "cyc:1000000007,2,1", "--p", "3"),
        "certify": ("certify", "--candidate", "cyc:1000000007,6,1", "--n", "5"),
        "scan": ("scan", "--kind", "cyc:1000000007", "--a-range=6:6", "--b-range=1:1",
                 "--n-max", "5"),
    }

    @pytest.mark.parametrize("case", list(CYC_ARGV))
    def test_cyclotomic_degree_over_its_cap_is_usage_error(self, capsys, case):
        err = self.run_within_memory(capsys, self.CYC_ARGV[case])
        assert err == (f"error: cyc:m: phi(m) is at most {MAX_CYCLOTOMIC_DEGREE} "
                       "(memory cap), got 1000000006\n")

    def test_cyclotomic_cap_spares_the_all_n_criteria(self, capsys):
        # translated_shift reads m alone, so it still proves at any level.
        code, out, _ = run(capsys, "certify", "--candidate", "cyc:1000000007,1,1", "--n", "5")
        assert code == 0 and json.loads(out)["certificate"]["method"] == "translated_shift"
        assert f"| `phi(m)` of `cyc:m,a,b` | {MAX_CYCLOTOMIC_DEGREE} |" in README.read_text()

    @pytest.mark.parametrize("argv", [
        ("certify", "--candidate", "cyc:M,1,1", "--all-n"),
        ("minpoly", "--candidate", "cyc:M,1,1"),
        ("scan", "--kind", "cyc:M", "--a-range=1:1", "--b-range=1:1", "--n-max", "5"),
    ], ids=["certify", "minpoly", "scan"])
    def test_cyclotomic_level_over_its_cap_is_refused_unfactored(self, capsys, monkeypatch,
                                                                 argv):
        # m = 10**15 + 37 is prime: trial division up to sqrt(m) would take seconds.
        from darcais import arith

        def factor(n):
            raise AssertionError(f"trial division of {n}")

        monkeypatch.setattr(arith, "_factorization", factor)
        m = 1000000000000037
        code, out, err = run(capsys, *(a.replace("M", str(m)) for a in argv))
        assert (code, out) == (2, "")
        assert err == (f"error: cyc:m: m is at most {MAX_CYCLOTOMIC_LEVEL} "
                       f"(trial-division cap), got {m}\n")
        assert f"| `m` of `cyc:m,a,b` | {MAX_CYCLOTOMIC_LEVEL} |" in README.read_text()

    def test_cyclotomic_scan_factors_its_level_once(self, capsys, monkeypatch):
        # Every point reads the prime factors of m, from one trial division.
        from darcais import arith

        calls, factorization = [], arith._factorization
        monkeypatch.setattr(arith, "_factorization",
                            lambda n: calls.append(n) or factorization(n))
        code, out, _ = run(capsys, "scan", "--kind", "cyc:999999999989", "--a-range=1:5",
                           "--b-range=1:10", "--n-max", "5")
        points = json.loads(out)["grid"]["points"]
        assert code == 0 and len(points) == 50
        assert {pt["status"] for pt in points} == {"all_n"}
        assert calls == [999999999989]

    def test_memory_error_is_usage_error(self, capsys, monkeypatch):
        def exhausted(n):
            raise MemoryError

        monkeypatch.setattr(series, "tau_list", exhausted)
        assert run(capsys, "tau", "--max", "10") == (2, "", "error: out of memory\n")

    def test_sizes_under_the_new_caps_still_run(self, capsys):
        code, out, _ = run(capsys, "scan", "--a-range=0:1", "--b-range=-1:1", "--n-max", "50")
        assert code == 0 and len(json.loads(out)["grid"]["points"]) == 6
        code, out, _ = run(capsys, "poly", "200", "--format", "text")
        assert code == 0 and out.startswith("X^200 + ")

    def test_size_caps_name_their_modes_and_readme_lists_them(self):
        # One README row per CLI mode and cap, naming the quantity its error
        # line names; the caps are read from the modules that check them.
        text = README.read_text()
        for mode, cap, quantity, *_ in [*self.SIZE_ARGV.values(), *self.DERIVED_ARGV.values()]:
            assert f"| `{mode}` | {cap} | `{quantity}` |" in text, mode
        assert not hasattr(cli, "SIZE_CAPS") and not hasattr(cli, "_sizes")

    def test_directory_as_g(self, capsys, tmp_path):
        code, _, err = run(capsys, "poly", "2", "--g", str(tmp_path))
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("command, flag", [("poly", "--g"), ("tau", "--out")],
                             ids=["--g", "--out"])
    def test_nul_in_file_name_is_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, command, "2", flag, "a\0b")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "NUL" in err

    def test_undecodable_g_table(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_bytes(b"1\n\xff\xfe\n")
        code, _, err = run(capsys, "poly", "2", "--g", str(table))
        assert code == 2 and err.startswith("error: ")

    def test_directory_as_out(self, capsys, tmp_path):
        code, _, err = run(capsys, "poly", "2", "--out", str(tmp_path))
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [("certify", "--candidate", "quad:D,1,0", "--n", "3"),
         ("scan", "--kind", "quad:D", "--a-range=0:0", "--b-range=0:0"),
         ("scan", "--kind", "quad:D", "--a-range=1:1", "--b-range=0:1", "--n-max", "1")],
        ids=["certify", "scan-real-row", "scan"],
    )
    def test_huge_quadratic_d(self, capsys, monkeypatch, argv):
        # A 20-digit D is refused before trial division up to sqrt|D| begins.
        from darcais import arith

        def factor(n):
            raise AssertionError(f"trial division of {n}")

        monkeypatch.setattr(arith, "_factorization", factor)
        for D in (12345678901234567891, -10**19 - 1, 10**9 + 7):
            code, out, err = run(capsys, *(a.replace("D", str(D)) for a in argv))
            assert code == 2 and out == "", D
            assert err == f"error: |D| is at most 1000000000 (trial-division cap), got {abs(D)}\n"

    def test_help_spells_the_grammar_of_numfield(self, capsys):
        from darcais import numfield

        for command, grammar in (("certify", numfield.CANDIDATE_GRAMMAR),
                                 ("scan", numfield.FAMILY_GRAMMAR)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert grammar in " ".join(capsys.readouterr().out.split()), command

    @pytest.mark.parametrize(
        "argv",
        [("certify", "--candidate", "quad:-2,1,0", "--n", "7"),
         ("scan", "--kind", "quad:-2", "--a-range=1:1", "--b-range=0:0")],
        ids=["certify", "scan"],
    )
    def test_huge_not_ramified_bound(self, capsys, tmp_path, monkeypatch, argv):
        # The bound is refused before the sieve of primes up to it is built.
        from darcais import arith

        def sieve(bound):
            raise AssertionError(f"sieved up to {bound}")

        monkeypatch.setattr(arith, "primes_up_to", sieve)
        code, out, err = run(capsys, *argv, "--not-ramified-bound", str(10**15))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at most 1000000" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_ramified_bound": 10**15}))
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "at most 1000000" in err

    @pytest.mark.parametrize(
        "argv, key",
        [(("certify", "--candidate", "cyc:8,2,1", "--n", "3"), "exact_eval_bound"),
         (("scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "3"), "not_ramified_bound")],
        ids=["exact-eval-bound", "not-ramified-bound"],
    )
    def test_negative_bound(self, capsys, tmp_path, monkeypatch, argv, key):
        flag = "--" + key.replace("_", "-")
        want = f"error: {flag} (config key '{key}') must be >= 0, got -1\n"
        assert run(capsys, *argv, flag, "-1") == (2, "", want)
        assert run(capsys, *argv, flag, "0")[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: -1}))
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        assert run(capsys, *argv) == (2, "", want)

    @pytest.mark.parametrize("config", [{"primes": "4"}, {"primes": "2147483659"},
                                        {"not_ramified_bound": 2000000}],
                             ids=["not-prime", "past-polymod", "past-the-sieve-cap"])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_certify_config_is_checked_on_every_command(self, capsys, tmp_path, monkeypatch,
                                                        command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, err = run(capsys, *TestCommonFlags.INVOCATIONS[command])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_valid_env_config_still_accepted(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 7, "primes": "5,7", "format": "json"}')
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, _ = run(capsys, "poly", "2")
        assert code == 0
        assert json.loads(out)["config"]["primes"] == [5, 7]


class TestCommonFlags:
    """Each subcommand takes only the common flags it reads."""

    EVERYWHERE = {"--seed", "--format", "--out"}
    CERTIFY_FLAGS = {"--g", "--primes", "--exact-eval-bound", "--not-ramified-bound"}
    TAKES = {
        "poly": EVERYWHERE | {"--g"},
        "tau": EVERYWHERE,
        "certify": EVERYWHERE | CERTIFY_FLAGS,
        "scan": EVERYWHERE | CERTIFY_FLAGS,
        "minpoly": EVERYWHERE,
        "split": EVERYWHERE,
        "zmija": EVERYWHERE | {"--g"},
        "hurwitz": EVERYWHERE | {"--g"},
    }
    COMMON = EVERYWHERE | CERTIFY_FLAGS
    # A minimal valid invocation of each subcommand.
    INVOCATIONS = {
        "poly": ("poly", "3"),
        "tau": ("tau", "2"),
        "certify": ("certify", "--candidate", "gauss:2,1", "--n", "9"),
        "scan": ("scan", "--a-range=1:1", "--b-range=0:0", "--n-max", "3"),
        "minpoly": ("minpoly", "--candidate", "cyc:5,1,0"),
        "split": ("split", "--candidate", "cyc:4,3,0", "--p", "7"),
        "zmija": ("zmija",),
        "hurwitz": ("hurwitz", "--max", "3"),
    }

    @staticmethod
    def help_text(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_help_lists_exactly_the_flags_it_reads(self, capsys, command):
        text = self.help_text(capsys, command)
        listed = set(re.findall(r"^\s+(--[\w-]+)", text, re.MULTILINE))
        assert listed & self.COMMON == self.TAKES[command]

    def test_csv_is_a_format_of_scan_only(self, capsys):
        for command in self.TAKES:
            text = self.help_text(capsys, command)
            assert ("csv" in text) == (command == "scan"), command

    @pytest.mark.parametrize(
        "argv",
        [("tau", "2", "--g", "identity"),
         ("minpoly", "--candidate", "cyc:5,1,0", "--primes", "5"),
         ("split", "--candidate", "cyc:4,3,0", "--p", "7", "--not-ramified-bound", "9"),
         ("zmija", "--exact-eval-bound", "3"),
         ("hurwitz", "--max", "3", "--oracle-bound", "9"),
         ("poly", "3", "--primes", "5"),
         ("certify", "--candidate", "gauss:2,1", "--n", "9", "--oracle-bound", "9"),
         ("scan", "--a-range=1:1", "--b-range=0:0", "--oracle-bound", "9"),
         ("poly", "3", "--format", "csv")],
    )
    def test_unread_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "usage: " in err and "error: " in err and "Traceback" not in err

    def test_readme_flag_table_names_the_readers(self):
        # README's `| flag | subcommands |` table, against the CLI's table of flags.
        section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
        readme = {}
        for flags, commands in re.findall(r"^\| (`--.*) \| (.*) \|$", section, re.MULTILINE):
            readers = set(re.findall(r"`(\w+)`", commands))
            if commands == "all":
                readers = set(cli._COMMANDS)
            readme.update((flag, readers) for flag in re.findall(r"`(--[\w-]+)`", flags))
        assert readme == {"--" + key.replace("_", "-"): set(readers)
                          for key, (_, _, readers) in cli._COMMON_FLAGS.items()}

    @staticmethod
    def header(out: str) -> dict:
        line = out.splitlines()[0]
        doc = json.loads(line[2:] if line.startswith("# ") else out)
        return {key: doc[key] for key in ("tool", "version", "seed", "config")}

    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    def test_run_header_echoes_every_config_key(self, capsys, tmp_path, monkeypatch, command):
        code, out, _ = run(capsys, *self.INVOCATIONS[command])
        assert code in (0, 1)
        assert self.header(out) == {
            "tool": "darcais", "version": __version__, "seed": 0,
            "config": {"g": "sigma", "primes": [2, 3, 5, 7, 11, 13], "oracle_bound": 25,
                       "exact_eval_bound": 30, "not_ramified_prime_bound": 50,
                       "seed": 0, "format": "json"},
        }
        # A config file sets the keys a subcommand has no flag for as well;
        # only scan writes csv, and text carries no header.
        fmt = "csv" if command == "scan" else "json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": "identity", "primes": "5,7",
                                   "exact_eval_bound": 12, "not_ramified_bound": 20,
                                   "seed": 7, "format": fmt}))
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, _ = run(capsys, *self.INVOCATIONS[command])
        assert code in (0, 1)
        assert self.header(out) == {
            "tool": "darcais", "version": __version__, "seed": 7,
            "config": {"g": "identity", "primes": [5, 7], "oracle_bound": 25,
                       "exact_eval_bound": 12, "not_ramified_prime_bound": 20,
                       "seed": 7, "format": fmt},
        }

    @pytest.mark.parametrize("command", ["tau", "minpoly", "split"])
    def test_g_is_loaded_only_where_it_is_read(self, capsys, tmp_path, monkeypatch, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": str(tmp_path / "missing.txt")}))
        monkeypatch.setenv("DARCAIS_CONFIG", str(cfg))
        code, out, err = run(capsys, *self.INVOCATIONS[command])
        assert code == 0 and err == ""
        assert self.header(out)["config"]["g"] == str(tmp_path / "missing.txt")


def _every_flag() -> list[tuple[str, str]]:
    """(subcommand, --flag) for each long option of each subcommand."""
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return [(command, flag) for command, parser in sub.choices.items()
            for action in parser._actions for flag in action.option_strings
            if flag.startswith("--")]


class TestDashDashValue:
    """argparse reads ``--flag=--`` as an empty list; no flag takes one."""

    @pytest.mark.parametrize("command, flag", _every_flag())
    def test_is_usage_error(self, capsys, tmp_path, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)
        try:
            code = main([*TestCommonFlags.INVOCATIONS[command], f"{flag}=--"])
        except SystemExit as exc:  # argparse's own refusals: --help=--, --all-n=--
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
        (line,) = [line for line in err.splitlines() if "error: " in line]
        assert flag in line and "Traceback" not in err


@contextlib.contextmanager
def uncapped():
    """Lift Python's 4300-digit int <-> str cap (3.11+) to read big outputs."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


class TestIntegersPastTheDigitCap:
    """Integers longer than Python's 4300-digit str cap are read and printed in full."""

    HUGE = "9" * 4400  # past the cap

    def test_minpoly_prints_the_whole_index(self, capsys):
        code, out, err = run(capsys, "minpoly", "--candidate", "cyc:211,2,3")
        assert (code, err) == (0, "")
        text = run(capsys, "minpoly", "--candidate", "cyc:211,2,3", "--format", "text")
        with uncapped():
            doc = json.loads(out)
            d = doc["degree"]
            assert d == 210 and int(doc["index"]) == 2 ** (d * (d - 1) // 2)
            assert text[0] == 0 and text[1].endswith(f", index {2 ** 21945}\n")

    def test_split_text_names_the_whole_index(self, capsys):
        code, out, err = run(capsys, "split", "--candidate", "cyc:1000,2,3", "--p", "2",
                             "--format", "text")
        assert (code, err) == (0, "")
        with uncapped():
            assert out == f"p = 2 divides the index {2 ** (400 * 399 // 2)}; not applicable\n"

    def test_certify_writes_a_certificate_that_replays(self, capsys):
        spec = f"quad:-1,{'7' * 3000},0"
        code, out, err = run(capsys, "certify", "--candidate", spec, "--n", "1")
        assert (code, err) == (0, "")
        g = ArithmeticFunction.sigma()
        with uncapped():
            cert = certify(g, parse_candidate(spec), 1)
            assert cert.method == "han_bound" and verify_certificate(g, cert)
            assert json.loads(out)["certificate"] == json.loads(cert.canonical_json())

    def test_huge_integer_inputs_parse(self, capsys, tmp_path):
        table = tmp_path / "g.txt"
        table.write_text(f"1\n{self.HUGE}\n")
        code, out, err = run(capsys, "poly", "2", "--g", str(table))
        assert (code, err) == (0, "")
        seeded = run(capsys, "tau", "2", "--seed", self.HUGE)
        with uncapped():
            poly = series.a_poly(ArithmeticFunction.from_table([1, int(self.HUGE)]), 2)
            assert json.loads(out)["poly"] == json.loads(json.dumps(poly.to_json_dict()))
            assert seeded[0] == 0 and json.loads(seeded[1])["seed"] == int(self.HUGE)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit cap")
    def test_a_run_hands_the_cap_back(self, capsys):
        cap = sys.get_int_max_str_digits()
        run(capsys, "minpoly", "--candidate", "cyc:211,2,3")
        with pytest.raises(SystemExit):
            main(["tau", "--seed", "x"])
        assert sys.get_int_max_str_digits() == cap


class TestOneWriter:
    """``main`` alone builds the run header, writes the document and reports errors."""

    TREE = ast.parse(Path(cli.__file__).read_text())
    OUTPUT = {"_run_header", "_write_run", "_emit", "_write"}

    @staticmethod
    def names(node) -> set[str]:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                found.add(f"{sub.value.id}.{sub.attr}")
        return found

    def test_handlers_only_return_their_body(self):
        handlers = [node for node in self.TREE.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
        assert {h.name[len("_cmd_"):] for h in handlers} == set(cli._COMMANDS)
        for handler in handlers:
            used = self.names(handler) & (self.OUTPUT | {"sys.stdout", "args.format", "args.out"})
            assert not used, (handler.name, used)

    def callers(self, name: str) -> list[str]:
        """The functions of cli.py that call ``name``, once per call."""
        return [fn.name for fn in self.TREE.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    def test_the_config_is_built_once_in_main(self):
        assert self.callers("_config_from_args") == ["main"]
        assert self.callers("_parse_primes") == ["_config_from_args"]

    def test_run_header_echoes_the_certify_config(self):
        # Its config section takes the CertifyConfig keys from to_json_dict.
        (header,) = [fn for fn in self.TREE.body
                     if isinstance(fn, ast.FunctionDef) and fn.name == "_run_header"]
        (section,) = [node.values[node.keys.index(key)] for node in ast.walk(header)
                      if isinstance(node, ast.Dict) for key in node.keys
                      if isinstance(key, ast.Constant) and key.value == "config"]
        spelled = {key.value for key in section.keys if isinstance(key, ast.Constant)}
        assert not spelled & set(cli.DEFAULT_CONFIG.to_json_dict())
        read = {name.split(".")[1] for name in self.names(header) if name.startswith("args.")}
        assert not read & {"primes", "exact_eval_bound", "not_ramified_bound", "seed"}

    def test_run_header_has_one_call_site(self):
        calls = [node for node in ast.walk(self.TREE) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "_run_header"]
        assert len(calls) == 1

    def test_errors_are_printed_from_one_place(self):
        literals = [node for node in ast.walk(self.TREE)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("error:")]
        assert len(literals) == 1
        (call,) = [node for node in ast.walk(self.TREE) if isinstance(node, ast.Call)
                   and any(arg in ast.walk(node) for arg in literals)]
        assert ast.unparse(call.func) == "print"
        assert [ast.unparse(kw.value) for kw in call.keywords if kw.arg == "file"] == ["sys.stderr"]


_KEYS = ("g", "primes", "exact_eval_bound", "not_ramified_bound", "seed", "format", "out",
         "other")
_SMALL = st.integers(-20, 20)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)
_CONFIGS = _JSON | st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=3)
_VALUE = st.text(max_size=6) | _SMALL.map(str) | st.just("--")
_COMMANDS = (("tau", "2"), ("poly", "3"), ("minpoly", "--candidate", "cyc:5,1,0"))
_FLAGS = ("--g", "--primes", "--exact-eval-bound", "--not-ramified-bound", "--seed",
          "--format", "--mod", "--max", "--candidate")


def _run_isolated(argv, config=None) -> tuple[int, str]:
    """Run the CLI in a scratch directory; return the exit code and stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        env = {}
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            env["DARCAIS_CONFIG"] = path
        os.chdir(tmp)
        try:
            with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


_SIGN = st.sampled_from(("", "-"))
_PRIME = st.sampled_from((2, 3, 5, 7))
_HUGE = st.integers(1, 9).map(lambda digit: str(digit) * 4400)  # past the digit cap
# (spec, p) whose index may run to tens of thousands of digits: a large m
# (p divides a, so split reports the index instead of factoring a
# polynomial of degree phi(m) mod p), or a huge |a|.
_LARGE_CASES = st.one_of(
    st.builds(lambda m, sign, p, k: (f"cyc:{m},{sign}{p * k},1", p),
              st.integers(100, 260), _SIGN, _PRIME, st.integers(1, 3)),
    st.builds(lambda m, sign, a, b, p: (f"cyc:{m},{sign}{a},{b}", p),
              st.sampled_from((3, 4, 5, 6, 8, 10, 12)), _SIGN, _HUGE, _SMALL, _PRIME),
    st.builds(lambda D, sign, a, b, p: (f"quad:{D},{sign}{a},{b}", p),
              st.sampled_from((-1, -2, -7, 2, 3, 5, 13)), _SIGN, _HUGE, _SMALL, _PRIME),
)


class TestFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_CONFIGS, command=st.sampled_from(_COMMANDS))
    def test_env_config(self, config, command):
        code, err = _run_isolated(command, config)
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(_COMMANDS),
           flags=st.lists(st.tuples(st.sampled_from(_FLAGS), _VALUE, st.booleans()),
                          max_size=3))
    def test_flag_values(self, command, flags):
        # Each flag as "--flag VALUE" or as "--flag=VALUE".
        argv = list(command)
        for flag, value, joined in flags:
            argv += [f"{flag}={value}"] if joined else [flag, value]
        code, err = _run_isolated(argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_LARGE_CASES)
    def test_large_candidates(self, case):
        spec, p = case
        for argv in (("minpoly", "--candidate", spec),
                     ("split", "--candidate", spec, "--p", str(p), "--format", "text")):
            assert _run_isolated(argv) == (0, ""), argv


class TestSubprocessEntryPoint:
    @staticmethod
    def run_module(*argv):
        """``python -m darcais ARGV`` on the package under test, installed or not."""
        import subprocess
        import sys
        from pathlib import Path

        import darcais

        src = str(Path(darcais.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "darcais", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_invocation(self):
        proc = self.run_module("poly", "2", "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "X^2 + 3*X"

    def test_module_invocation_usage_error(self):
        proc = self.run_module("certify", "--candidate", "quad:0,1,1", "--n", "2")
        assert proc.returncode == 2
