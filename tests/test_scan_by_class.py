"""``scan_grid`` decides each n from facts computed once per point.

The scan asks the strategy chain's methods in table order, as ``certify``
does, but reads each answer from a threshold in n, a residue of n, or the
search that the method's certificate reads (``not_ramified``'s witness
primes, sieved once per scan, and ``generic_obstruction``'s witnesses per
class of n), instead of building a certificate per n.  These tests hold it
to the per-n route it replaced:

* the scan's JSON bytes equal those of ``oracles.scan_grid_per_n``, which
  runs the chain for every (point, n), with the generic obstruction and the
  unramified criterion decided from their definitions, also under two
  obstruction primes, where the generic obstruction leaves some n open;
* each method's per-point test equals, for every n <= 60, ``.proven`` of
  the certificate its chain entry builds, and for the two methods that share
  their search with the scan also the criterion from its definition
  (``oracles.generic_obstruction_proves`` and ``not_ramified_proves``),
  under the default primes and under two, as above;
* a scan runs the all-n criterion once per point, never ``certify`` or a
  per-n ``certify_*`` function, and sieves the witness primes once.
"""

import importlib
import json
import random

import pytest

from darcais import (
    ArithmeticFunction,
    CertifyConfig,
    QuadraticShift,
    TableExhaustedError,
    arith,
    certify_han_bound,
    scan_grid,
    series,
)
from darcais.certify import (
    _ABS_SQ_DEN,
    _CHAIN,
    _HAN_C_SQ_DEN,
    _HAN_C_SQ_NUM,
    DEFAULT_CONFIG,
    _han_open,
    _han_reach,
    _held_rows,
    _point_tests,
    abs_sq_lower_bound,
)

from conftest import random_table
from oracles import generic_obstruction_proves, not_ramified_proves, scan_grid_per_n
from test_periodic import CLOSED_FORM_CYCS, CLOSED_FORM_GS, CLOSED_FORM_QUADS

# The 8-entry table reaches below the primes 11 and 13 and below n_max.
SCAN_GS = (
    ArithmeticFunction.sigma(),
    ArithmeticFunction.identity(),
    random_table(11, 40, -20, 20),
    random_table(12, 8, -20, 20),
)
SCAN_KINDS = ("gauss", "quad:-2", "quad:-17", "quad:-3", "quad:5", "cyc:5", "cyc:8", "cyc:12")


def scan_bytes(scan, *args) -> str:
    """The JSON bytes of ``scan(g, kind, a_range, b_range, n_max[, config])``."""
    return json.dumps(scan(*args).to_json_dict(), sort_keys=True)


class TestScanMatchesThePerNChain:
    @pytest.mark.parametrize("g", SCAN_GS, ids=lambda g: g.name)
    def test_small_rectangles(self, g):
        # Under the primes 13 and 2 alone the generic obstruction leaves some
        # n to exact evaluation under every g here (under the default primes
        # it proves every n it is asked), and 13 lies past the 8-entry table.
        for config in (DEFAULT_CONFIG, CertifyConfig(primes=(13, 2))):
            for kind in SCAN_KINDS:
                for n_max in (1, 7, 50):
                    args = (g, kind, (-1, 3), (-3, 3), n_max, config)
                    assert scan_bytes(scan_grid, *args) == scan_bytes(scan_grid_per_n, *args), (
                        g.name, kind, n_max, config.primes)

    @pytest.mark.parametrize("g", SCAN_GS, ids=lambda g: g.name)
    def test_real_axis_rows(self, g):
        # The a = 0 points read one integer row per b; the oracle evaluates
        # the polynomials A_n at b.  Both tables end before n_max.
        for n_max in (1, 300):
            args = (g, "gauss", (0, 0), (-6, 6), n_max)
            assert scan_bytes(scan_grid, *args) == scan_bytes(scan_grid_per_n, *args), (
                g.name, n_max)

    def test_deep_quadratic_scan(self, sigma_g):
        args = (sigma_g, "quad:-2", (1, 4), (-4, 4), 400)
        assert scan_bytes(scan_grid, *args) == scan_bytes(scan_grid_per_n, *args)


class TestNotRamifiedStopsPastNMax:
    """A witness prime p > n proves n only at n = 1 (n mod p < 2 at n < p),
    so the scan reads witnesses up to the first one above the n it asks,
    at most n_max, whatever the prime bound."""

    @pytest.mark.parametrize(
        "g", (ArithmeticFunction.sigma(), ArithmeticFunction.identity(),
              random_table(13, 3000, -20, 20)), ids=lambda g: g.name)
    def test_matches_the_per_n_chain_at_a_large_bound(self, g):
        config = CertifyConfig(not_ramified_prime_bound=3000)
        for kind in ("gauss", "quad:-2", "quad:5", "quad:-17"):
            for n_max in (1, 4, 9):
                args = (g, kind, (1, 2), (-2, 2), n_max, config)
                assert scan_bytes(scan_grid, *args) == scan_bytes(scan_grid_per_n, *args), (
                    g.name, kind, n_max)

    def test_reads_g_up_to_the_first_witness_above_n_max(self, sigma_g, monkeypatch):
        # sigma(p) = 1 mod p; -2 is a non-residue mod 5 and 7 and a residue mod 3.
        c, config = QuadraticShift(-2, 1, 1), CertifyConfig(not_ramified_prime_bound=10**5)
        asked, evaluate = [], ArithmeticFunction.__call__
        monkeypatch.setattr(ArithmeticFunction, "__call__",
                            lambda g, n: asked.append(n) or evaluate(g, n))
        tests = dict(_point_tests(sigma_g, c, config, _held_rows(sigma_g, 1), 1, {}, []))
        assert asked == []
        assert [n for n in range(1, 6) if tests["not_ramified"](n)] == [1, 5]
        assert asked == [2, 3, 5]  # 5 proves n = 1 and 5, and ends the search at n = 2..4
        # 9 = 4 mod 5 and 2 mod 7; 11 is no witness ((-2|11) = 1), 13 > 9 is.
        assert not tests["not_ramified"](9) and asked == [2, 3, 5, 7, 11, 13]


class TestScanHoldsOneList:
    """A scan builds A_0..A_N once, N the largest n exact evaluation reads
    off the real axis: its bound cut to n_max.  A point with a = 0 reads an
    integer row up to n_max (``series.row_at``) instead."""

    @pytest.mark.parametrize(
        "a_range, config, n_max, built, rows",
        [((1, 2), CertifyConfig(primes=(2,), exact_eval_bound=400), 5, [5], []),
         ((-1, 1), CertifyConfig(primes=(2,)), 50, [30], [(b, 50) for b in range(-3, 4)])],
        ids=["bound-past-n-max", "real-axis-after-a-negative-row"],
    )
    def test_one_list_up_to_the_largest_n_read(self, sigma_g, monkeypatch, a_range, config,
                                               n_max, built, rows):
        args = (sigma_g, "quad:-2", a_range, (-3, 3), n_max, config)
        calls, a_poly_list = [], series.a_poly_list
        row_calls, row_at = [], series.row_at
        with monkeypatch.context() as patched:
            patched.setattr(series, "a_poly_list",
                            lambda g, n: calls.append(n) or a_poly_list(g, n))
            patched.setattr(series, "row_at",
                            lambda g, b, n: row_calls.append((b, n)) or row_at(g, b, n))
            got = scan_bytes(scan_grid, *args)
        assert calls == built and row_calls == rows
        assert got == scan_bytes(scan_grid_per_n, *args)


def chain_proves(method: str, g, c, n: int, config) -> bool:
    """``.proven`` of the certificate the chain entry builds; a method the
    chain skips with ``TableExhaustedError`` does not prove."""
    try:
        return _CHAIN[method][1](g, c, n, config).proven
    except TableExhaustedError:
        return False


# The criterion from its definition, for the methods whose certificate reads
# the scan's own search: comparing the two alone would prove nothing.
DEFINITIONS = {
    "generic_obstruction": lambda g, c, n, config: generic_obstruction_proves(
        g, c.min_poly, n, config.primes),
    "not_ramified": lambda g, c, n, config: not_ramified_proves(
        g, c, n, config.not_ramified_prime_bound),
}


class TestPointTestsMatchTheCertificates:
    @pytest.mark.parametrize("g", CLOSED_FORM_GS, ids=lambda g: g.name)
    @pytest.mark.usefixtures("held_a_poly", "held_pieces")
    def test_each_method_up_to_60(self, g):
        # Under the primes 13 and 2 alone the generic obstruction leaves some n
        # open under every g here, so its definition can tell a search that
        # proves too much from the real one; under the default primes it
        # leaves at most one (candidate, n) open here.
        for config in (CertifyConfig(primes=(13, 2)), DEFAULT_CONFIG):
            last = config.exact_eval_bound  # below the reach of every table here
            # One list, one set of pieces and one sieve for every candidate, as in a scan.
            asked, row, pieces, sieve = set(), _held_rows(g, last), {}, []
            for c in CLOSED_FORM_QUADS + CLOSED_FORM_CYCS:
                tests = _point_tests(g, c, config, row, last, pieces, sieve)
                applicable = [m for m, (applies, _) in _CHAIN.items()
                              if applies(g, c, 1, config)]
                # translated_shift reads no n; the scan has its all-n verdict.
                assert [m for m, _ in tests] == [m for m in applicable
                                                 if m != "translated_shift"]
                for method, proves in tests:
                    asked.add(method)
                    applies = _CHAIN[method][0]
                    for n in range(1, 61):
                        want = applies(g, c, n, config) and chain_proves(method, g, c, n, config)
                        assert bool(proves(n)) == want, (g.name, c, method, n, config.primes)
                        if method in DEFINITIONS:
                            assert DEFINITIONS[method](g, c, n, config) == want, (
                                g.name, c, method, n, config.primes)
            assert asked >= {"generic_obstruction", "exact_evaluation", "not_ramified"}

    def test_han_reach_is_the_bound_of_the_certificate(self, sigma_g):
        # (9.7226 * k)**2 itself sits on the boundary: it proves n = k, not k + 1.
        # Squares are numerators over _ABS_SQ_DEN, where 9.7226**2 is c_sq.
        c_sq, eps = _HAN_C_SQ_NUM * _ABS_SQ_DEN // _HAN_C_SQ_DEN, _ABS_SQ_DEN // 10**9
        assert c_sq * _HAN_C_SQ_DEN == _HAN_C_SQ_NUM * _ABS_SQ_DEN

        def exceeds(abs_sq: int, k: int) -> bool:  # |alpha|**2 > (9.7226 * k)**2
            return abs_sq * _HAN_C_SQ_DEN > _HAN_C_SQ_NUM * k * k * _ABS_SQ_DEN

        rng = random.Random(0)
        samples = [0, eps]
        samples += [c_sq * k * k + d for k in range(1, 8) for d in (-eps, 0, eps)]
        # p/q rounded down onto the grid of numerators
        samples += [rng.randrange(10**6) * _ABS_SQ_DEN // rng.randrange(1, 10**3)
                    for _ in range(300)]
        for abs_sq in samples:
            # The bound weakens as n grows, so it holds at n = 1..reach.
            reach = _han_reach(abs_sq)
            assert reach == 0 or exceeds(abs_sq, reach - 1), abs_sq
            assert not exceeds(abs_sq, reach), abs_sq
        assert [_han_reach(c_sq * k * k) for k in range(1, 8)] == list(range(1, 8))
        c = QuadraticShift.gaussian(40, 3)
        reach = _han_reach(abs_sq_lower_bound(c))
        assert reach > 1
        proven = [certify_han_bound(sigma_g, c, n).proven for n in (reach, reach + 1)]
        assert proven == [True, False]

    def test_han_open_is_the_last_b_whose_reach_falls_short(self):
        # A real-axis point builds its row exactly when |b| <= _han_open(top).
        def short(b: int, top: int) -> bool:
            return _han_reach(b * b * _ABS_SQ_DEN) < top

        for top in range(1, 3001):
            t = _han_open(top)
            assert short(t, top) and not short(t + 1, top), top
            assert t == 0 or short(t - 1, top), top


class TestScanRunsNoPerNChain:
    def test_call_counts(self, monkeypatch):
        # Counted through the module globals, which the chain calls.
        certify_module = importlib.import_module("darcais.certify")
        calls = {"certify_theorem_translated": 0, "certify": 0, "certify_generic": 0,
                 "certify_theorem_not_ramified": 0}
        for name in calls:
            original = getattr(certify_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(certify_module, name, counted)
        points = 0
        for g in SCAN_GS:
            for kind in SCAN_KINDS:
                grid = scan_grid(g, kind, (-1, 3), (-3, 3), 30)
                points += sum(1 for pt in grid.points if pt.a != 0)
        assert 0 < calls["certify_theorem_translated"] <= points
        assert calls["certify"] == calls["certify_generic"] == 0
        assert calls["certify_theorem_not_ramified"] == 0

    @pytest.mark.parametrize("g, a_range, b_range, bound", [
        (ArithmeticFunction.sigma(), (1, 1), (0, 0), 10**4),
        (ArithmeticFunction.sigma(), (1, 4), (-4, 4), 10**4),
        (random_table(11, 40, -20, 20), (1, 4), (-4, 4), 40),
    ], ids=["1-point", "36-point", "table"])
    def test_one_sieve_per_scan(self, monkeypatch, g, a_range, b_range, bound):
        # The witness primes of not_ramified are sieved once per scan, not
        # per point, up to the prime bound cut to a table's reach.
        sieves, sieve = [], arith.primes_up_to
        monkeypatch.setattr(arith, "primes_up_to",
                            lambda bound: sieves.append(bound) or sieve(bound))
        config = CertifyConfig(not_ramified_prime_bound=10**4)
        grid = scan_grid(g, "quad:-2", a_range, b_range, 30, config)
        assert "not_ramified" in {m for pt in grid.points for m in pt.methods}
        assert sieves == [bound]
