"""Seeded, theorem-driven workload generator for the darcais benchmark.

A workload is a list of CLI invocations (argv lists without the
interpreter).  The seed decides the inputs; the CLI only ever sees the
generated argv.  Candidates are chosen from the hypotheses of the criteria
in the certify strategy chain, never by running the program, so every seed
keeps the property each workload exists for:

* ``scan-grid``    - ``scan`` rectangles where the closed forms rarely
  settle, so most (candidate, n) pairs reach the mod-p obstruction search
  and its many small, repeated factorizations.
* ``certify-deep`` - single ``certify --n N`` calls, N in the thousands,
  whose hypotheses rule out every closed-form criterion, so each one is
  settled by ``generic_obstruction`` at p = 5 through two factorizations
  of which one has degree N.
* ``series-exact`` - ``tau``, ``hurwitz`` and ``poly``: exact bigint and
  ``Fraction`` series work that never enters ``polymod``.

The seed varies only what leaves the cost of a workload unchanged, because
the benchmark compares runs made with different seeds.  Drawing the
quadratic field itself from a pool changed the cost of one 9x9 scan by up
to ten times between fields, so the fields are fixed and the seed draws
Galois-conjugate orientations, the factorization seed and the order.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan-grid", "certify-deep", "series-exact")
DEFAULT_SEED = 0

SCAN_N_MAX = 50

# Fixed quadratic fields for scan-grid.  Each D is negative, squarefree and
# D = 2 or 3 mod 4, so a*w_D + b and -a*w_D + b are complex conjugates: the
# mirrored a-range certifies the same minimal polynomials at the same cost.
# D != 5 mod 8 (implied) and D != 2 mod 3 keep the translated-shift items 3
# and 4 from settling every point for all n at once.
SCAN_FIELDS = ((-2, (1, 4), (-4, 4)), (-17, (1, 3), (-3, 3)))
# cyc:8 with m = 0 mod 4: -zeta_8 = zeta_8**5 is again primitive, so the
# mirrored a-range is again Galois conjugate.  Points with 3 | a fall past
# translated-shift item 2.
SCAN_CYC = (8, (1, 6), (-3, 3))
# The Gaussian rectangle straddles a = 0, the real-axis row checked by
# exact evaluation; gaussian_sigma settles the rest almost for free, so its
# b-range may move with the seed.
SCAN_GAUSS_A = (-1, 3)
SCAN_GAUSS_B_WIDTH = 9

# certify-deep: N = l*5 + r with r <= 3.  A_N mod 5 is A_r * X**l *
# (X**4 - 1)**l, whose only non-linear irreducible factors come from A_r
# (degree r <= 3), while for 5 not dividing a the minimal polynomial of
# a*zeta_m + b (m = 8 or 12) splits mod 5 into two irreducible quadratics.
# One of them is missing from A_N mod 5, so p = 5 is always a witness.
DEEP_N = (2501, 3001, 3502)
DEEP_M = (8, 12)
# 6 | a: 2 and 3 divide the index (skipped as obstruction primes) and
# translated_shift items 1 (a odd) and 2 (3 does not divide a) both fail.
DEEP_A_MULTIPLIERS = (1, 2, 3, 4, 6, 7)  # 5 must not divide a
DEEP_B = range(-9, 10)

# series-exact: tau's O(N**2) recurrence, the Fraction Routh tables of
# hurwitz, and the a_poly recursion with JSON output of huge integers.
# hurwitz costs about M**6 in total and poly about n**3, so only tau's N
# moves with the seed, by at most half a percent.
TAU_N = 3000
TAU_N_SPREAD = 16
HURWITZ_M = 55
POLY_N = 200

_CLI_SEED_BOUND = 10**6


def _mirror(lo: int, hi: int, flip: bool) -> tuple[int, int]:
    return (-hi, -lo) if flip else (lo, hi)


def _scan(kind: str, a_range, b_range, cli_seed: int) -> list[str]:
    return [
        "scan", f"--kind={kind}",
        f"--a-range={a_range[0]}:{a_range[1]}",
        f"--b-range={b_range[0]}:{b_range[1]}",
        "--n-max", str(SCAN_N_MAX), "--seed", str(cli_seed),
    ]


def _scan_grid(rng: random.Random) -> list[list[str]]:
    cli_seed = rng.randrange(_CLI_SEED_BOUND)
    out = [
        _scan(f"quad:{D}", _mirror(*a_range, rng.random() < 0.5), b_range, cli_seed)
        for D, a_range, b_range in SCAN_FIELDS
    ]
    m, a_range, b_range = SCAN_CYC
    out.append(_scan(f"cyc:{m}", _mirror(*a_range, rng.random() < 0.5), b_range, cli_seed))
    b_lo = rng.randrange(-6, -1)
    out.append(_scan("gauss", _mirror(*SCAN_GAUSS_A, rng.random() < 0.5),
                     (b_lo, b_lo + SCAN_GAUSS_B_WIDTH - 1), cli_seed))
    rng.shuffle(out)
    return out


def _certify_deep(rng: random.Random) -> list[list[str]]:
    cli_seed = rng.randrange(_CLI_SEED_BOUND)
    out = []
    for n in DEEP_N:
        m = rng.choice(DEEP_M)
        a = 6 * rng.choice(DEEP_A_MULTIPLIERS) * rng.choice((1, -1))
        b = rng.choice(DEEP_B)
        out.append(["certify", "--candidate", f"cyc:{m},{a},{b}", "--n", str(n),
                    "--seed", str(cli_seed)])
    rng.shuffle(out)
    return out


def _series_exact(rng: random.Random) -> list[list[str]]:
    cli_seed = str(rng.randrange(_CLI_SEED_BOUND))
    out = [
        ["tau", "--max", str(TAU_N + rng.randrange(TAU_N_SPREAD)), "--seed", cli_seed],
        ["hurwitz", "--max", str(HURWITZ_M), "--seed", cli_seed],
        ["poly", str(POLY_N), "--seed", cli_seed],
    ]
    rng.shuffle(out)
    return out


_GENERATORS = {
    "scan-grid": _scan_grid,
    "certify-deep": _certify_deep,
    "series-exact": _series_exact,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one pass of ``workload`` for ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
