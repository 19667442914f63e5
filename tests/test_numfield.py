import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import (
    CyclotomicShift,
    DomainError,
    IntPoly,
    QuadraticShift,
    dedekind_kummer_split,
    euler_phi,
    legendre_symbol,
    parse_candidate,
    ramifies,
)
from darcais import arith
from darcais.arith import primes_up_to
from darcais.numfield import candidate_family

from oracles import (
    evaluate_at_cyclotomic,
    evaluate_at_quadratic,
    index_via_determinant,
    inertia_degree_cyclotomic,
    min_poly_by_powers,
)

SHIFT_SCALES = (1, -1, 2, -2, 3, -3, 6, -6)


class TestMinPolyCyclotomicShift:
    def test_plain_phi4(self):
        assert CyclotomicShift(4, 1, 0).min_poly == IntPoly((1, 0, 1))

    def test_gaussian_shift_form(self):
        for a in (1, -2, 3, 7):
            for b in (-3, 0, 2):
                want = IntPoly((b * b + a * a, -2 * b, 1))  # (X-b)^2 + a^2
                assert CyclotomicShift(4, a, b).min_poly == want

    def test_scaled_cube_root(self):
        assert CyclotomicShift(3, 2, 0).min_poly == IntPoly((4, 2, 1))

    def test_monic_of_right_degree(self):
        for m in (3, 5, 8, 12, 15):
            poly = CyclotomicShift(m, 3, -2).min_poly
            assert poly.degree == euler_phi(m)
            assert poly.leading == 1

    def test_vanishes_at_generator(self):
        for m in (3, 4, 5, 7, 9, 12):
            for a, b in ((1, 0), (2, -3), (-1, 5), (3, 1)):
                poly = CyclotomicShift(m, a, b).min_poly
                vec = evaluate_at_cyclotomic(poly, m, a, b)
                assert not any(vec)

    def test_matches_the_power_sum_oracle(self):
        for m in range(3, 61):
            for a in SHIFT_SCALES:
                for b in range(-5, 6):
                    c = CyclotomicShift(m, a, b)
                    assert c.min_poly == min_poly_by_powers(c), c

    def test_large_level_within_budget(self):
        # phi(2003) = 2002 Horner steps; the sum of a**(phi - j) * (X - b)**j
        # over the powers of X - b took 5.9 s (2-vCPU Xeon).
        start = time.perf_counter()
        poly = CyclotomicShift(2003, 2, 3).min_poly
        assert time.perf_counter() - start < 2.5
        assert poly.degree == 2002 and poly.leading == 1


class TestMinPolyQuadraticShift:
    def test_gaussian(self):
        for a in (1, 2, -3):
            for b in (0, 4, -1):
                assert QuadraticShift(-1, a, b).min_poly == IntPoly(
                    (b * b + a * a, -2 * b, 1)
                )

    def test_golden_ratio(self):
        assert QuadraticShift(5, 1, 0).min_poly == IntPoly((-1, -1, 1))

    def test_shifted_sqrt2(self):
        assert QuadraticShift(2, 3, 1).min_poly == IntPoly((-17, -2, 1))

    def test_vanishes_at_generator(self):
        for D in (-1, -2, -3, 2, 3, 5, -7, 13, -11):
            for a, b in ((1, 0), (2, -3), (-3, 1)):
                poly = QuadraticShift(D, a, b).min_poly
                assert evaluate_at_quadratic(poly, D, a, b) == (0, 0)

    def test_matches_the_closed_forms(self):
        for D in (-17, -3, -2, -1, 2, 3, 5, 13, 409):
            for a in SHIFT_SCALES:
                for b in range(-5, 6):
                    c = QuadraticShift(D, a, b)
                    assert c.min_poly == min_poly_by_powers(c), c

    def test_rejects_bad_d(self):
        for D in (0, 1, 4, 18):
            with pytest.raises(DomainError):
                QuadraticShift(D, 1, 0).min_poly


class TestCandidates:
    def test_inputs_checked_once(self, monkeypatch):
        calls = []
        squarefree = arith.is_squarefree
        monkeypatch.setattr(arith, "is_squarefree", lambda n: calls.append(n) or squarefree(n))
        assert QuadraticShift(-17, 2, 1).min_poly == IntPoly((69, -2, 1))
        assert calls == [-17]
        # Reading the minimal polynomial goes through the class's checks and messages.
        degenerate = "^a = 0 degenerates to a rational integer$"
        for build, args, message in (
            (QuadraticShift, (4, 1, 0), "^D must be squarefree, got 4$"),
            (QuadraticShift, (-1, 0, 3), degenerate),
            (CyclotomicShift, (2, 1, 0), "^cyclotomic shifts require m >= 3, got 2$"),
            (CyclotomicShift, (5, 0, 3), degenerate),
        ):
            with pytest.raises(DomainError, match=message):
                build(*args).min_poly

    def test_rejects_degenerate_a(self):
        with pytest.raises(DomainError):
            CyclotomicShift(5, 0, 3)
        with pytest.raises(DomainError):
            QuadraticShift(-1, 0, 3)

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            CyclotomicShift(2, 1, 0)

    def test_parse_round_trip(self):
        for text, kind in (
            ("cyc:12,2,5", CyclotomicShift),
            ("quad:5,3,7", QuadraticShift),
            ("gauss:2,1", QuadraticShift),
        ):
            c = parse_candidate(text)
            assert isinstance(c, kind)
            assert parse_candidate(c.spec_string()) == c

    def test_parse_rejects_garbage(self):
        for text in (
            "", "cyc:1,2", "quad:x,y,z", "poly:1,2,3", "gauss:1,2,3",
            "gauss", "quad:4,x,1", "quad:5,1,2,3", "cyc:5:3,1,2",
        ):
            with pytest.raises(DomainError, match="^malformed candidate .*; expected cyc:m,a,b"):
                parse_candidate(text)
        for kind in ("", "gauss:", "gauss:-1", "quad", "quad:5,1", "cyc:x", "poly:3"):
            with pytest.raises(DomainError, match="^unknown grid kind .*; expected gauss \\|"):
                candidate_family(kind)

    def test_quadratic_d_is_capped(self):
        for D in (999999937, -999999937, 999999929):  # primes below 10**9
            assert QuadraticShift(D, 1, 0).D == D
        refusal = "^\\|D\\| is at most 1000000000 \\(trial-division cap\\)"
        for D in (10**9 + 7, -(10**9 + 7), 10**20 + 1):
            with pytest.raises(DomainError, match=refusal):
                candidate_family(f"quad:{D}")
            with pytest.raises(DomainError, match=refusal):
                QuadraticShift(D, 1, 0).min_poly

    def test_invalid_field_keeps_the_class_message(self):
        # A well-formed spec or kind with a bad D, m or a is not "malformed".
        for text, message in (
            ("quad:4,1,0", "D must be squarefree"),
            ("quad:1,1,0", "D must avoid 0 and 1"),
            ("cyc:2,1,0", "m >= 3"),
            ("quad:5,0,1", "a = 0 degenerates"),
            ("gauss:0,1", "a = 0 degenerates"),
        ):
            with pytest.raises(DomainError, match=message):
                parse_candidate(text)
        for kind, message in (("quad:-4", "D must be squarefree"), ("cyc:1", "m >= 3")):
            with pytest.raises(DomainError, match=message):
                candidate_family(kind)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from(("gauss", "quad", "cyc")),
        param=st.integers(-40, 40),
        a=st.integers(-50, 50).filter(bool),
        b=st.integers(-50, 50),
    )
    def test_spec_is_a_family_then_a_b(self, head, param, a, b):
        kind = head if head == "gauss" else f"{head}:{param}"
        spec = f"{kind}{':' if head == 'gauss' else ','}{a},{b}"
        try:
            expected = candidate_family(kind)(a, b)
        except DomainError as exc:
            with pytest.raises(DomainError) as parsed:
                parse_candidate(spec)
            assert str(parsed.value) == str(exc)
        else:
            assert parse_candidate(spec) == expected
            assert parse_candidate(expected.spec_string()) == expected

    def test_a_family_factors_its_level_once(self, monkeypatch):
        calls, factorization = [], arith._factorization
        monkeypatch.setattr(arith, "_factorization",
                            lambda n: calls.append(n) or factorization(n))
        make = candidate_family("cyc:15")
        family = [make(a, b) for a in (-2, 1, 3) for b in (-1, 0, 4)]
        assert [(c.level_primes, c.degree) for c in family] == [((3, 5), 8)] * 9
        assert calls == [15]
        # The held factorization is no field: the candidate is the one spelled out.
        for c in family:
            twin = CyclotomicShift(15, c.a, c.b)
            assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
            assert c.to_json_dict() == twin.to_json_dict()
            assert pickle.loads(pickle.dumps(c)) == twin
        assert calls == [15]

    def test_min_poly_cached_and_consistent(self):
        c = CyclotomicShift(12, 2, 5)
        assert c.min_poly is c.min_poly
        assert c.min_poly == CyclotomicShift(12, 2, 5).min_poly


class TestIndex:
    def test_examples(self):
        assert CyclotomicShift(12, 2, 5).index == 64
        assert QuadraticShift(5, 3, 7).index == 3
        assert CyclotomicShift(9, 1, 4).index == 1
        assert CyclotomicShift(9, -1, 4).index == 1

    def test_determinant_examples(self):
        assert index_via_determinant(4, 5, 3) == 5
        assert index_via_determinant(3, 1, 0) == 1
        assert index_via_determinant(12, 2, 5) == 64

    def test_determinant_matches_closed_form_on_grid(self):
        for m in range(3, 21):
            phi = euler_phi(m)
            for a in list(range(-5, 0)) + list(range(1, 6)):
                want = abs(a) ** (phi * (phi - 1) // 2)
                for b in range(-5, 6):
                    assert index_via_determinant(m, a, b) == want


class TestRamifies:
    def test_quadratic_examples(self):
        assert ramifies(QuadraticShift(5, 1, 2), 2) is False
        assert ramifies(QuadraticShift(-1, 1, 0), 7) is False
        assert ramifies(QuadraticShift(-1, 1, 0), 2) is True
        assert ramifies(QuadraticShift(15, 1, 0), 5) is True

    def test_cyclotomic_examples(self):
        assert ramifies(CyclotomicShift(12, 1, 0), 3) is True
        assert ramifies(CyclotomicShift(12, 1, 0), 2) is True
        assert ramifies(CyclotomicShift(5, 1, 0), 3) is False

    def test_level_twice_odd_is_unramified_at_2(self):
        # level 6 generates the same field as level 3, where 2 is inert
        assert ramifies(CyclotomicShift(6, 1, 0), 2) is False
        report = dedekind_kummer_split(CyclotomicShift(6, 1, 0), 2)
        assert report.applicable and all(e == 1 for _, e, _ in report.entries)


class TestDedekindKummer:
    def test_gaussian_shift_inert_at_7(self):
        report = dedekind_kummer_split(CyclotomicShift(4, 3, 2), 7)
        assert report.applicable
        assert [(e, f) for _, e, f in report.entries] == [(1, 2)]
        assert report.ramified is False

    def test_inapplicable_when_p_divides_index(self):
        report = dedekind_kummer_split(QuadraticShift(5, 3, 1), 3)
        assert report.applicable is False
        assert report.entries == ()
        assert report.factorization is None

    def test_applicability_never_reads_the_index(self, monkeypatch):
        # p divides the index |a|**(d(d-1)/2), d >= 2, exactly when p divides a.
        cases = [(CyclotomicShift(12, 10, 3), p) for p in (2, 3, 5, 7)]
        cases += [(QuadraticShift(5, 10, 1), p) for p in (2, 3, 5, 7)]
        want = [dedekind_kummer_split(c, p) for c, p in cases]
        assert [r.applicable for r in want] == [False, True, False, True] * 2

        def unread(c):
            raise AssertionError("the index was read")

        for cls in (CyclotomicShift, QuadraticShift):
            monkeypatch.setattr(cls, "index", property(unread))
        assert [dedekind_kummer_split(c, p) for c, p in cases] == want

    def test_ramified_cube_root_at_3(self):
        report = dedekind_kummer_split(CyclotomicShift(3, 1, 0), 3)
        assert report.applicable and report.ramified
        assert [(e, f) for _, e, f in report.entries] == [(2, 1)]

    def test_sum_e_f_equals_degree(self):
        rng = random.Random(42)
        for _ in range(80):
            if rng.random() < 0.5:
                c = CyclotomicShift(rng.randint(3, 16), rng.choice((1, 2, 3, -1, -2)), rng.randint(-4, 4))
            else:
                D = rng.choice((-1, -2, -3, 2, 3, 5, 6, 7, -7, 13, 15))
                c = QuadraticShift(D, rng.choice((1, 2, 3, -1, -2)), rng.randint(-4, 4))
            p = rng.choice((2, 3, 5, 7, 11, 13))
            report = dedekind_kummer_split(c, p)
            if report.applicable:
                assert sum(e * f for _, e, f in report.entries) == c.degree

    def test_ramified_flag_matches_multiplicities(self):
        rng = random.Random(9)
        for _ in range(80):
            if rng.random() < 0.5:
                c = CyclotomicShift(rng.randint(3, 14), rng.choice((1, 3, -1)), rng.randint(-3, 3))
            else:
                c = QuadraticShift(rng.choice((-1, -2, -3, 2, 3, 5, -7, 13)), rng.choice((1, 3, -1)), rng.randint(-3, 3))
            p = rng.choice((2, 3, 5, 7, 11))
            report = dedekind_kummer_split(c, p)
            if report.applicable:
                assert report.ramified == any(e > 1 for _, e, _ in report.entries)

    def test_unramified_cyclotomic_inertia_consistency(self):
        for m in range(3, 15):
            for p in (2, 3, 5, 7, 11):
                if m % p == 0:
                    continue
                for a in (1, 2, 3):
                    if a % p == 0:
                        continue
                    report = dedekind_kummer_split(CyclotomicShift(m, a, 1), p)
                    assert report.applicable
                    want_f = inertia_degree_cyclotomic(p, m)
                    assert all(e == 1 for _, e, _ in report.entries)
                    assert all(f == want_f for _, _, f in report.entries)

    def test_galois_uniformity_for_cyclotomic(self):
        rng = random.Random(77)
        for _ in range(40):
            c = CyclotomicShift(rng.randint(3, 16), rng.choice((1, 2, -3)), rng.randint(-3, 3))
            p = rng.choice((2, 3, 5, 7, 11, 13))
            report = dedekind_kummer_split(c, p)
            if report.applicable:
                assert len({e for _, e, _ in report.entries}) == 1
                assert len({f for _, _, f in report.entries}) == 1

    def test_quadratic_trichotomy_matches_legendre(self):
        for D in range(-30, 31):
            if D in (0, 1):
                continue
            try:
                c = QuadraticShift(D, 1, 0)
            except DomainError:
                continue  # not squarefree
            for p in primes_up_to(30):
                if p == 2 or (2 * c.a * D) % p == 0:
                    continue
                report = dedekind_kummer_split(c, p)
                assert report.applicable
                ls = legendre_symbol(D, p)
                shape = sorted((e, f) for _, e, f in report.entries)
                if ls == 1:
                    assert shape == [(1, 1), (1, 1)]
                elif ls == -1:
                    assert shape == [(1, 2)]
                else:
                    assert shape == [(2, 1)]

    def test_json_shape(self):
        doc = dedekind_kummer_split(CyclotomicShift(4, 3, 0), 7).to_json_dict(5)
        assert doc["applicable"] is True
        assert doc["p"] == 7
        assert doc["e"] == [1] and doc["f"] == [2]
        assert doc["factorization"]["seed"] == 5
        inapp = dedekind_kummer_split(QuadraticShift(5, 3, 1), 3).to_json_dict(0)
        assert inapp["applicable"] is False and "factorization" not in inapp
