import concurrent.futures
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypcert import hyper_series, sesma_identity
from hypcert.errors import TermBudgetExceeded
from hypcert.hyper_series import eval_exact, pochhammer
from hypcert.sesma_identity import (
    IdentityReport,
    lhs_sum,
    lhs_term,
    rewrite,
    sesma_ratio,
    sweep,
    verify,
)
from hypcert.term_recognize import recognize, term_at
from hypcert.whipple import WhippleMatch, match_whipple

from oracles import series_term

# pairs across the triangle up to (300, 300): both edges, the middle, the top row
SPOT_PAIRS = [
    (0, 0), (1, 1), (80, 37), (120, 120), (151, 150), (200, 3),
    (300, 0), (300, 1), (300, 150), (300, 299), (300, 300),
]


class TestLhsTerm:
    def test_all_factors_one(self):
        assert lhs_term(0, 0, 0) == 1

    def test_small_values(self):
        assert lhs_term(2, 1, 0) == Fraction(1, 2)
        assert lhs_term(2, 1, 1) == Fraction(1, 2)
        assert lhs_term(5, 1, 0) == Fraction(5, 7)
        assert lhs_term(5, 1, 1) == Fraction(2, 7)

    def test_rejects_k_below_m(self):
        with pytest.raises(ValueError):
            lhs_term(1, 2, 0)

    def test_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            lhs_term(3, 2, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lhs_term(3, -1, 0)
        with pytest.raises(ValueError):
            lhs_term(3, 2, -1)


class TestLhsSum:
    @pytest.mark.parametrize("k,m", [(0, 0), (2, 1), (5, 1)])
    def test_known_instances(self, k, m):
        assert lhs_sum(k, m) == 1

    def test_matches_naive_summation(self):
        for k in range(26):
            for m in range(k + 1):
                naive = sum(lhs_term(k, m, n) for n in range(m + 1))
                assert lhs_sum(k, m) == naive == 1

    def test_larger_spot_checks(self):
        for k, m in SPOT_PAIRS:
            naive = sum(lhs_term(k, m, n) for n in range(m + 1))
            assert lhs_sum(k, m) == naive == 1

    def test_rejects_k_below_m(self):
        with pytest.raises(ValueError):
            lhs_sum(1, 2)

    @pytest.mark.parametrize("k,m", [(0, 0), (5, 0), (7, 3), (40, 17), (150, 150)])
    def test_nested_loop_takes_m_steps(self, monkeypatch, k, m):
        # a loop started past n = m - 1 gives the same value, because its
        # factor m - n is zero at n = m; only the number of steps shows it
        lengths = []

        def counted_range(*args):
            steps = range(*args)
            lengths.append(len(steps))
            return steps

        monkeypatch.setattr(sesma_identity, "range", counted_range, raising=False)
        assert lhs_sum(k, m) == 1
        assert lengths == [m]


class TestSesmaRatio:
    def test_ratio_values(self):
        r = sesma_ratio(2, 1)
        assert Fraction(r.num(0), r.den(0)) == 1
        assert r.t0 == Fraction(1, 2)

        r = sesma_ratio(5, 1)
        assert Fraction(r.num(0), r.den(0)) == Fraction(2, 5)
        assert r.t0 == Fraction(5, 7)

    def test_m_zero_terminates_immediately(self):
        r = sesma_ratio(3, 0)
        assert r.num(0) == 0
        assert r.t0 == 1

    def test_terms_match_lhs(self):
        for k in range(14):
            for m in range(k + 1):
                r = sesma_ratio(k, m)
                for n in range(m + 1):
                    assert term_at(r, n) == lhs_term(k, m, n)

    def test_rejects_k_below_m(self):
        with pytest.raises(ValueError):
            sesma_ratio(0, 1)


class TestRewrite:
    def test_small_instance(self):
        got = rewrite(2, 1)
        assert got.prefactor == Fraction(1, 2)
        assert sorted(got.series.upper) == [-1, 2, Fraction(5, 2), 3]
        assert sorted(got.series.lower) == [Fraction(3, 2), 2, 5]
        assert got.series.z == -1

    def test_k5_instance(self):
        got = rewrite(5, 1)
        assert got.prefactor == Fraction(5, 7)
        assert sorted(got.series.upper) == [-1, 2, 4, 6]
        assert sorted(got.series.lower) == [3, 5, 8]

    def test_trivial_instance(self):
        got = rewrite(0, 0)
        assert got.prefactor == 1
        assert sorted(got.series.upper) == [0, 1, 1, Fraction(3, 2)]
        assert sorted(got.series.lower) == [Fraction(1, 2), 1, 2]
        assert eval_exact(got.series) == 1

    def test_prefactor_is_initial_term(self):
        pairs = [(k, m) for k in range(16) for m in range(k + 1)] + SPOT_PAIRS
        for k, m in pairs:
            assert rewrite(k, m).prefactor == lhs_term(k, m, 0)


def reduced(series) -> tuple[Counter, Counter]:
    """The parameter multisets of a series with the values shared by both
    lists cancelled."""
    upper, lower = Counter(series.upper), Counter(series.lower)
    return upper - lower, lower - upper


class TestDerivationChain:
    @pytest.mark.parametrize("k,m", [(2, 1), (5, 1), (0, 0), (4, 2), (6, 3), (7, 3), (9, 4)])
    def test_recognize_matches_rewrite_reduced(self, k, m):
        recognized = recognize(sesma_ratio(k, m))
        upper, lower = reduced(rewrite(k, m).series)
        assert recognized.prefactor == rewrite(k, m).prefactor
        assert recognized.series.z == rewrite(k, m).series.z == -1
        assert Counter(recognized.series.upper) == upper
        assert Counter(recognized.series.lower) == lower

    def test_collision_cases(self):
        # k = 2m merges m+1 with k-m+1; k = 2m+1 merges two pairs; m = 0
        # merges k+1 across the lists; all must reduce identically
        for k, m in [(4, 2), (8, 4), (5, 2), (9, 4), (6, 0), (1, 1), (3, 1), (1, 0)]:
            recognized = recognize(sesma_ratio(k, m))
            upper, lower = reduced(rewrite(k, m).series)
            assert Counter(recognized.series.upper) == upper
            assert Counter(recognized.series.lower) == lower

    def test_series_terms_match_binomial_terms(self):
        # both the closed-form rewrite and the recognized ratio, termwise
        for k, m in [(2, 1), (5, 1), (6, 3), (8, 4), (7, 0)]:
            for prefactored in (rewrite(k, m), recognize(sesma_ratio(k, m))):
                for n in range(m + 1):
                    assert series_term(prefactored.prefactor, prefactored.series, n) == lhs_term(k, m, n)


class TestWhipplePathway:
    def test_match_is_the_expected_substitution(self):
        for k in range(12):
            for m in range(k + 1):
                match = match_whipple(rewrite(k, m).series)
                assert match is not None
                assert (match.a, match.b, match.c) == (k + 1, -m, m + 1)

    def test_prefactor_times_closed_form_is_one(self):
        for k in range(20):
            for m in range(k + 1):
                lhs = (
                    pochhammer(Fraction(k + 2), m)
                    / pochhammer(Fraction(k - m + 1), m)
                    * Fraction(
                        math.factorial(k + 1) * math.factorial(k),
                        math.factorial(k - m) * math.factorial(k + m + 1),
                    )
                )
                assert lhs == 1


class TestVerify:
    @pytest.mark.parametrize("k,m", [(2, 1), (5, 1), (0, 0)])
    def test_examples(self, k, m):
        report = verify(k, m)
        assert report.direct == 1
        assert report.via_series == 1
        assert report.via_whipple == 1
        assert report.all_equal_one

    def test_report_fields(self):
        report = verify(5, 1)
        assert isinstance(report, IdentityReport)
        assert (report.k, report.m) == (5, 1)

    def test_rejects_k_below_m(self):
        with pytest.raises(ValueError):
            verify(1, 2)

    def test_m_over_the_budget_refused_before_any_pathway(self, monkeypatch):
        calls = []
        real_lhs_sum = sesma_identity.lhs_sum

        def recording_lhs_sum(k, m):
            calls.append((k, m))
            return real_lhs_sum(k, m)

        monkeypatch.setattr(sesma_identity, "lhs_sum", recording_lhs_sum)
        monkeypatch.setattr(hyper_series, "DEFAULT_MAX_TERMS", 3)
        assert verify(3, 3).all_equal_one
        with pytest.raises(TermBudgetExceeded, match="m = 4 is over the budget of 3 steps"):
            verify(4, 4)
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("match", [None, WhippleMatch(Fraction(6), Fraction(-1), Fraction(3))])
    def test_unexpected_whipple_match_fails_that_pathway_only(self, monkeypatch, match):
        monkeypatch.setattr(sesma_identity, "match_whipple", lambda series: match)
        report = verify(5, 2)
        assert (report.direct, report.via_series) == (1, 1)
        assert report.via_whipple == f"error: matched {match}, expected (a, b, c) = (6, -2, 3)"
        assert not report.all_equal_one


class TestSweep:
    def test_single_report(self):
        reports = sweep(0)
        assert len(reports) == 1
        assert reports[0].all_equal_one

    def test_k_max_two(self):
        reports = sweep(2)
        assert len(reports) == 6
        assert all(r.all_equal_one for r in reports)

    def test_lexicographic_order(self):
        reports = sweep(4)
        assert [(r.k, r.m) for r in reports] == [
            (k, m) for k in range(5) for m in range(k + 1)
        ]

    def test_parallel_matches_serial(self):
        serial = sweep(8, jobs=1)
        parallel = sweep(8, jobs=2)
        assert serial == parallel

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sweep(-1)

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            sweep(3, jobs=jobs)

    def test_real_budget_admits_k_445_and_refuses_446(self, monkeypatch):
        # a stand-in verify keeps the 99,681 pairs of k_max = 445 cheap
        monkeypatch.setattr(sesma_identity, "verify", lambda k, m: (k, m))
        assert len(sweep(445)) == 99_681
        with pytest.raises(TermBudgetExceeded, match="^pair count = 100128 is over the budget of 100000 steps$"):
            sweep(446)

    def test_jobs_clamped_to_cpus_and_rows(self, monkeypatch):
        # the pool is replaced before any large job count is requested,
        # so this test starts no process
        requested = []
        mapped = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, **kwargs):
                mapped.append((items, kwargs))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # raising=False: where the OS has no affinity call, the patch adds one
        monkeypatch.setattr(sesma_identity.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        serial = sweep(3)
        assert sweep(3, jobs=10**6) == serial
        assert sweep(1, jobs=10**6) == sweep(1)
        assert requested == [4, 2]
        # one task per k-row, with no chunk size
        assert mapped == [(range(4), {}), (range(2), {})]
        # without an affinity call, the machine's CPU count, or 1 if unknown
        monkeypatch.delattr(sesma_identity.os, "sched_getaffinity")
        monkeypatch.setattr(sesma_identity.os, "cpu_count", lambda: None)
        assert sweep(3, jobs=8) == serial
        assert requested == [4, 2]

    def test_jobs_clamped_to_the_cpus_the_process_may_run_on(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built for one usable CPU")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sesma_identity.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(sesma_identity.os, "cpu_count", lambda: 8)
        assert len(sweep(5, jobs=4)) == 21


class TestContainedFailure:
    @pytest.mark.parametrize(
        "pathway,slots",
        [
            ("lhs_sum", {"direct"}),
            ("rewrite", {"via_series", "via_whipple"}),
            ("eval_exact", {"via_series"}),
            ("match_whipple", {"via_whipple"}),
            ("rhs_exact_terminating", {"via_whipple"}),
        ],
    )
    def test_raising_pathway_fills_its_slots(self, monkeypatch, pathway, slots):
        def failing(*args):
            raise ArithmeticError("injected")

        monkeypatch.setattr(sesma_identity, pathway, failing)
        report = verify(5, 2)
        for slot in ("direct", "via_series", "via_whipple"):
            assert getattr(report, slot) == ("error: injected" if slot in slots else Fraction(1))
        assert not report.all_equal_one

    def test_rewrite_runs_once_per_pair(self, monkeypatch):
        calls = []

        def recording(k, m):
            calls.append((k, m))
            return rewrite(k, m)

        monkeypatch.setattr(sesma_identity, "rewrite", recording)
        assert verify(5, 2).all_equal_one
        assert calls == [(5, 2)]

    def test_report_with_an_error_survives_pickle(self):
        report = IdentityReport(3, 1, "error: injected", Fraction(1), Fraction(1))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(report, protocol=protocol))
            assert type(back) is IdentityReport
            assert back == report
            assert back.direct == "error: injected"
            assert not back.all_equal_one
