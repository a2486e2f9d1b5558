"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them live).  The exact criteria compare rationals with ``==``; the
numeric criteria use the stated tolerances, pinned here.
"""

import io
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

from hypcert.cli import run
from hypcert.hyper_series import HypSeries, classify, eval_exact, eval_numeric, pochhammer
from hypcert.sesma_identity import rewrite, sesma_ratio, sweep
from hypcert.term_recognize import recognize
from hypcert.whipple import WhippleMatch, log_gamma, rhs_exact_terminating, rhs_numeric


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def whipple_series(m: WhippleMatch) -> HypSeries:
    return HypSeries(
        upper=(m.a, 1 + m.a / 2, m.b, m.c),
        lower=(m.a / 2, m.a - m.b + 1, m.a - m.c + 1),
        z=Fraction(-1),
    )


def random_whipple_matches(count: int, seed: int) -> list[WhippleMatch]:
    """Terminating triples: a = p/q with q in {1,2,4} and 1 <= a <= 20,
    b = -M with 0 <= M <= 12, c rational with a - c + 1 > 0."""
    rng = random.Random(seed)
    matches = []
    for _ in range(count):
        q = rng.choice([1, 2, 4])
        a = Fraction(rng.randint(q, 20 * q), q)
        shift = rng.randint(0, 12)
        cq = rng.choice([1, 2, 4])
        c_max_num = math.ceil((a + 1) * cq) - 1
        c = Fraction(rng.randint(c_max_num - 30 * cq, c_max_num), cq)
        matches.append(WhippleMatch(a=a, b=Fraction(-shift), c=c))
    return matches


def random_terminating_series(count: int, seed: int) -> list[HypSeries]:
    """Random terminating pFq with p <= 4, q <= 3, termination index <= 12,
    parameter numerators bounded by 20 and denominators by 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n_term = rng.randint(0, 12)
        p = rng.randint(1, 4)
        q = rng.randint(0, 3)
        upper = [Fraction(-n_term)]
        for _ in range(p - 1):
            upper.append(Fraction(rng.randint(-20, 20), rng.randint(1, 4)))
        lower = []
        while len(lower) < q:
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            if b.denominator == 1 and b <= 0:
                continue  # avoid poles: keep every instance well-posed
            lower.append(b)
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        out.append(HypSeries(upper, lower, z))
    return out


def test_criterion_1_identity_sweep():
    """All 45,451 reports up to k = 300 must certify exactly."""
    started = time.perf_counter()
    reports = sweep(300, jobs=2)
    elapsed = time.perf_counter() - started
    count_ok = len(reports) == 45_451
    order_ok = [(r.k, r.m) for r in reports] == [
        (k, m) for k in range(301) for m in range(k + 1)
    ]
    exact_ok = all(
        r.direct == 1 and r.via_series == 1 and r.via_whipple == 1 for r in reports
    )
    ok = count_ok and order_ok and exact_ok
    _line(
        "criterion 1 (identity sweep to k=300)",
        ok,
        f"{len(reports)} reports, exact agreement={exact_ok}, {elapsed:.1f}s",
    )
    assert count_ok, f"expected 45451 reports, got {len(reports)}"
    assert order_ok, "reports not in lexicographic (k, m) order"
    assert exact_ok, "some pathway disagreed with 1"


def test_criterion_2_derivation_chain():
    """recognize(term ratio) must equal the closed-form rewrite, reduced."""
    rng = random.Random(9241)
    pairs = []
    while len(pairs) < 50:
        k = rng.randint(0, 100)
        m = rng.randint(0, k)
        pairs.append((k, m))
    failures = []
    for k, m in pairs:
        recognized = recognize(sesma_ratio(k, m))
        target = rewrite(k, m)
        upper, lower = Counter(target.series.upper), Counter(target.series.lower)
        same = (
            recognized.prefactor == target.prefactor
            and recognized.series.z == target.series.z == -1
            and Counter(recognized.series.upper) == upper - lower
            and Counter(recognized.series.lower) == lower - upper
        )
        if not same:
            failures.append((k, m))
    _line(
        "criterion 2 (derivation-chain reproduction)",
        not failures,
        f"50 random (k, m) with k <= 100, mismatches={failures}",
    )
    assert not failures


def test_criterion_3_whipple_exact_regime():
    """Series sum and terminating closed form must agree exactly."""
    matches = random_whipple_matches(500, seed=60317)
    failures = 0
    for m in matches:
        if eval_exact(whipple_series(m)) != rhs_exact_terminating(m):
            failures += 1
    _line(
        "criterion 3 (Whipple exact regime)",
        failures == 0,
        f"500 terminating triples, mismatches={failures}",
    )
    assert failures == 0


def test_criterion_4_gamma_cross_check():
    """log-gamma pathway within 1e-9 of exact; log_gamma matches ln(n!)."""
    matches = random_whipple_matches(500, seed=60317)
    checked = 0
    worst = 0.0
    for m in matches:
        args = (m.a - m.b + 1, m.a - m.c + 1, m.a + 1, m.a - m.b - m.c + 1)
        if any(arg <= 0 for arg in args):
            continue
        exact = rhs_exact_terminating(m)
        value = float(exact)
        if not math.isfinite(value):
            continue
        numeric = rhs_numeric(m)
        error = abs(numeric - value) / max(1.0, abs(value))
        worst = max(worst, error)
        checked += 1
    gamma_ok = worst <= 1e-9

    factorial_worst = 0.0
    for n in range(1, 151):
        expected = math.log(math.factorial(n))
        error = abs(log_gamma(n + 1.0) - expected) / max(1.0, abs(expected))
        factorial_worst = max(factorial_worst, error)
    factorial_ok = factorial_worst <= 1e-12

    ok = gamma_ok and factorial_ok
    _line(
        "criterion 4 (Gamma cross-check)",
        ok,
        f"{checked} triples, worst rel {worst:.2e} (<=1e-9); "
        f"ln(n!) worst rel {factorial_worst:.2e} (<=1e-12)",
    )
    assert gamma_ok
    assert factorial_ok


def test_criterion_5_series_engine_oracle():
    """eval_exact equals the independent Pochhammer-product oracle."""
    cases = random_terminating_series(1000, seed=40196)
    exact_failures = 0
    numeric_failures = 0
    numeric_checked = 0
    for s in cases:
        n_terms = classify(s).index
        oracle = Fraction(0)
        for n in range(n_terms + 1):
            term = Fraction(s.z) ** n / math.factorial(n)
            for a in s.upper:
                term *= pochhammer(a, n)
            for b in s.lower:
                term /= pochhammer(b, n)
            oracle += term
        exact = eval_exact(s)
        if exact != oracle:
            exact_failures += 1
            continue
        value = float(exact)
        numeric = eval_numeric(s, 1e-12)
        if not (math.isfinite(value) and math.isfinite(numeric)):
            continue  # outside double range; exact path already checked
        numeric_checked += 1
        if abs(numeric - value) > 1e-10 * max(1.0, abs(value)):
            numeric_failures += 1
    ok = exact_failures == 0 and numeric_failures == 0
    _line(
        "criterion 5 (series-engine oracle)",
        ok,
        f"1000 series: exact mismatches={exact_failures}, "
        f"numeric mismatches={numeric_failures}/{numeric_checked} checked",
    )
    assert exact_failures == 0
    assert numeric_failures == 0


def test_criterion_6_determinism():
    """sweep --max-k 50 --format json is byte-identical across runs and jobs."""
    outputs = []
    for argv in (
        ["sweep", "--max-k", "50", "--format", "json"],
        ["sweep", "--max-k", "50", "--format", "json"],
        ["sweep", "--max-k", "50", "--format", "json", "--jobs", "2"],
    ):
        buffer = io.StringIO()
        code = run(argv, stdout=buffer, stderr=io.StringIO())
        assert code == 0
        outputs.append(buffer.getvalue())
    identical = outputs[0] == outputs[1] == outputs[2]
    round_trip = json.dumps(json.loads(outputs[0]), indent=2) + "\n" == outputs[0]
    ok = identical and round_trip
    _line(
        "criterion 6 (determinism)",
        ok,
        f"three runs byte-identical={identical}, json round-trip={round_trip}",
    )
    assert identical
    assert round_trip
