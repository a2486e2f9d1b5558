"""Seeded workload inputs and the answers they must produce.

Every expected answer here is built from how the input was made, with
plain ``fractions.Fraction`` arithmetic and no call into ``hypcert``, so a
defect in the program cannot also hide in its reference.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

MAX_K = 150
# Largest constant coefficient of a generated recognize numerator: the seed
# code finds divisors by trial division up to its square root, so this keeps
# one call well under a second.
MAX_CONSTANT_BITS = 30
WIDE_CONSTANT_BITS = 20

WORKLOADS = {
    "sweep-serial": {"kind": "sweep", "jobs": 1},
    "sweep-jobs2": {"kind": "sweep", "jobs": 2},
    "single-calls": {"kind": "calls", "jobs": 1},
}

# Commands per pass of single-calls, by kind.
MIX = {
    "verify": 450,
    "eval": 375,
    "recognize": 300,
    "recognize-sesma": 75,
    "whipple": 225,
    "reject-recognize": 25,
    "reject-eval": 25,
    "reject-whipple": 25,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def jobs_for(workload: str, cpus: int) -> int:
    """Worker processes a workload may ask for: never more than the CPUs."""
    return max(1, min(WORKLOADS[workload]["jobs"], cpus))


def row_ks(max_k: int) -> list[int]:
    """The four k-rows whose cost the traced sweep reports, ending at K."""
    return [max_k // 3, max_k // 2, 2 * max_k // 3, max_k]


# ---------------------------------------------------------------- sweeps


def sweep_argv(max_k: int, jobs: int) -> list[str]:
    argv = ["sweep", "--max-k", str(max_k), "--format", "json"]
    return argv + ["--jobs", str(jobs)] if jobs > 1 else argv


def expected_sweep_text(max_k: int) -> str:
    """The exact bytes ``sweep --format json`` prints when every pair passes."""
    rows = [_pass_row(k, m) for k in range(max_k + 1) for m in range(k + 1)]
    n = len(rows)
    doc = {
        "command": "sweep",
        "inputs": {"max_k": max_k},
        "results": rows,
        "summary": {"count": n, "passed": n, "all_pass": True, "line": f"{n}/{n} pass"},
    }
    return json.dumps(doc, indent=2) + "\n"


def _pass_row(k: int, m: int) -> dict:
    return {"k": k, "m": m, "direct": "1", "via_series": "1", "via_whipple": "1", "all_equal_one": True}


def sweep_failures(rc, text, max_k: int, expected: str) -> int:
    """Pairs of one sweep that failed: all of them if it crashed or its
    bytes differ from the all-pass document, else the rows that differ."""
    pairs = (max_k + 1) * (max_k + 2) // 2
    if rc != 0 or text is None:
        return pairs
    try:
        rows = json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return pairs
    want = [_pass_row(k, m) for k in range(max_k + 1) for m in range(k + 1)]
    bad = sum(1 for got, row in zip(rows, want) if got != row) + abs(len(want) - len(rows))
    if bad == 0 and text != expected:
        return pairs
    return min(bad, pairs)


# ---------------------------------------------------------- single calls


@dataclass
class Call:
    kind: str
    argv: list[str]
    expect: dict


def _rat_list(values) -> str:
    return ",".join(str(v) for v in values)


def _poly(factors, scale: int = 1) -> list[int]:
    """Ascending integer coefficients of scale * prod(c0 + c1 n)."""
    coeffs = [scale]
    for c0, c1 in factors:
        out = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += c * c0
            out[i + 1] += c * c1
        coeffs = out
    return coeffs


def _factor(param: Fraction) -> tuple[int, int]:
    """The primitive linear factor (c0 + c1 n) whose root is -param."""
    return param.numerator, param.denominator


def recognized_form(upper_factors, lower_factors, scale: int = 1) -> dict:
    """What recognize must print for P = scale * prod(upper_factors) over
    Q = prod(lower_factors): each factor (c0 + c1 n) stands for the
    parameter c0/c1; shared parameters cancel, one lower 1 is the n! of the
    normal form (else an upper 1 is installed), and z is lead(P)/lead(Q)."""
    upper = sorted(Fraction(c0, c1) for c0, c1 in upper_factors)
    lower = sorted(Fraction(c0, c1) for c0, c1 in lower_factors)
    for value in list(upper):
        if value in lower:
            upper.remove(value)
            lower.remove(value)
    if Fraction(1) in lower:
        lower.remove(Fraction(1))
    else:
        upper = sorted(upper + [Fraction(1)])
    z = Fraction(scale * math.prod(c1 for _, c1 in upper_factors), math.prod(c1 for _, c1 in lower_factors))
    return {"upper": [str(v) for v in upper], "lower": [str(v) for v in lower], "z": str(z)}


def reference_sum(upper, lower, z) -> Fraction:
    """Term-by-term exact sum of a terminating pFq (no pole before the end)."""
    stop = min(-a.numerator for a in upper if a.denominator == 1 and a <= 0)
    total = term = Fraction(1)
    for n in range(stop):
        term = term * math.prod(a + n for a in upper) * z / (math.prod(b + n for b in lower) * (n + 1))
        total += term
    return total


def whipple_decompositions(upper, lower) -> set:
    """Every (a, b, c) with upper = {a, 1+a/2, b, c}, lower = {a/2, a-b+1, a-c+1}."""
    found = set()
    for i, a in enumerate(upper):
        rest = list(upper[:i]) + list(upper[i + 1:])
        lows = list(lower)
        if 1 + a / 2 not in rest or a / 2 not in lows:
            continue
        rest.remove(1 + a / 2)
        lows.remove(a / 2)
        b, c = sorted(rest)
        if sorted([a - b + 1, a - c + 1]) == sorted(lows):
            found.add((a, b, c))
    return found


def _json(*argv) -> list[str]:
    return ["--format", "json", *argv]


def _verify_call(rng) -> Call:
    k = rng.randint(0, 40)
    m = rng.randint(0, k)
    return Call("verify", _json("verify", str(k), str(m)), {"k": k, "m": m})


def _eval_call(rng) -> Call:
    n = rng.randint(0, 60)
    upper = [Fraction(-n)] + [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
    lower = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]
    z = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
    rng.shuffle(upper)
    argv = _json("eval", f"--upper={_rat_list(upper)}", f"--lower={_rat_list(lower)}", f"--z={z}")
    return Call("eval", argv, {"value": str(reference_sum(upper, lower, z))})


def _recognize_argv(num, den, t0) -> list[str]:
    return _json("recognize", f"--num={_rat_list(num)}", f"--den={_rat_list(den)}", f"--t0={t0}")


def _product_call(rng, bits: int) -> Call:
    """P and Q as products of known linear factors; |P(0)| has about `bits` bits."""
    while True:
        count = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, bits), count - 1))
        widths = [b - a for a, b in zip([0] + cuts, cuts + [bits])]
        upper = [Fraction(rng.choice((-1, 1)) * rng.randrange(1 << (w - 1), 1 << w), rng.randint(1, 3)) for w in widths]
        lower = [Fraction(rng.randint(1, 64), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if Fraction(1) in upper or set(upper) & set(lower):
            continue  # keep P and Q coprime so no factor cancels
        scale = rng.choice((-1, 1))
        up = [_factor(a) for a in upper]
        low = [(1, 1)] + [_factor(b) for b in lower]
        num, den = _poly(up, scale), _poly(low)
        if abs(num[0]) >= 1 << MAX_CONSTANT_BITS:
            continue
        t0 = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        expect = recognized_form(up, low, scale)
        expect.update(prefactor=str(t0), constant_bits=abs(num[0]).bit_length(), family="product")
        return Call("recognize", _recognize_argv(num, den, t0), expect)


def _sesma_call(rng) -> Call:
    """The identity's own term ratio, written out from the paper's factors."""
    k = rng.randint(0, 300)
    m = rng.randint(0, min(k, 150))
    up = [(m, -1), (k + 1, 1), (m + 1, 1), (k + 3, 2)]
    low = [(1, 1), (k - m + 1, 1), (k + 1, 2), (m + k + 2, 1)]
    num, den = _poly(up), _poly(low)
    expect = recognized_form(up, low)
    t0 = Fraction(math.comb(k, m) * (k + 1), math.comb(k + m, m) * (k + m + 1))
    expect.update(prefactor=str(t0), constant_bits=abs(num[0]).bit_length(), family="sesma")
    return Call("recognize", _recognize_argv(num, den, t0), expect)


def _whipple_shape(rng):
    while True:
        a = Fraction(rng.randint(1, 60), rng.choice((1, 2, 3)))
        b = Fraction(-rng.randint(0, 20))
        c = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 5)))
        if c >= a + 1:
            continue  # keeps a-c+1 and every Gamma argument positive
        upper = [a, 1 + a / 2, b, c]
        lower = [a / 2, a - b + 1, a - c + 1]
        if whipple_decompositions(upper, lower) == {(a, b, c)}:
            rng.shuffle(upper)
            rng.shuffle(lower)
            return a, b, c, upper, lower


def _whipple_call(rng) -> Call:
    a, b, c, upper, lower = _whipple_shape(rng)
    exact = reference_sum(upper, lower, Fraction(-1))
    argv = _json("whipple", f"--upper={_rat_list(upper)}", f"--lower={_rat_list(lower)}", "--z=-1")
    return Call("whipple", argv, {"a": str(a), "b": str(b), "c": str(c), "exact": str(exact), "numeric": float(exact)})


def _reject_recognize(rng) -> Call:
    """A numerator with the irreducible factor n^2 + c."""
    n0, c = rng.randint(1, 40), rng.randint(1, 50)
    num = [c * n0, c, n0, 1]  # (n^2 + c)(n + n0)
    den = _poly([(1, 1), (rng.randint(2, 40), 1)])
    return Call("reject-recognize", _recognize_argv(num, den, 1), {"rc": 1})


def _reject_eval(rng) -> Call:
    upper = [Fraction(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    lower = [Fraction(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    argv = _json("eval", f"--upper={_rat_list(upper)}", f"--lower={_rat_list(lower)}", "--z=1/2")
    return Call("reject-eval", argv, {"rc": 1})


def _reject_whipple(rng) -> Call:
    while True:
        _, _, _, upper, lower = _whipple_shape(rng)
        lower[rng.randrange(3)] += Fraction(1, 7)
        if not whipple_decompositions(upper, lower):
            argv = _json("whipple", f"--upper={_rat_list(upper)}", f"--lower={_rat_list(lower)}", "--z=-1")
            return Call("reject-whipple", argv, {"rc": 1})


def make_calls(seed: int, index: int = 0) -> list[Call]:
    """Pass `index` of single-calls: MIX[kind] commands of each kind, shuffled.

    The recognize products cover constant bit lengths 6..30 in equal
    strata, so every pass has the same spread of wide coefficients.
    """
    rng = random.Random(seed * 1_000_003 + index)
    builders = {
        "verify": _verify_call,
        "eval": _eval_call,
        "recognize-sesma": _sesma_call,
        "whipple": _whipple_call,
        "reject-recognize": _reject_recognize,
        "reject-eval": _reject_eval,
        "reject-whipple": _reject_whipple,
    }
    calls = []
    for kind, count in MIX.items():
        for i in range(count):
            if kind == "recognize":
                bits = 6 + i * (MAX_CONSTANT_BITS - 5) // count
                calls.append(_product_call(rng, bits))
            else:
                calls.append(builders[kind](rng))
    rng.shuffle(calls)
    return calls


def call_failed(call: Call, rc, text) -> bool:
    """True when one command's exit code or document is wrong."""
    if "rc" in call.expect:
        return rc != call.expect["rc"]
    if rc != 0 or text is None:
        return True
    try:
        result = json.loads(text)["results"][0]
    except (ValueError, KeyError, IndexError, TypeError):
        return True
    want = call.expect
    if call.kind == "verify":
        return not (
            result.get("k") == want["k"]
            and result.get("m") == want["m"]
            and result.get("direct") == result.get("via_series") == result.get("via_whipple") == "1"
            and result.get("all_equal_one") is True
        )
    if call.kind == "eval":
        return result.get("value") != want["value"]
    if call.kind == "recognize":
        return any(result.get(key) != want[key] for key in ("prefactor", "upper", "lower", "z"))
    if call.kind == "whipple":
        numeric = result.get("numeric")
        if not isinstance(numeric, float) or abs(numeric - want["numeric"]) > 1e-9 * max(1.0, abs(want["numeric"])):
            return True
        return any(result.get(key) != want[key] for key in ("a", "b", "c", "exact"))
    return True


def mix_shares(calls: list[Call]) -> dict:
    """Share of each command kind, and of recognize inputs wider than 2^20."""
    shares = {kind: round(sum(1 for c in calls if c.kind == kind) / len(calls), 4) for kind in sorted({c.kind for c in calls})}
    widths = [c.expect["constant_bits"] for c in calls if c.kind == "recognize"]
    shares["recognize_constant_over_2^20"] = round(sum(1 for b in widths if b > WIDE_CONSTANT_BITS) / len(widths), 4)
    return shares
