"""hypcert benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload sweep-serial --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
Workloads (inputs come from ``--seed``; the sweeps' input is the full
triangle 0 <= m <= k <= K, so the seed does not change it):

* ``sweep-serial``: ``hypcert sweep --max-k K --format json`` at jobs 1;
* ``sweep-jobs2``: the same with ``--jobs 2`` (never more than the CPUs);
* ``single-calls``: a closed loop, one client, running a seeded list of
  verify / eval / recognize / whipple commands through ``cli.run``;
* ``all``: the three in turn, one table each.

Each repetition runs in a fresh process (``child.py``), one after another,
until ``--seconds`` have passed.  Every output is checked against an answer
built without the code under test (``workloads.py``); a wrong, missing or
timed-out output is a failed operation (a pair on the sweeps, a command on
single-calls).  With ``--trace 1`` traced and untraced repetitions
alternate, and the traced ones report self time per layer (``tracer.py``).

stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The exit code is 0 when every output was correct, 1 when some were not,
and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import Totals, loglog_slope  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
SELF_TIMES = (
    "sesma_identity.sweep",
    "sesma_identity.verify",
    "sesma_identity.lhs_sum",
    "sesma_identity.rewrite",
    "hyper_series.eval_exact",
    "whipple.match_whipple",
    "whipple.rhs_exact_terminating",
    "exact_arith.pochhammer",
    "term_recognize.recognize",
    "term_recognize.rational_roots",
    "term_recognize.poly_gcd",
)
LAYERS = ("sesma_identity", "hyper_series", "whipple", "term_recognize")
SETUP_PROBES = 3  # fresh import-only processes before the first repetition,
PROBES_PER_REP = 2  # and after each one, so set-up is sampled across the run
COMMAND_TIMEOUT_S = 2.0
# one repetition, and one import-only probe: a run that starts its last
# repetition just before --seconds 35 and then hangs still ends within 180 s
REP_TIMEOUT_S = 100.0
PROBE_TIMEOUT_S = 20.0


def per_layer_units(max_k: int) -> dict:
    units = {"trace.wall_s": "s", "trace.overhead_frac": "ratio", "trace.coverage": "ratio", "cli.self_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{name}.calls": "count" for name in ("sesma_identity.verify", "sesma_identity.lhs_sum", "hyper_series.eval_exact")})
    units["hyper_series.eval_exact.terms"] = "count"
    units.update({f"sesma_identity.row_s.k{k}": "s" for k in wl.row_ks(max_k)})
    units["sesma_identity.row_cost_exponent"] = "exponent"
    units["sesma_identity.sweep.pool_efficiency"] = "ratio"
    units["sesma_identity.sweep.pool_overhead_core_s"] = "s"
    return units


def layer_metrics(totals: Totals, wall: float, covered: float, jobs: int, is_sweep: bool) -> dict:
    """Per-layer numbers of one traced repetition."""
    m = {"trace.wall_s": wall, "trace.coverage": covered / wall, "cli.self_s": totals.seconds("cli.run")}
    m.update({f"{layer}.self_s": totals.layer_seconds(layer) for layer in LAYERS})
    m.update({f"{name}.self_s": totals.seconds(name) for name in SELF_TIMES})
    for name in ("sesma_identity.verify", "sesma_identity.lhs_sum", "hyper_series.eval_exact"):
        m[f"{name}.calls"] = totals.count(name)
    m["hyper_series.eval_exact.terms"] = totals.terms
    rows = [(k, totals.row_ns[k] / 1e9) for k in wl.row_ks(totals.max_k)]
    m.update({f"sesma_identity.row_s.k{k}": seconds for k, seconds in rows})
    m["sesma_identity.row_cost_exponent"] = loglog_slope(rows)
    busy = totals.busy("sesma_identity.verify") if is_sweep else 0.0
    m["sesma_identity.sweep.pool_efficiency"] = busy / (jobs * wall) if is_sweep else 0.0
    m["sesma_identity.sweep.pool_overhead_core_s"] = jobs * wall - busy if is_sweep else 0.0
    return m


class ChildFailed(Exception):
    pass


def run_child(task: dict, timeout_s: float) -> dict:
    """Run one repetition in a fresh interpreter in its own process group;
    on timeout the whole group (pool workers too) is killed and reaped."""
    proc = subprocess.Popen(
        [sys.executable, "-E", "-s", os.path.join(HERE, "child.py"), SRC],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(task).encode(), timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout_s} s")
    finally:
        _kill_group(proc)
    if proc.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        raise ChildFailed(lines[-1] if lines else f"exit {proc.returncode}")
    return json.loads(out)


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:  # wait for orphaned pool workers to go
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_identity() -> dict:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "hypcert")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = "unknown"  # an exported tree has no history
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, max_k: int) -> dict:
    cpus = wl.nproc()
    jobs = wl.jobs_for(name, cpus)
    is_sweep = wl.WORKLOADS[name]["kind"] == "sweep"
    if is_sweep:
        ops = (max_k + 1) * (max_k + 2) // 2
        expected = wl.expected_sweep_text(max_k)
        base = {"kind": "sweep", "argv": wl.sweep_argv(max_k, jobs)}
    else:
        base = {"kind": "calls", "timeout_s": COMMAND_TIMEOUT_S}
    base.update(jobs=jobs, max_k=max_k)
    spans_path = None
    if trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"spans-{name}-seed{seed}.jsonl")

    def probe() -> float:
        return run_child({"kind": "setup"}, PROBE_TIMEOUT_S)["setup_s"]

    probe()  # compiles bytecode; not timed
    setups = [probe() for _ in range(SETUP_PROBES)]

    attempted = failed = 0
    walls, traced_walls, latencies, rss, layer_runs, missing, errors = [], [], [], [], [], set(), []
    passes: list[list[wl.Call]] = []
    kind_latencies: dict[str, list[float]] = {}
    start = time.monotonic()
    rep = 0
    # at least one repetition, and with --trace 1 one traced after an untraced one
    while rep == 0 or time.monotonic() - start < seconds or (trace and rep == 1 and not errors):
        traced = trace and rep % 2 == 1
        task = dict(base, trace=traced, spans_path=spans_path if traced else None)
        if not is_sweep:
            # every pass gets fresh commands, so a run covers many inputs; a
            # traced pass reruns the commands of the untraced pass before it
            index = rep // 2 if trace else rep
            if index == len(passes):
                passes.append(wl.make_calls(seed, index))
            calls = passes[index]
            task["commands"] = [c.argv for c in calls]
            ops = len(calls)
        rep += 1
        attempted += ops
        try:
            res = run_child(task, REP_TIMEOUT_S)
        except ChildFailed as exc:
            failed += ops
            errors.append(str(exc))
            continue
        finally:
            setups.extend(probe() for _ in range(PROBES_PER_REP))
        setups.append(res["setup_s"])
        if is_sweep:
            (rc, text), = res["outcomes"]
            failed += wl.sweep_failures(rc, text, max_k, expected)
        else:
            failed += sum(wl.call_failed(c, rc, text) for c, (rc, text) in zip(calls, res["outcomes"]))
            failed += ops - len(res["outcomes"])
        if traced:
            traced_walls.append(res["wall_s"])
            totals = Totals.from_json(res["totals"])
            layer_runs.append(layer_metrics(totals, res["wall_s"], res["covered_s"], jobs, is_sweep))
            missing.update(res["missing"])
            continue
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        if is_sweep:
            latencies.append(res["wall_s"])
        else:
            latencies.extend(res["latencies_s"])
            for call, elapsed in zip(calls, res["latencies_s"]):
                kind_latencies.setdefault(call.kind, []).append(elapsed * 1e3)

    by_kind = {
        kind: {"p50": round(statistics.median(v), 3), "p99": round(percentile(v, 99), 3), "max": round(max(v), 3)}
        for kind, v in sorted(kind_latencies.items())
    }
    meta = {
        "workload": name,
        "seed": seed,
        "max_k": max_k,
        "jobs": jobs,
        "nproc": cpus,
        "python": platform.python_version(),
        **source_identity(),
        "repetitions": rep,
        "latency_samples": len(latencies),
        "walls_s": [round(x, 4) for x in walls],
        "traced_walls_s": [round(x, 4) for x in traced_walls],
        "setup_samples": len(setups),
        "fail_ratio": failed / attempted,
        "errors": errors[:5],
    }
    if is_sweep:
        meta["expected_output_sha256"] = hashlib.sha256(expected.encode()).hexdigest()
    else:
        meta["mix"] = wl.mix_shares([c for calls in passes for c in calls])
        meta["latency_ms_by_kind"] = by_kind
        meta["commands_per_pass"] = sum(wl.MIX.values())
        meta["distinct_passes"] = len(passes)
    metrics = {}
    if walls:
        latencies_ms = [x * 1e3 for x in latencies]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p99_ms": percentile(latencies_ms, 99),
            "peak_rss_mb": statistics.median(rss),
        }
    units = END_TO_END
    if trace:
        units = per_layer_units(max_k)
        meta["missing_trace_targets"] = sorted(missing)
        meta["spans_file"] = os.path.relpath(spans_path, ROOT)
        if layer_runs and walls:
            metrics = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
            metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        else:
            metrics = {}
    complete = set(metrics) == set(units)
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
        "meta": meta,
    }


def print_table(result: dict) -> None:
    meta = result["meta"]
    print(f"== {meta['workload']}  seed {meta['seed']}  K {meta['max_k']}  jobs {meta['jobs']}  nproc {meta['nproc']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':44s} {meta['fail_ratio']:14.6g} ratio  ({result['failed']} of {result['attempted']})")
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-k", type=int, default=wl.MAX_K, help=f"sweep bound (default {wl.MAX_K})")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypcert", "cli.py")):
        print(f"error: no hypcert source under {SRC}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.max_k) for n in names]
    for result in results:
        print_table(result)
    if len(results) == 1:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['meta']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
