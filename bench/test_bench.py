"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hypcert.cli as cli  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def test_same_seed_same_inputs():
    a, b = wl.make_calls(7), wl.make_calls(7)
    assert [(c.kind, c.argv, c.expect) for c in a] == [(c.kind, c.argv, c.expect) for c in b]
    assert [c.argv for c in wl.make_calls(8)] != [c.argv for c in a]
    assert [c.argv for c in wl.make_calls(7, 1)] != [c.argv for c in a]
    assert len(a) == sum(wl.MIX.values())


def test_generated_inputs_respect_the_caps():
    calls = wl.make_calls(3)
    widths = [c.expect["constant_bits"] for c in calls if c.expect.get("family") == "product"]
    assert max(widths) <= wl.MAX_CONSTANT_BITS
    assert 0 < wl.mix_shares(calls)["recognize_constant_over_2^20"] < 1


def _run(argv):
    out = io.StringIO()
    rc = cli.run(argv, stdout=out, stderr=io.StringIO())
    return rc, out.getvalue()


def test_program_outputs_pass_and_corrupted_outputs_fail():
    calls = wl.make_calls(11)
    kinds = {}
    for call in calls:
        kinds.setdefault(call.kind, call)
    assert set(kinds) == {k if k != "recognize-sesma" else "recognize" for k in wl.MIX}
    for call in kinds.values():
        rc, text = _run(call.argv)
        assert not wl.call_failed(call, rc, text), call.argv
        assert wl.call_failed(call, None, text)
        if rc == 0:
            doc = json.loads(text)
            field = next(k for k in ("value", "z", "exact", "direct") if k in doc["results"][0])
            doc["results"][0][field] = "12345/7"
            assert wl.call_failed(call, rc, json.dumps(doc)), call.kind


def test_sesma_recognize_expectation_matches_program():
    for k, m in ((0, 0), (3, 1), (5, 2), (9, 4), (300, 150)):
        call = wl._sesma_call(_Fixed(k, m))
        rc, text = _run(call.argv)
        assert not wl.call_failed(call, rc, text), (k, m, text)


class _Fixed:
    """A stand-in rng whose randint returns preset values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def test_corrupted_sweep_counts_as_failure():
    k = 6
    pairs = (k + 1) * (k + 2) // 2
    expected = wl.expected_sweep_text(k)
    rc, text = _run(wl.sweep_argv(k, 1))
    assert text == expected
    assert wl.sweep_failures(rc, text, k, expected) == 0
    assert wl.sweep_failures(rc, text.replace('"via_series": "1"', '"via_series": "2"', 1), k, expected) == 1
    assert wl.sweep_failures(rc, text.replace('"line"', '"Line"'), k, expected) == pairs
    assert wl.sweep_failures(rc, text[: len(text) // 2], k, expected) == pairs
    assert wl.sweep_failures(1, text, k, expected) == pairs


def test_wrappers_restore_the_originals():
    before = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr in tracer.TARGETS if hasattr(sys.modules[mod], attr)}
    t = tracer.Tracer(max_k=4)
    t.install()
    try:
        assert all(getattr(sys.modules[mod], attr) is not fn for (mod, attr), fn in before.items())
        rc, _ = _run(["--format", "json", "verify", "4", "2"])
        assert rc == 0
    finally:
        t.remove()
    assert all(getattr(sys.modules[mod], attr) is fn for (mod, attr), fn in before.items())
    totals = t.totals()
    assert totals.count("cli.run") == 1 and totals.count("sesma_identity.verify") == 1
    assert totals.row_ns[4] > 0 and totals.terms == 3  # 4F3 with upper -2: three terms
    # self times telescope to the top-level call's duration
    assert abs(sum(totals.self_ns) / 1e9 - t.covered_s()) < 1e-6


def test_self_time_subtracts_direct_children():
    spans = [(0, 0, 100, -1, 0, 0), (2, 10, 60, 0, 0, 3), (3, 20, 50, 1, 0, 0), (6, 70, 90, 0, 0, 5)]
    totals = tracer.Totals(max_k=4)
    totals.add_spans(spans)
    assert totals.self_ns[0] == 100 - 50 - 20
    assert totals.self_ns[2] == 50 - 30 and totals.self_ns[3] == 30 and totals.self_ns[6] == 20
    assert totals.row_ns[3] == 50 and totals.terms == 5


def test_no_workload_asks_for_more_processes_than_cpus():
    for cpus in (1, 2, 64):
        for name in wl.WORKLOADS:
            assert 1 <= wl.jobs_for(name, cpus) <= cpus
    assert wl.jobs_for("sweep-jobs2", 1) == 1 and "--jobs" not in wl.sweep_argv(150, 1)


class _SlowCli:
    @staticmethod
    def run(argv, stdout, stderr):
        if argv == ["slow"]:
            time.sleep(5)
        return 0


def test_a_command_past_its_limit_fails_without_stopping_the_pass():
    res = child._run_calls(_SlowCli, [["slow"], ["fast"]], 0.2)
    assert [rc for rc, _ in res["outcomes"]] == ["timeout", 0]
    assert res["latencies_s"][0] < 2


def test_a_repetition_past_its_limit_is_killed():
    jobs = wl.jobs_for("sweep-jobs2", wl.nproc())
    task = {"kind": "sweep", "argv": wl.sweep_argv(300, jobs), "jobs": jobs, "max_k": 300, "trace": False}
    start = time.monotonic()
    with pytest.raises(run.ChildFailed, match="timed out"):
        run.run_child(task, 1.0)
    assert time.monotonic() - start < 10


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(wl.MAX_K)


def test_missing_source_tree_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "sweep-serial", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
