"""One timed repetition of a workload, in a fresh interpreter.

Usage (from ``run.py``): ``python3 -E -s bench/child.py <src-dir>`` with a
JSON task on stdin; the JSON result is the only thing written to stdout.
Every repetition starts here because every CLI user pays the import and any
lazy set-up again.

Task keys: ``kind`` ("setup", "sweep" or "calls"), ``argv`` (sweep) or
``commands`` (calls), ``jobs``, ``max_k``, ``trace``, ``timeout_s`` (one
command's limit), ``spans_path`` (where a traced repetition writes spans).
"""

import sys
import time


def main() -> None:
    task_text = sys.stdin.read()
    src = sys.argv[1]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import hypcert  # noqa: F401  (timed: this is the set-up a user pays)
    import hypcert.cli as cli

    setup_s = time.perf_counter() - start

    import io
    import json
    import os
    import resource

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"hypcert imported from {cli.__file__}, not from {src}")
    task = json.loads(task_text)
    result = {"setup_s": setup_s}
    if task["kind"] == "setup":
        json.dump(result, sys.stdout)
        return

    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer(task["max_k"])
        tracer.install()
        if task["jobs"] > 1:
            tracer.share()
    try:
        if task["kind"] == "sweep":
            out = io.StringIO()
            t0 = time.perf_counter()
            rc = cli.run(task["argv"], stdout=out, stderr=io.StringIO())
            result["wall_s"] = time.perf_counter() - t0
            result["outcomes"] = [[rc, out.getvalue()]]
        else:
            result.update(_run_calls(cli, task["commands"], task["timeout_s"]))
    finally:
        if tracer is not None:
            tracer.remove()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_kb + task["jobs"] * worker_kb) / 1024  # no workers: worker_kb is 0
    if tracer is not None:
        result["totals"] = tracer.totals().to_json()
        result["covered_s"] = tracer.covered_s()
        result["missing"] = tracer.missing
        if task.get("spans_path"):
            tracer.write(task["spans_path"])
    json.dump(result, sys.stdout)


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers that catch
    Exception cannot swallow it."""


def _run_calls(cli, commands, timeout_s) -> dict:
    import io
    import signal

    def on_alarm(signum, frame):
        raise CommandTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    latencies = []
    outcomes = []
    clock = time.perf_counter
    t0 = clock()
    for argv in commands:
        out = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        start = clock()
        try:
            rc = cli.run(argv, stdout=out, stderr=io.StringIO())
        except CommandTimeout:
            rc = "timeout"
        except Exception as exc:  # an escaped error is this command's failure
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(elapsed)
        outcomes.append([rc, out.getvalue()])
    return {"wall_s": clock() - t0, "latencies_s": latencies, "outcomes": outcomes}


if __name__ == "__main__":
    main()
