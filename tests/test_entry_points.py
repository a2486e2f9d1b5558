"""The package run as a program, in fresh interpreters."""

import io
import json
import os
import subprocess
import sys

import pytest

import hypcert
from hypcert import cli
from hypcert.cli import run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hypcert.__file__)))
TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps its text to $COLUMNS; run_module passes os.environ on,
    # so this fixes the width on both sides of a comparison
    monkeypatch.setenv("COLUMNS", "80")


def run_module(module, argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
    )


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("module", ["hypcert", "hypcert.cli"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--max-k", "3"],
        ["sweep", "--max-k", "30", "--format", "json"],
        ["verify", "5", "3", "--format", "json"],
        ["--help"],
        ["--version"],
        ["verify", "x", "1"],
    ],
)
def test_python_dash_m_matches_run(module, argv):
    proc = run_module(module, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


@pytest.mark.parametrize("argv", [["verify", "2", "1"], ["sweep", "--max-k", "60", "--format", "json"]])
def test_closed_stdout_exits_one_without_a_traceback(argv):
    # the read end is closed before the child has started, so its first
    # write to stdout meets a broken pipe
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypcert", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    assert (proc.wait(timeout=TIMEOUT_S), stderr) == (1, b"")


def test_keyboard_interrupt_exits_130_without_a_traceback(monkeypatch, capsys):
    def interrupted(argv):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 130
    assert capsys.readouterr().err == ""


def test_oversized_exact_sum_exits_one_without_hanging():
    argv = ["eval", "--upper", "-1000000000", "--z", "1"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    assert b"over the budget" in proc.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_oversized_verify_exits_one_without_hanging():
    argv = ["verify", "1000000000", "500000000"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    assert b"status: error: m = 500000000 is over the budget of 100000 steps" in proc.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_verify_with_a_huge_k_exits_one_without_hanging():
    argv = ["verify", "9" * 4000, "3000"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    assert b"is over the budget of 100000" in proc.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


@pytest.mark.parametrize("constant", ["10000000000000000", "100000000000000"])
def test_recognize_with_a_huge_constant_finds_its_parameter(constant):
    argv = ["recognize", "--num", f"{constant},1", "--den", "1,1", "--format", "json"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["upper"] == [constant]
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_recognize_with_huge_coefficients_and_no_rational_root_exits_one():
    argv = ["recognize", "--num", "735134400,0,735134400", "--den", "1,1"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    assert proc.stdout == b"status: error: numerator factor 735134400,0,735134400 has no rational root and does not cancel\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_recognize_with_a_long_wide_lead_polynomial_is_refused_before_any_power():
    # the monic transform would raise the 4,300-digit lead to every power up to 1,998
    lead = "7" * 4300
    argv = ["recognize", "--num", ",".join(["1"] + ["0"] * 1998 + [lead]), "--den", "1,1"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    assert b"status: error: root isolation steps = 114043606803434 is over the budget" in proc.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_numeric_sum_with_a_parameter_past_the_float_range_exits_one():
    argv = ["eval", "--upper", "1" + "0" * 400, "--lower", "1", "--z", "1/2", "--numeric", "--format", "json"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["results"][0]["value"] is None
    assert doc["summary"]["status"] == "error: a parameter or z is past the float range of the numeric path"
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_oversized_whipple_closed_form_exits_zero_without_hanging():
    # b = -10^9: the exact closed form is refused, the numeric one still runs
    argv = ["whipple", "--upper", "2,2,-1000000000,1/2", "--lower", "1,1000000003,5/2", "--z", "-1", "--format", "json"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["results"][0]
    assert result["exact"] is None
    assert "over the budget" in result["exact_note"]
    assert result["numeric"] > 0
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


needs_str_digit_limit = pytest.mark.skipif(
    sys.get_int_max_str_digits() == 0, reason="the int-to-str digit limit is disabled"
)


@needs_str_digit_limit
def test_exact_sum_too_long_to_print_exits_one():
    argv = ["eval", "--upper", "-5000,3/7", "--lower", "5/11", "--z", "13/17", "--format", "json"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["results"][0]["value"] is None
    assert doc["summary"]["status"].startswith("error: exact value too long to print")
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


@needs_str_digit_limit
def test_whipple_closed_form_too_long_to_print_exits_zero():
    argv = ["whipple", "--upper", "2,2,-20000,1/3", "--lower", "1,20003,8/3", "--z", "-1", "--format", "json"]
    proc = run_module("hypcert", argv)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["results"][0]
    assert result["exact"] is None
    assert "too long to print" in result["exact_note"]
    assert result["numeric"] > 0
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


def test_import_leaves_global_pickling_alone():
    # importing the package must not change how the host process pickles a
    # Fraction; from Python 3.11 the stdlib pickles one as its two ints
    code = (
        "import copyreg, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from fractions import Fraction\n"
        "import hypcert, hypcert.cli\n"
        "print(Fraction in copyreg.dispatch_table)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=TIMEOUT_S
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_import_closure_leaves_out_unused_stdlib_modules():
    # -I -S: no site packages and no environment, so only the package and
    # the stdlib modules it imports end up in sys.modules; the process pool
    # is loaded only by a sweep that uses it, here on two stand-in CPUs
    code = (
        "import io, os, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import hypcert, hypcert.cli\n"
        "hypcert.cli.run(['verify', '5', '3'], stdout=io.StringIO())\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "names = ('dataclasses', 'inspect', 'typing', 'hypcert.__main__', *pool)\n"
        "print(' '.join(name for name in names if name in sys.modules))\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "hypcert.cli.run(['sweep', '--max-k', '1', '--jobs', '2'], stdout=io.StringIO())\n"
        "print(' '.join(name for name in pool if name in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=TIMEOUT_S
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "concurrent.futures multiprocessing"]
