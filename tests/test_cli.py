import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
import threading
from fractions import Fraction

import pytest

from hypcert import __version__, hyper_series, sesma_identity
from hypcert.cli import ParseError, parse_rational, run

needs_str_digit_limit = pytest.mark.skipif(
    sys.get_int_max_str_digits() == 0, reason="the int-to-str digit limit is disabled"
)


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("3/2") == Fraction(3, 2)

    def test_negative_integer(self):
        assert parse_rational("-7") == Fraction(-7)

    def test_plus_sign(self):
        assert parse_rational("+4") == Fraction(4)

    def test_reduction(self):
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator must be nonzero") as info:
            parse_rational("5/0")
        assert info.value.offset == 2

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("abc", 0),
            ("12x", 2),
            ("3/", 2),
            ("3/2/5", 3),
            ("1.5", 1),
            ("-", 1),
            ("3 /2", 1),
            ("+-1", 1),
            ("١", 0),  # an Arabic-Indic digit is not an ASCII digit
            ("1/½", 2),
            # a numeral past the int-to-str digit limit, at its first digit
            pytest.param("7" * 5000, 0, id="long-integer", marks=needs_str_digit_limit),
            pytest.param("-1/" + "7" * 5000, 3, id="long-denominator", marks=needs_str_digit_limit),
            pytest.param("7" * 5000 + "/3", 0, id="long-numerator", marks=needs_str_digit_limit),
        ],
    )
    def test_malformed_with_offset(self, text, offset):
        with pytest.raises(ParseError) as excinfo:
            parse_rational(text)
        assert excinfo.value.offset == offset

    def test_byte_offset_for_multibyte_text(self):
        with pytest.raises(ParseError) as excinfo:
            parse_rational("3½")  # fraction glyph is 2 bytes in utf-8
        assert excinfo.value.offset == 1


class TestEvalCommand:
    def test_exact_json(self):
        code, out, _ = invoke(
            ["eval", "--upper", "6,4,-1,2", "--lower", "3,5,8", "--z", "-1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        assert doc["results"][0]["value"] == "7/5"
        assert doc["results"][0]["classification"] == "terminating(1)"

    def test_ill_posed_exits_one(self):
        code, out, _ = invoke(["eval", "--upper", "-5", "--lower", "-2", "--z", "-1", "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["classification"] == {"kind": "ill_posed", "index": 2}
        assert doc["results"][0]["value"] is None

    def test_nonterminating_exact_errors(self):
        code, out, _ = invoke(["eval", "--upper", "1", "--lower", "2", "--z", "1/2", "--format", "json"])
        assert code == 1
        assert "error" in json.loads(out)["summary"]["status"]

    def test_numeric_path(self):
        code, out, _ = invoke(
            ["eval", "--upper", "1", "--lower", "2", "--z", "1/2", "--numeric", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        # 1F1(1; 2; 1/2) = 2(e^(1/2) - 1)
        assert abs(doc["results"][0]["value"] - 1.2974425414002564) < 1e-9

    def test_numeric_sum_past_the_float_range_is_an_error(self):
        big = str(10**200)
        code, out, _ = invoke(["eval", "--upper", f"-3,{big}", "--lower", "1", "--z", big, "--numeric", "--format", "json"])
        assert code == 1
        assert "NaN" not in out
        doc = json.loads(out)
        assert doc["results"][0]["value"] is None
        assert doc["summary"]["status"].endswith(" is past the float range")

    def test_numeric_value_at_z_zero_is_one(self):
        big = str(10**200)
        code, out, err = invoke(["eval", "--upper", f"{big},{big}", "--lower", "1", "--z", "0", "--numeric", "--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["results"][0]["value"] == 1.0
        assert doc["summary"]["status"] == "ok"
        # a pole before t_1 is still refused
        code, _, _ = invoke(["eval", "--upper", "-2", "--lower", "0", "--z", "0", "--numeric"])
        assert code == 1

    def test_lower_parameter_whose_float_is_a_pole_is_an_error(self):
        argv = ["eval", "--upper", "1", "--lower", f"1/{10**400}", "--z", "1/2", "--numeric", "--format", "json"]
        code, out, err = invoke(argv)
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["results"][0]["value"] is None
        assert doc["summary"]["status"] == "error: a parameter or z is past the float range of the numeric path"

    def test_empty_parameter_lists(self):
        # 0F0(;; z) = e^z: nonterminating, so the exact path refuses it
        code, out, _ = invoke(["eval", "--z", "1/3", "--format", "json"])
        assert code == 1
        assert "error" in json.loads(out)["summary"]["status"]
        # and the numeric path sums it
        code, out, _ = invoke(["eval", "--z", "1/3", "--numeric", "--format", "json"])
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert abs(value - math.exp(1 / 3)) < 1e-10


class TestRecognizeCommand:
    def test_family_ratio(self):
        code, out, _ = invoke(
            [
                "recognize",
                "--num", "96,-8,-64,-22,-2",
                "--den", "240,398,190,34,2",
                "--t0", "5/7",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        result = doc["results"][0]
        assert result["prefactor"] == "5/7"
        assert result["upper"] == ["-1", "2", "4", "6"]
        assert result["lower"] == ["3", "5", "8"]
        assert result["z"] == "-1"

    def test_unfactorable_exits_one(self):
        code, out, _ = invoke(
            ["recognize", "--num", "1,0,1", "--den", "1,1", "--t0", "1", "--format", "json"]
        )
        assert code == 1
        assert "error" in json.loads(out)["summary"]["status"]

    def test_non_integer_coefficient_is_usage_error(self):
        code, _, err = invoke(["recognize", "--num", "1/2,1", "--den", "1,1", "--format", "json"])
        assert code == 2
        assert "usage" in err or "error" in err


def whipple_lists(a, b, c) -> tuple[str, str]:
    """The --upper and --lower values of the Whipple shape with parameters a, b, c."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return ",".join(str(x) for x in (a, 1 + a / 2, b, c)), ",".join(str(x) for x in (a / 2, a - b + 1, a - c + 1))


class TestWhippleCommand:
    def test_match_with_closed_forms(self):
        code, out, _ = invoke(
            ["whipple", "--upper", "3,5/2,-1,2", "--lower", "3/2,5,2", "--z", "-1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        result = doc["results"][0]
        assert (result["a"], result["b"], result["c"]) == ("3", "-1", "2")
        assert result["exact"] == "2"
        assert abs(result["numeric"] - 2.0) < 1e-9

    def test_parameter_past_the_float_range_keeps_the_exact_value(self):
        # a = 10^400, b = -2, c = 1/2: the exact closed form is
        # (a+1)_2 / (a+1/2)_2, the Gamma arguments do not fit a float
        a, c = Fraction(10**400), Fraction(1, 2)
        upper = ",".join(str(x) for x in (a, 1 + a / 2, -2, c))
        lower = ",".join(str(x) for x in (a / 2, a + 3, a - c + 1))
        code, out, _ = invoke(["whipple", "--upper", upper, "--lower", lower, "--z", "-1", "--format", "json"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["exact"] == str((a + 1) * (a + 2) / ((a - c + 1) * (a - c + 2)))
        assert (result["numeric"], result["numeric_note"]) == (None, "a Gamma argument is past the float range")

    def test_positive_gamma_argument_whose_float_is_zero_keeps_the_exact_value(self):
        # a = 1, b = -1, c = 2 - 10^-400: a - c + 1 = 10^-400 rounds to the float 0.0
        upper, lower = whipple_lists(1, -1, Fraction(2 * 10**400 - 1, 10**400))
        code, out, err = invoke(["whipple", "--upper", upper, "--lower", lower, "--z", "-1", "--format", "json"])
        assert (code, err) == (0, "")
        result = json.loads(out)["results"][0]
        assert result["exact"] == str(2 * 10**400)
        assert (result["numeric"], result["numeric_note"]) == (None, "a Gamma argument is past the float range")

    def test_series_that_stops_before_the_closed_form_has_no_exact_value(self):
        # a = -6 and 1 + a/2 = -2 stop the series at 2, before b = -8 does
        argv = ["whipple", "--upper", "-6,-2,-8,-9/2", "--lower", "-3,3,-1/2", "--z", "-1", "--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["a"], result["b"], result["c"]) == ("-6", "-8", "-9/2")
        assert result["exact"] is None
        assert result["exact_note"] == "the series is terminating(2), the closed form needs terminating(8)"

    @pytest.mark.parametrize(
        "upper, lower, note",
        [
            # a = 0 stops the series at once; its value is 1, not the Gamma ratio's 8/3
            ("0,1,-2,1/2", "0,3,1/2", "the series is terminating(0), the closed form needs terminating(2)"),
            ("10,6,4,4", "5,7,7", "the series is nonterminating_divergent, the closed form needs nonterminating_convergent"),
            # log_gamma(1e307) is inf, and inf - inf a NaN
            (*whipple_lists(10**307, Fraction(1, 3), Fraction(1, 2)), "the Gamma ratio is past the float range"),
            # a finite log ratio past what exp can return
            (*whipple_lists(10**300, -(10**299), Fraction(1, 2)), "the Gamma ratio is past the float range"),
        ],
        ids=["stops-sooner", "divergent", "NaN", "overflow"],
    )
    def test_numeric_value_only_inside_its_domain(self, upper, lower, note):
        code, out, _ = invoke(["whipple", "--upper", upper, "--lower", lower, "--z", "-1", "--format", "json"])
        assert code == 0
        assert "NaN" not in out and "Infinity" not in out
        result = json.loads(out)["results"][0]
        assert (result["numeric"], result["numeric_note"]) == (None, note)

    def test_shorter_of_b_and_c_sets_the_length(self):
        # b = -10^9 is over the term budget, but c = -1 stops the series at 1
        argv = ["whipple", "--upper", "2,2,-1000000000,-1", "--lower", "1,1000000003,4", "--z", "-1", "--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["exact"], result["exact_note"]) == ("3/1000000003", None)

    def test_no_match_exits_one(self):
        code, out, _ = invoke(
            ["whipple", "--upper", "3,5/2,-1,2", "--lower", "3/2,5,2", "--z", "1", "--format", "json"]
        )
        assert code == 1
        assert json.loads(out)["summary"]["status"] == "no-match"


class TestVerifyCommand:
    def test_json_document(self):
        code, out, _ = invoke(["verify", "2", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        result = doc["results"][0]
        assert result["direct"] == "1"
        assert result["via_series"] == "1"
        assert result["via_whipple"] == "1"
        assert result["all_equal_one"] is True

    def test_table_format(self):
        code, out, _ = invoke(["verify", "5", "1"])
        assert code == 0
        assert "via_whipple" in out

    def test_invalid_km_is_usage_error(self):
        code, _, _ = invoke(["verify", "1", "2"])
        assert code == 2


def inject_fault_at_3_1(monkeypatch, jobs, fault):
    """Replace lhs_sum by fault() at (3, 1), and let the process run on two
    CPUs."""
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the injected fault only when they are forked")
    real_lhs_sum = sesma_identity.lhs_sum

    def faulty_lhs_sum(k, m):
        return fault() if (k, m) == (3, 1) else real_lhs_sum(k, m)

    monkeypatch.setattr(sesma_identity, "lhs_sum", faulty_lhs_sum)
    monkeypatch.setattr(sesma_identity.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def sweep_with_fault_at_3_1(monkeypatch, jobs, fault):
    """Run sweep --max-k 5 with lhs_sum replaced by fault() at (3, 1); check
    that only that row fails, and return its direct cell."""
    inject_fault_at_3_1(monkeypatch, jobs, fault)
    code, out, _ = invoke(["sweep", "--max-k", "5", "--jobs", jobs, "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert [(r["k"], r["m"]) for r in doc["results"]] == [(k, m) for k in range(6) for m in range(k + 1)]
    [row] = [r for r in doc["results"] if not r["all_equal_one"]]
    assert {**row, "direct": None} == {
        "k": 3, "m": 1, "direct": None, "via_series": "1", "via_whipple": "1", "all_equal_one": False
    }
    assert doc["summary"]["line"] == "20/21 pass"
    return row["direct"]


class TestSweepCommand:
    def test_single_row(self):
        code, out, _ = invoke(["sweep", "--max-k", "0"])
        assert code == 0
        assert "1/1 pass" in out

    def test_csv_has_header(self):
        code, out, _ = invoke(["sweep", "--max-k", "2", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,m,direct,via_series,via_whipple,all_equal_one"
        assert len(lines) == 7

    def test_json_round_trips_byte_identical(self):
        code, out, _ = invoke(["sweep", "--max-k", "3", "--format", "json"])
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_runs_are_deterministic(self):
        _, first, _ = invoke(["sweep", "--max-k", "6", "--format", "json"])
        _, second, _ = invoke(["sweep", "--max-k", "6", "--format", "json"])
        assert first == second

    def test_golden_bytes(self):
        code, out, _ = invoke(["sweep", "--max-k", "50", "--format", "json"])
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "eb3a882a2079825ab0abfdf6765593e96ae72480a8bcaa9221075edfcac26a80"

    def test_jobs_do_not_change_bytes(self):
        _, serial, _ = invoke(["sweep", "--max-k", "6", "--format", "json"])
        _, parallel, _ = invoke(["sweep", "--max-k", "6", "--format", "json", "--jobs", "2"])
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "exc, cell",
        [(ArithmeticError("injected"), "error: injected"), (ArithmeticError(), "error: ArithmeticError")],
        ids=["message", "no message"],
    )
    def test_failing_pair_is_a_failing_row(self, monkeypatch, jobs, exc, cell):
        def fault():
            raise exc

        assert sweep_with_fault_at_3_1(monkeypatch, jobs, fault) == cell

    @needs_str_digit_limit
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_value_too_long_to_print_is_a_failing_row(self, monkeypatch, jobs):
        cell = sweep_with_fault_at_3_1(monkeypatch, jobs, lambda: Fraction(10**5000))
        assert cell == f"error: exact value too long to print (over {sys.get_int_max_str_digits()} digits)"

    def test_lost_worker_is_an_error_document(self, monkeypatch, capfd):
        def end_the_worker():
            # only in a worker: the test process itself must survive
            if multiprocessing.parent_process() is None:
                raise AssertionError("the fault ran in the test process")
            os._exit(3)

        inject_fault_at_3_1(monkeypatch, "2", end_the_worker)
        code, out, err = invoke(["sweep", "--max-k", "5", "--jobs", "2"])
        assert (code, err) == (1, "")
        assert out == "status: error: a worker process ended before the sweep finished\n"
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    def test_over_the_term_budget_exits_one(self, monkeypatch):
        monkeypatch.setattr(hyper_series, "DEFAULT_MAX_TERMS", 9)
        code, out, _ = invoke(["sweep", "--max-k", "2"])
        assert code == 0
        assert "6/6 pass" in out
        code, out, _ = invoke(["sweep", "--max-k", "3"])
        assert code == 1
        assert out == "status: error: pair count = 10 is over the budget of 9 steps\n"

    def test_over_the_term_budget_writes_no_row_in_json_or_csv(self, monkeypatch):
        # a refusal comes before any output: the JSON document has no
        # result, and CSV, which has no status line, is empty
        monkeypatch.setattr(hyper_series, "DEFAULT_MAX_TERMS", 9)
        code, out, err = invoke(["sweep", "--max-k", "3", "--format", "json"])
        assert (code, err) == (1, "")
        assert out == json.dumps({
            "command": "sweep",
            "inputs": {"max_k": 3},
            "results": [],
            "summary": {"status": "error: pair count = 10 is over the budget of 9 steps"},
        }, indent=2) + "\n"
        assert invoke(["sweep", "--max-k", "3", "--format", "csv"]) == (1, "", "")

    def test_bad_job_count_writes_nothing_to_stdout(self):
        code, out, err = invoke(["sweep", "--max-k", "3", "--jobs", "0", "--format", "json"])
        assert (code, out) == (2, "")
        assert err.startswith("error: jobs must be at least 1, got 0\nusage: hypcert")


class TestSignedListValues:
    """A list value that starts with "-" is accepted after a space, the same
    as after "="."""

    def assert_same_as_attached(self, argv, option):
        i = argv.index(option)
        attached = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
        assert invoke(argv) == invoke(attached)

    def test_eval(self):
        argv = ["eval", "--upper", "-2,1", "--lower", "3", "--z", "-1/2", "--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == "11/8"
        self.assert_same_as_attached(argv, "--upper")

    def test_whipple(self):
        argv = ["whipple", "--upper", "-1,2,3,5/2", "--lower", "3/2,5,2", "--z", "-1", "--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["a"], result["b"], result["c"], result["exact"]) == ("3", "-1", "2", "2")
        self.assert_same_as_attached(argv, "--upper")

    def test_recognize(self):
        argv = ["recognize", "--num", "-1,1", "--den", "1,1", "--t0", "-5/7", "--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert (result["prefactor"], result["upper"], result["lower"]) == ("-5/7", ["-1"], [])
        self.assert_same_as_attached(argv, "--num")
        self.assert_same_as_attached(argv, "--t0")

    @pytest.mark.parametrize(
        "argv,full",
        [
            (
                ["eval", "--up", "-2,1", "--lo", "-7/2", "--z", "-1/2"],
                ["eval", "--upper=-2,1", "--lower=-7/2", "--z=-1/2"],
            ),
            (
                ["whipple", "--upper", "3,5/2,-1,5", "--low", "-1,3/2,5", "--z", "-1"],
                ["whipple", "--upper=3,5/2,-1,5", "--lower=-1,3/2,5", "--z=-1"],
            ),
            (
                ["recognize", "--nu", "-1,1", "--de", "-2,1", "--t", "-1/2"],
                ["recognize", "--num=-1,1", "--den=-2,1", "--t0=-1/2"],
            ),
        ],
    )
    def test_abbreviated_option(self, argv, full):
        code, out, err = invoke(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        assert (code, out, err) == invoke(full + ["--format", "json"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--frob", "-2,1", "--z", "1"],
            ["recognize", "--z", "-1", "--num", "1", "--den", "1"],  # --z is not a recognize option
        ],
    )
    def test_unknown_option_with_signed_value_is_usage_error(self, argv):
        code, out, _ = invoke(argv)
        assert (code, out) == (2, "")


class TestUsageErrors:
    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_bad_rational_argument(self):
        code, _, err = invoke(["eval", "--upper", "1,not-a-number", "--z", "1"])
        assert code == 2
        assert "error" in err

    def test_missing_required_flag(self):
        code, _, _ = invoke(["eval", "--upper", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--upper", "1,2,x", "--z", "1"], "expected a digit (byte offset 4)"),
            (["eval", "--upper", "1,2,3/0", "--z", "1"], "denominator must be nonzero (byte offset 6)"),
            (["eval", "--upper", "1, x", "--z", "1"], "expected a digit (byte offset 3)"),
            (["recognize", "--num", "1,2,1/2", "--den", "1"], "expected an integer coefficient, got '1/2' (byte offset 4)"),
        ],
    )
    def test_list_item_offset_counts_from_the_value_start(self, argv, message):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--max-k", "3", "--jobs", "0"], "jobs must be at least 1, got 0"),
            (
                ["eval", "--upper", "1", "--lower", "3", "--z", "1/2", "--numeric", "--tol", "inf"],
                "tolerance must be positive and finite, got inf",
            ),
            pytest.param(
                ["eval", "--upper", "1", "--lower", "3", "--z", "1/" + "7" * 5000],
                f"numeral longer than {sys.get_int_max_str_digits()} digits (byte offset 2)",
                id="numeral-past-the-digit-limit",
                marks=needs_str_digit_limit,
            ),
        ],
    )
    def test_malformed_number_argument(self, argv, message):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}\n")

    def test_argparse_usage_error_goes_to_the_given_stderr(self):
        code, out, err = invoke(["verify", "x", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: hypcert verify")
        assert "invalid int value: 'x'" in err

    def test_version_goes_to_the_given_stdout(self):
        assert invoke(["--version"]) == (0, f"hypcert {__version__}\n", "")

    def test_help_goes_to_the_given_stdout(self):
        code, out, err = invoke(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: hypcert")

    def test_global_format_position(self):
        code_before, out_before, _ = invoke(["--format", "json", "verify", "2", "1"])
        code_after, out_after, _ = invoke(["verify", "2", "1", "--format", "json"])
        assert code_before == code_after == 0
        assert out_before == out_after


class StreamProbe(io.StringIO):
    """A buffer that records, at each write, whether sys.stdout and
    sys.stderr are still the objects they were when it was made."""

    def __init__(self):
        super().__init__()
        self.process_streams = (sys.stdout, sys.stderr)
        self.unchanged = []

    def write(self, text):
        self.unchanged.append((sys.stdout is self.process_streams[0], sys.stderr is self.process_streams[1]))
        return super().write(text)


ARGPARSE_TEXT = [
    (["--help"], "stdout", "usage: hypcert [-h]"),
    (["--version"], "stdout", f"hypcert {__version__}\n"),
    (["verify", "x", "1"], "stderr", "usage: hypcert verify"),
]


class TestProcessStreams:
    @pytest.mark.parametrize("argv, slot, text", ARGPARSE_TEXT, ids=[" ".join(row[0]) for row in ARGPARSE_TEXT])
    def test_run_never_rebinds_the_process_streams(self, argv, slot, text):
        probe = StreamProbe()
        run(argv, **{slot: probe})
        assert probe.unchanged and set(probe.unchanged) == {(True, True)}
        assert probe.getvalue().startswith(text)

    def test_concurrent_calls_keep_their_own_output(self, monkeypatch):
        # a call that wrote through the process streams would put its text in
        # a sentinel, or in the buffers of a call running beside it
        argvs = [argv for argv, _, _ in ARGPARSE_TEXT]
        expected = [invoke(argv) for argv in argvs]
        calls = 100
        sentinels = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", sentinels[0])
        monkeypatch.setattr(sys, "stderr", sentinels[1])
        results = [None] * len(argvs)

        def worker(i):
            results[i] = [invoke(argvs[i]) for _ in range(calls)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(argvs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [[want] * calls for want in expected]
        assert (sentinels[0].getvalue(), sentinels[1].getvalue()) == ("", "")
