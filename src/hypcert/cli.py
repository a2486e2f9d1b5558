"""Command-line front end.

Subcommands map one-to-one onto the library: ``eval`` (series evaluation),
``recognize`` (term-ratio to pFq form), ``whipple`` (shape match and closed
forms), ``verify`` (one identity report), and ``sweep`` (all reports up to
a bound).  Output formats: human table (default), json, csv.  Rationals are
serialized as exact "p/q" strings, never floats.

Exit codes: 0 success / all-pass, 1 identity violation, no match or a
``HypergeometricError``, 2 usage error or ``ValueError`` (parse errors
included); the README's "Errors" section gives the policy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import __version__
from .errors import HypergeometricError
from .hyper_series import HypSeries, classify, eval_exact, eval_numeric
from .sesma_identity import IdentityReport, sweep as run_sweep, verify as run_verify
from .term_recognize import IntPolynomial, TermRatio, recognize
from .whipple import match_whipple, rhs_exact_terminating, rhs_numeric

__all__ = ["ParseError", "ZeroDenominator", "parse_rational", "run", "main"]

# [0-9], not \d: \d also matches non-ASCII digits such as "١", which int() reads
_RATIONAL = re.compile(r"[+-]?([0-9]*)(?:/([0-9]*))?")


class ParseError(ValueError):
    """Malformed rational text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ZeroDenominator(ParseError):
    """A rational literal with denominator zero."""


def parse_rational(text: str, base: int = 0) -> Fraction:
    """Parse "p", "+p", "-p", or "p/q" into a canonical rational; ``base``
    is the byte offset of text in a longer value, added to a fault's offset.
    A digit run longer than Python's int-to-str digit limit is refused at
    its start, where that limit exists."""
    match = _RATIONAL.match(text)
    numerator, denominator = match.group(1, 2)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # every fault is at or before the end of the match, which is ASCII, so
    # a character index up to it is also a byte offset
    at = match.end()
    if not numerator:
        message, at = "expected a digit", match.start(1)
    elif denominator == "":
        message, at = "expected a digit after '/'", match.start(2)
    elif at < len(text):
        message = f"unexpected character {text[at]!r}"
    elif long_runs := [i for i in (1, 2) if 0 < limit < len(match.group(i) or "")]:
        message, at = f"numeral longer than {limit} digits", match.start(long_runs[0])
    elif denominator and not int(denominator):
        raise ZeroDenominator("denominator must be nonzero", base + match.start(2))
    else:
        return Fraction(int(text[: match.end(1)]), int(denominator or 1))
    raise ParseError(message, base + at)


def _parse_list(text: str, integers: bool = False) -> list:
    """The comma-separated rationals of an option value, or its integers;
    a fault's byte offset counts from the start of the value."""
    out, start = [], 0  # start: byte offset of the current part in text
    for part in text.split(",") if text else []:
        item = part.strip()
        base = start + len(part[: part.index(item)].encode("utf-8"))
        value = parse_rational(item, base)
        if integers and value.denominator != 1:
            raise ParseError(f"expected an integer coefficient, got {item!r}", base)
        out.append(value.numerator if integers else value)
        start += len(part.encode("utf-8")) + 1
    return out


def _params(s: HypSeries) -> dict:
    return {
        "upper": [str(a) for a in s.upper],
        "lower": [str(b) for b in s.lower],
        "z": str(s.z),
    }


def _parse_series(args) -> HypSeries:
    return HypSeries(
        _parse_list(args.upper),
        _parse_list(args.lower),
        parse_rational(args.z),
    )


def _value_or_note(step, *args):
    """(step(*args), None), an exact value as "p/q" text; or (None, message)
    if the step raised a HypergeometricError or its value is too long to print."""
    try:
        value = step(*args)
    except HypergeometricError as exc:
        return None, str(exc)
    try:
        return (str(value) if isinstance(value, Fraction) else value), None
    except ValueError:
        return None, f"exact value too long to print (over {sys.get_int_max_str_digits()} digits)"


def _report_fields(report: IdentityReport) -> dict:
    fields: dict = {"k": report.k, "m": report.m}
    for slot in ("direct", "via_series", "via_whipple"):
        text, note = _value_or_note(getattr, report, slot)
        fields[slot] = text if note is None else f"error: {note}"
    fields["all_equal_one"] = report.all_equal_one
    return fields


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(doc: dict, fmt: str, out) -> None:
    """Write doc as JSON; or its results as CSV, or as a table and the summary."""
    if fmt == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
        return
    results = doc["results"]
    header = list(results[0]) if results else []
    rows = ([header] if header else []) + [[_csv_cell(row[key]) for key in header] for row in results]
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows)
        return
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        out.write("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n")
    for key, value in doc["summary"].items():
        out.write(f"{key}: {_csv_cell(value)}\n")


# Each _cmd_* fills the inputs dict it is given before any work that can
# fail, then returns (exit code, results, summary); run() builds the
# document from them, and the error document of a HypergeometricError.


def _cmd_eval(args, inputs):
    series = _parse_series(args)
    cls = classify(series)
    inputs.update(_params(series), numeric=bool(args.numeric), tol=args.tol if args.numeric else None)
    result = {**_params(series.canonical()), "classification": str(cls)}
    if args.numeric:
        result["value"], note = _value_or_note(eval_numeric, series, args.tol)
    else:
        result["value"], note = _value_or_note(eval_exact, series)
    status = "ok" if note is None else f"error: {note}"
    summary = {"classification": {"kind": cls.kind.value, "index": cls.index}, "status": status}
    return (0 if note is None else 1), [result], summary


def _cmd_recognize(args, inputs):
    num = IntPolynomial(_parse_list(args.num, integers=True))
    den = IntPolynomial(_parse_list(args.den, integers=True))
    t0 = parse_rational(args.t0)
    inputs.update(num=list(num.coefficients), den=list(den.coefficients), t0=str(t0))
    recognized = recognize(TermRatio(num=num, den=den, t0=t0))
    result = {"prefactor": str(recognized.prefactor), **_params(recognized.series.canonical())}
    return 0, [result], {"status": "ok"}


def _cmd_whipple(args, inputs):
    series = _parse_series(args)
    inputs.update(_params(series))
    match = match_whipple(series)
    if match is None:
        return 1, [], {"status": "no-match"}
    result: dict = {"a": str(match.a), "b": str(match.b), "c": str(match.c)}
    result["exact"], result["exact_note"] = _value_or_note(rhs_exact_terminating, match)
    result["numeric"], result["numeric_note"] = _value_or_note(rhs_numeric, match)
    return 0, [result], {"status": "matched"}


def _cmd_verify(args, inputs):
    inputs.update(k=args.k, m=args.m)
    report = run_verify(args.k, args.m)
    summary = {"all_equal_one": report.all_equal_one}
    return (0 if report.all_equal_one else 1), [_report_fields(report)], summary


def _cmd_sweep(args, inputs):
    inputs["max_k"] = args.max_k
    results = [_report_fields(r) for r in run_sweep(args.max_k, jobs=args.jobs)]
    passed = sum(row["all_equal_one"] for row in results)
    all_pass = passed == len(results)
    summary = {
        "count": len(results),
        "passed": passed,
        "all_pass": all_pass,
        "line": f"{passed}/{len(results)} pass",
    }
    # jobs is deliberately not echoed: output bytes must not depend on it
    return (0 if all_pass else 1), results, summary


_SIGNED_VALUE = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcert",
        description="Exact evaluation, recognition, and certification of "
        "terminating hypergeometric series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, series=False):
        p = sub.add_parser(name, help=help)
        # the same flag is accepted after the subcommand; SUPPRESS keeps an
        # unset subcommand-level flag from clobbering the global value
        p.add_argument("--format", choices=("table", "json", "csv"), default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        if series:
            p.add_argument("--upper", default="", help="comma-separated upper parameters")
            p.add_argument("--lower", default="", help="comma-separated lower parameters")
            p.add_argument("--z", required=True, help="series argument as p/q")
        p.set_defaults(func=func)
        # argparse's private matcher of negative numbers knows only integers and
        # decimals, so it takes "-2,1" or "-7/2" for an unknown flag; no option
        # here starts with a digit, so any "-digit..." token is a value
        p._negative_number_matcher = _SIGNED_VALUE
        return p

    p = command("eval", "evaluate a pFq series", _cmd_eval, series=True)
    p.add_argument("--numeric", action="store_true", help="use the floating-point path")
    p.add_argument("--tol", type=float, default=1e-12, help="numeric tolerance (default 1e-12)")

    p = command("recognize", "turn a term ratio P(n)/Q(n) into prefactor * pFq", _cmd_recognize)
    p.add_argument("--num", required=True, help="P coefficients c0,c1,... (ascending)")
    p.add_argument("--den", required=True, help="Q coefficients d0,d1,... (ascending)")
    p.add_argument("--t0", default="1", help="initial term (default 1)")

    command("whipple", "match the Whipple 4F3 shape and evaluate closed forms", _cmd_whipple, series=True)

    p = command("verify", "certify the binomial identity at one (k, m)", _cmd_verify)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)

    p = command("sweep", "certify the identity for all 0 <= m <= k <= K", _cmd_sweep)
    p.add_argument("--max-k", type=int, required=True, help="largest k to verify")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    return parser


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Parse argv, dispatch, and emit one document; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    inputs: dict = {}
    try:
        exit_code, results, summary = args.func(args, inputs)
    except ValueError as exc:  # ParseError included
        err.write(f"error: {exc}\n")
        parser.print_usage(err)
        return 2
    except HypergeometricError as exc:
        exit_code, results, summary = 1, [], {"status": f"error: {exc}"}
    doc = {"command": args.command, "inputs": inputs, "results": results, "summary": summary}
    _emit(doc, args.format, out)
    return exit_code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as "| head" may); point fd 1 at devnull
        # so that the interpreter's own flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        # Ctrl-C: the shell's code for SIGINT (128 + 2), with no traceback
        sys.exit(130)
    sys.exit(code)


if __name__ == "__main__":
    main()
