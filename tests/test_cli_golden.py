"""Golden stdout bytes and exit codes of the CLI.

Every subcommand runs in all three formats, including each empty or error
document.  A row is (argv, exit code, digests of stdout for table, json and
csv); a digest is the first 16 hex digits of the sha256 of the UTF-8 bytes,
and e3b0c44298fc1c14 is empty output.
"""

import hashlib
import io

import pytest

from hypcert.cli import run

from test_cli import inject_fault_at_3_1

FORMATS = ("table", "json", "csv")

GOLDEN = [
    ("eval --upper 6,4,-1,2 --lower 3,5,8 --z -1", 0, ("f622a258c9e847ad", "10eb4a714bcb7e31", "9c3f38b674746cf8")),
    ("eval --upper -5 --lower -2 --z -1", 1, ("6f634272384c9d7f", "9108bcf2f0b95dfa", "b6c559fba19afcb8")),
    ("eval --upper 1 --lower 2 --z 1/2", 1, ("576a9fea0f5c9540", "00f685574430f1fc", "b17043a7489e9820")),
    ("eval --upper 1 --lower 2 --z 1/2 --numeric", 0, ("f6936b3d2e9a5c54", "4cff1bd1e01bcef8", "a59421b7ff0e6a79")),
    ("eval --upper -1000000000 --z 1", 1, ("da37904e7b0a0a79", "6aae81cd9d591add", "cac465f010cdbbfe")),
    ("recognize --num 96,-8,-64,-22,-2 --den 240,398,190,34,2 --t0 5/7", 0, ("48349355ffd3073a", "a4e6671ab06f7830", "779387c6c9fdb3cc")),
    ("recognize --num 2,3,1 --den 12,16,4", 0, ("343b14ae1affd8ff", "1fa559b46cf9ac71", "a54c706c7ad0bb73")),
    ("recognize --num 1,0,1 --den 1,1", 1, ("74bc371d7c39a1cb", "f9c2a0a84405637c", "e3b0c44298fc1c14")),
    ("recognize --num 1,1 --den 1,0,1", 1, ("d018311b5842bd36", "44300980b2ba5d9a", "e3b0c44298fc1c14")),
    ("recognize --num 3,-1 --den -1,1", 1, ("1ee6697d805eae24", "5320dd0147e3f197", "e3b0c44298fc1c14")),
    ("recognize --num 1,1 --den 0", 1, ("8e5967655f019879", "28e79aceaa18104f", "e3b0c44298fc1c14")),
    ("recognize --num 0 --den 1,1", 1, ("453272e299c6b617", "1f76f30309793b24", "e3b0c44298fc1c14")),
    ("recognize --num 1,1 --den 1,1 --t0 1/0", 2, ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14")),
    ("whipple --upper 3,5/2,-1,2 --lower 3/2,5,2 --z -1", 0, ("6bda8a793f8e0a23", "4fd4c1d80cf3bd8b", "06bee408ae21fb90")),
    ("whipple --upper 3,5/2,-2,7 --lower 3/2,6,-3 --z -1", 0, ("f31765ea298c5428", "a70be1462db94f0a", "5fb14e4f148551fb")),
    ("whipple --upper 3,5/2,1/2,1/3 --lower 3/2,7/2,11/3 --z -1", 0, ("d20f83962a5c3bba", "3171999ebd555ee2", "79f45e5bdddcaaec")),
    ("whipple --upper 3,5/2,-1,2 --lower 3/2,5,2 --z 1", 1, ("4ea3e69d0362949e", "007a18fbffed89d9", "e3b0c44298fc1c14")),
    ("verify 2 1", 0, ("bf6b81a5a0883316", "9807caddc77144ee", "8b648effdb8b6e38")),
    ("verify 1 2", 2, ("e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14")),
    ("sweep --max-k 3", 0, ("37471930a321df97", "76710b0976031eda", "a121bc20341f9b53")),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv, code, digests", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_bytes_and_exit_code(argv, code, digests, fmt):
    out = io.StringIO()
    got = run(argv.split() + ["--format", fmt], stdout=out, stderr=io.StringIO())
    assert got == code
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
    assert digest == digests[FORMATS.index(fmt)]


# sweep --max-k 5 with sesma_identity.lhs_sum made to raise at (3, 1), with
# a message that JSON and CSV must escape: one failing row in each format,
# the same bytes at jobs 2, where the workers pickle each report back to the
# parent that renders it
FAULT_MESSAGE = 'injected "quote" \\ é'
FAULT_DIGESTS = ("c40fb332656c1127", "9243a4e57d362ce2", "a6cc42ca2a6ef867")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_row_bytes(monkeypatch, fmt, jobs):
    def fault():
        raise ArithmeticError(FAULT_MESSAGE)

    inject_fault_at_3_1(monkeypatch, jobs, fault)
    out = io.StringIO()
    assert run(["sweep", "--max-k", "5", "--jobs", jobs, "--format", fmt], stdout=out, stderr=io.StringIO()) == 1
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]
    assert digest == FAULT_DIGESTS[FORMATS.index(fmt)]


# every --help screen, and one usage error on stderr; argparse wraps its
# text to $COLUMNS, so the width is fixed
HELP_DIGESTS = [
    ("", "f6e8e206c57d8e83"),
    ("eval", "1538d8f810b92594"),
    ("recognize", "a433b08e90d6e564"),
    ("whipple", "446c3997489bf7c3"),
    ("verify", "1c5e220da5cd772b"),
    ("sweep", "85bec601ed22a576"),
]
MISSING_Z_DIGEST = "7664d439cce42505"


@pytest.mark.parametrize("command, digest", HELP_DIGESTS, ids=[row[0] or "main" for row in HELP_DIGESTS])
def test_help_bytes(monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    assert run(command.split() + ["--help"], stdout=out, stderr=io.StringIO()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16] == digest


def test_usage_error_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    assert run(["eval", "--upper", "1"], stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()[:16] == MISSING_Z_DIGEST
