import argparse
import contextlib
import io
import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the argv property below needs it
    given = None

from symkron import grouporacle, symfunc, verify
from symkron.contingency import ContingencyMatrix
from symkron.cli import _COMMANDS, _FORMAT, _read_args, main
from symkron.errors import BudgetExceededError
from symkron.grouporacle import permutation_character
from symkron.symfunc import SymFunc
from symkron.verify import run_verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_contingency_text(capsys):
    code, out, _ = run_cli(capsys, "contingency", "--lambda", "3,1", "--mu", "2,1,1")
    assert code == 0
    assert out == "2,1,0\n0,0,1\n\n2,0,1\n0,1,0\n\n1,1,1\n1,0,0\n"


def test_contingency_count_only(capsys):
    code, out, _ = run_cli(
        capsys, "contingency", "--lambda", "3,1", "--mu", "2,1,1", "--count-only"
    )
    assert code == 0 and out == "3\n"


def test_contingency_json(capsys):
    code, out, _ = run_cli(
        capsys, "contingency", "--lambda", "3,1", "--mu", "2,1,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["matrices"][0] == {
        "rows": [[2, 1, 0], [0, 0, 1]],
        "row_sums": [3, 1],
        "col_sums": [2, 1, 1],
    }


def test_decompose_perm(capsys):
    code, out, _ = run_cli(capsys, "decompose-perm", "--lambda", "3,1", "--mu", "2,1,1")
    assert code == 0 and out == "2*M[2,1,1] + M[1,1,1,1]\n"


def test_decompose_perm_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "decompose-perm", "--lambda", "3,1", "--mu", "2,1,1", "--oracle"
    )
    assert code == 0
    assert "oracle agrees: yes" in out


def test_decompose_perm_show_matrices_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose-perm",
        "--lambda", "2,1",
        "--mu", "1,1,1",
        "--show-matrices",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"partition": [1, 1, 1], "multiplicity": 3}]
    assert len(data["matrices"]) == 3


def test_partitions_command(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--d", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    code, out, _ = run_cli(capsys, "partitions", "--d", "0")
    assert out == "[]\n"


def test_compositions_command(capsys):
    code, out, _ = run_cli(capsys, "compositions", "--n", "2", "--d", "2")
    assert code == 0
    assert out.splitlines() == ["2,0", "1,1", "0,2"]


def test_kostka_command(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--shape", "2,1", "--content", "1,1,1")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(capsys, "kostka", "--shape", "[]", "--content", "[]")
    assert code == 0 and out == "1\n"


def test_kron_command(capsys):
    code, out, _ = run_cli(capsys, "kron", "--expr", "h[3,1] # h[2,1,1]")
    assert code == 0 and out == "2*h[2,1,1] + h[1,1,1,1]\n"
    code, out, _ = run_cli(capsys, "kron", "--expr", "s[1,1] # s[1,1]", "--basis", "s")
    assert code == 0 and out == "s[2]\n"
    # A dash-led expression is the value of --expr; -h and --flags are not.
    code, out, _ = run_cli(capsys, "kron", "--expr", "-s[1]")
    assert code == 0 and out == "-s[1]\n"
    for token in ("-h", "--basis"):
        code, _, err = run_cli(capsys, "kron", "--expr", token)
        assert code == 2 and err.endswith("error: argument --expr: expected one argument\n")


def test_convert_command(capsys):
    code, out, _ = run_cli(capsys, "convert", "--expr", "h[1,1]", "--basis", "s")
    assert code == 0 and out == "s[2] + s[1,1]\n"
    code, out, _ = run_cli(capsys, "convert", "--expr", "s[2] . s[1]", "--basis", "s")
    assert code == 0 and out == "s[3] + s[2,1]\n"
    code, out, _ = run_cli(capsys, "convert", "--expr", "-h[2]", "--basis", "s")
    assert code == 0 and out == "-s[2]\n"


def test_convert_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "convert", "--expr", "h[2,1]", "--basis", "s", "--format", "json"
    )
    assert code == 0
    f = SymFunc.from_json(out)
    assert f.basis == "s" and f.degree == 3
    assert f.coeff((3,)) == 1 and f.coeff((2, 1)) == 1 and f.coeff((1, 1, 1)) == 0


def test_schur_to_h_reads_no_table_of_the_degree():
    # Rim hooks read only the shape, so these answer at once; a walk over the
    # partitions of the degree would never finish and fails on the timeout.
    three_rows = (
        "-h[3002,2000,998] + h[3002,1999,999] + h[3001,2001,998] - h[3001,1999,1000]"
        " - h[3000,2001,999] + h[3000,2000,1000]\n"
    )
    for expr, out in (
        ("s[99999999999999999999]", "h[99999999999999999999]\n"),
        ("s[3000,2000,1000]", three_rows),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "symkron.cli", "convert", "--expr", expr, "--basis", "h"],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_h_and_e_read_only_the_kostka_columns_of_their_terms():
    # Each walks the columns of its own terms and conjugates only its terms,
    # so it answers at once; a walk over every column of the degree would not.
    def convert(expr, basis):
        proc = subprocess.run(
            [sys.executable, "-m", "symkron.cli", "convert", "--expr", expr, "--basis", basis],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    assert convert("e[300]", "s") == f"s[{','.join(['1'] * 300)}]\n"
    two_rows = convert("h[300,200]", "s")
    assert two_rows.startswith("s[500] + s[499,1] + ") and two_rows.count("s[") == 201
    assert convert(f"s[{','.join(['2'] + ['1'] * 298)}]", "e") == "-e[300] + e[299,1]\n"
    assert convert("h[10,8,6,4,2]", "s").count("s[") == 544


def test_mixed_degree_sum_needs_formal_flag(capsys):
    code, _, err = run_cli(capsys, "convert", "--expr", "h[1] + h[2]", "--basis", "h")
    assert code == 2 and "degrees" in err
    code, out, _ = run_cli(
        capsys, "convert", "--expr", "h[1] + h[2]", "--basis", "h", "--formal"
    )
    assert code == 0 and out == "(h[1]) + (h[2])\n"


def test_character_command(capsys):
    code, out, _ = run_cli(capsys, "character", "--kind", "specht", "--lambda", "2,1")
    assert code == 0
    assert out.splitlines() == ["3: -1", "2,1: 0", "1,1,1: 2"]
    code, out, _ = run_cli(
        capsys, "character", "--kind", "perm", "--lambda", "2,1", "--format", "json"
    )
    data = json.loads(out)
    assert data["values"] == [
        {"cycle_type": [3], "value": 0},
        {"cycle_type": [2, 1], "value": 1},
        {"cycle_type": [1, 1, 1], "value": 3},
    ]


def test_ch_command(capsys):
    code, out, _ = run_cli(capsys, "ch", "--kind", "perm", "--lambda", "2,1", "--basis", "h")
    assert code == 0 and out == "h[2,1]\n"
    code, out, _ = run_cli(capsys, "ch", "--kind", "specht", "--lambda", "2,1", "--basis", "s")
    assert code == 0 and out == "s[2,1]\n"
    code, out, _ = run_cli(capsys, "ch", "--kind", "specht", "--lambda", "1,1")
    assert code == 0 and out == "-1/2*p[2] + 1/2*p[1,1]\n"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "monoidal", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "orthonormality", "--d", "3", "--format", "json"
    )
    data = json.loads(out)
    assert data["passed"] is True and len(data["checks"]) == 4


def test_verify_kostka_checks_the_character_table(capsys, monkeypatch):
    tables = {d: grouporacle.character_table(d) for d in range(4)}
    trivial, standard, sign = tables[3]
    tables[3] = (trivial, tuple(-v for v in standard), sign)
    monkeypatch.setattr(grouporacle, "character_table", tables.get)
    code, out, _ = run_cli(capsys, "verify", "--suite", "kostka", "--d", "3")
    assert code == 1
    assert "violations: [('character-table', (2, 1))]" in out.splitlines()[-2]


def test_verify_all_reports_monoidal_mismatches(capsys, monkeypatch):
    real = verify.decompose_permutation_tensor

    def broken(lam, mu):
        return {} if (tuple(lam), tuple(mu)) == ((2,), (1, 1)) else real(lam, mu)

    monkeypatch.setattr(verify, "decompose_permutation_tensor", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--d", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == (
        "FAIL monoidal d=2: margin rule == orbit decomposition (4 pairs, orbit sizes "
        "and overlap matrices checked) [mismatched pairs: [((2,), (1, 1))]]"
    )
    assert all(line.startswith("PASS") for line in lines[:2] + lines[3:-1])
    assert lines[-1] == f"FAIL all: {len(lines) - 1} checks"


def test_verify_kostka_builds_one_specht_row_per_partition(monkeypatch):
    calls = []
    real = symfunc.specht_character

    def counted(lam):
        calls.append(tuple(lam))
        return real(lam)

    monkeypatch.setattr(symfunc, "specht_character", counted)
    assert all(check.passed for check in run_verify("kostka", 5))
    assert len(calls) <= 19  # one per partition of each degree 0..5


def test_exit_codes(capsys):
    # unknown suite is a usage error
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus", "--d", "2")
    assert code == 2
    # budget exceeded
    code, _, err = run_cli(capsys, "verify", "--suite", "monoidal", "--d", "100")
    assert code == 3 and "cap" in err
    # parse errors
    code, _, err = run_cli(capsys, "kron", "--expr", "h[1,2]")
    assert code == 2 and "weakly decreasing" in err
    code, _, err = run_cli(capsys, "kron", "--expr", "s[1] +")
    assert code == 2 and "position" in err
    # degree mismatch under '#'
    code, _, err = run_cli(capsys, "kron", "--expr", "s[1] # s[2]")
    assert code == 2
    # a mixed-degree operand under '#' names its degrees, sorted
    for expr, degrees in (("(s[1]+s[2])#s[1]", "[1, 2]"), ("s[1]#(s[3]+s[1]+s[2])", "[1, 2, 3]")):
        message = f"error: '#' needs homogeneous operands, got degrees {degrees}\n"
        assert run_cli(capsys, "kron", "--expr", expr) == (2, "", message)
    # malformed margins
    code, _, err = run_cli(capsys, "contingency", "--lambda", "2,x", "--mu", "1,1")
    assert code == 2
    # missing required argument
    code, _, _ = run_cli(capsys, "kostka", "--shape", "2,1")
    assert code == 2
    # integers are ASCII -?[0-9]+, though int() reads each of these
    for value in ("1_0", "+3", "\u0663"):
        code, _, err = run_cli(capsys, "partitions", "--d", value)
        assert code == 2 and err.endswith(f"error: argument --d: invalid int value: {value!r}\n")


def test_deep_inputs(capsys):
    # Many parts: the composition walk keeps no stack.
    code, out, _ = run_cli(capsys, "compositions", "--n", "1200", "--d", "1")
    assert code == 0 and len(out.splitlines()) == 1200
    # Many rows run in a child process each, so that a walk that would never
    # finish fails on its timeout.
    def cli(*argv, timeout=60):
        proc = subprocess.run(
            [sys.executable, "-m", "symkron.cli", *argv],
            capture_output=True, text=True, timeout=timeout,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def parts(part, count):
        return ",".join([str(part)] * count)

    # The counts walk the rows of the longer margin on an explicit stack and
    # stop where one row or one column is left, so these answer in both
    # orders of the margins, with no frame per row.
    ones = parts(1, 1100)
    units = parts(1, 300)
    pairs = comb(300, 150)
    for lam, mu, count, pieces in (
        (ones, "1100", 1, f"M[{ones}]"),
        (units, "150,150", pairs, f"{pairs}*M[{units}]"),
        (ones, "1099,1", 1100, f"1100*M[{ones}]"),
    ):
        for a, b in ((lam, mu), (mu, lam)):
            assert cli("contingency", "--lambda", a, "--mu", b, "--count-only") == (0, f"{count}\n", "")
            assert cli("decompose-perm", "--lambda", a, "--mu", b) == (0, f"{pieces}\n", "")
    # 300,300 against 1^600: 45451 states, 2 budgets, degree 600, under the cap.
    for a, b in (("300,300", parts(1, 600)), (parts(1, 600), "300,300")):
        assert cli("contingency", "--lambda", a, "--mu", b, "--count-only") == (
            0, f"{comb(600, 300)}\n", ""
        )
    # The listing keeps no frame per row, so the one matrix of 1^1100 against
    # 1100 is listed in both orders too.
    column = {"rows": [[1]] * 1100, "row_sums": [1] * 1100, "col_sums": [1100]}
    row = {"rows": [[1] * 1100], "row_sums": [1100], "col_sums": [1] * 1100}
    for a, b, matrix, text in (
        (ones, "1100", column, "1\n" * 1100),
        ("1100", ones, row, f"{ones}\n"),
    ):
        assert cli("contingency", "--lambda", a, "--mu", b) == (0, text, "")
        listed = f"M[{ones}]\n{json.dumps(matrix)}\n"
        assert cli("decompose-perm", "--lambda", a, "--mu", b, "--show-matrices") == (0, listed, "")
    # A Kostka count takes one Pieri step per part of the content.
    assert cli("kostka", "--shape", "1100", "--content", ones) == (0, "1\n", "")
    # Walks predicted over the margin-state cap are refused before they start.
    for lam, mu, states in (
        (parts(2, 400), parts(1, 800), comb(402, 2)),
        (parts(2, 1000), parts(1, 2000), comb(1002, 2)),
    ):
        for a, b in ((lam, mu), (mu, lam)):
            for argv in (["contingency", "--count-only"], ["decompose-perm"]):
                code, out, err = cli(*argv, "--lambda", a, "--mu", b, timeout=10)
                assert (code, out) == (3, "")
                assert err.startswith(f"error: {states} margin states x ")
                assert err.endswith("exceed the cap of 100000000\n")
    # Nested expressions still reach the recursion limit, and exit 3 there.
    code, out, err = cli("kron", "--expr", "(" * 400 + "s[1]" + ")" * 400)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "recursion limit" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_degree_mismatch_margins(capsys):
    code, _, err = run_cli(capsys, "decompose-perm", "--lambda", "2,1", "--mu", "1,1")
    assert code == 2 and "totals" in err


ORACLE_COMMAND = ["decompose-perm", "--lambda", "2,1", "--mu", "1,1,1", "--oracle"]


def test_budget_caps_apply(capsys, monkeypatch):
    monkeypatch.setattr(grouporacle, "MAX_ORBIT_PAIRS", 17)
    code, _, err = run_cli(capsys, *ORACLE_COMMAND)
    assert code == 3 and "18 basis pairs exceed the cap of 17" in err
    monkeypatch.setattr(grouporacle, "MAX_ORBIT_PAIRS", 18)
    assert run_cli(capsys, *ORACLE_COMMAND)[0] == 0
    monkeypatch.setattr(verify, "MAX_VERIFY_DEGREE", 2)
    code, _, err = run_cli(capsys, "verify", "--suite", "kostka", "--d", "3")
    assert code == 3 and "cap of 2" in err
    with pytest.raises(BudgetExceededError, match="362880 basis tuples exceed the cap of 40320"):
        permutation_character((1,) * 9)


def test_library_verify_reads_the_degree_cap(monkeypatch):
    monkeypatch.setattr(verify, "MAX_VERIFY_DEGREE", 2)
    with pytest.raises(BudgetExceededError, match="cap of 2"):
        run_verify("kostka", 3)


def test_malformed_budget_variables_do_not_break_import(capsys, monkeypatch):
    # The caps are module constants: the SYMKRON_* variables are ignored.
    for argv in (["partitions", "--d", "2"], ORACLE_COMMAND):
        for name in ("SYMKRON_MAX_PAIRS", "SYMKRON_MAX_GROUP", "SYMKRON_MAX_VERIFY_DEGREE"):
            monkeypatch.delenv(name, raising=False)
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        for name in ("SYMKRON_MAX_PAIRS", "SYMKRON_MAX_GROUP", "SYMKRON_MAX_VERIFY_DEGREE"):
            monkeypatch.setenv(name, "x")
        proc = subprocess.run(
            [sys.executable, "-m", "symkron.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert permutation_character((2, 1)) == (0, 1, 3)


def test_malformed_pair_cap_fails_only_suites_that_read_it(capsys, monkeypatch):
    # No suite reads SYMKRON_MAX_PAIRS any more, so a malformed or tiny value fails none.
    for value in ("x", "1"):
        monkeypatch.setenv("SYMKRON_MAX_PAIRS", value)
        code, out, err = run_cli(capsys, "verify", "--suite", "kostka", "--d", "3")
        assert (code, err) == (0, "") and out.endswith("PASS kostka: 4 checks\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "monoidal", "--d", "3")
        assert (code, err) == (0, "") and "PASS monoidal" in out


@pytest.mark.parametrize("suite", ["monoidal", "all"])
def test_verify_refuses_oversized_monoidal_before_any_orbit(monkeypatch, suite):
    def refuse(*args):
        raise AssertionError("orbit enumeration started")

    monkeypatch.setattr(grouporacle, "tensor_orbit_decompose", refuse)
    with pytest.raises(BudgetExceededError) as exc:
        run_verify(suite, 7)
    assert str(exc.value) == "529200 basis pairs exceed the cap of 518400"


def test_permutation_character_budget(capsys):
    code, out, err = run_cli(capsys, "character", "--kind", "perm", "--lambda", "1,1,1,1,1,1,1,1,1")
    assert (code, out) == (3, "")
    assert err == "error: 362880 basis tuples exceed the cap of 40320\n"
    code, out, _ = run_cli(capsys, "ch", "--kind", "perm", "--lambda", "9", "--basis", "s")
    assert (code, out) == (0, "s[9]\n")


@pytest.mark.parametrize("argv", [
    ["partitions", "--d", "90"],
    ["compositions", "--n", "12", "--d", "40"],
    ["character", "--kind", "perm", "--lambda", "50"],
    ["character", "--kind", "specht", "--lambda", "12,10,8,6,4,2"],
    ["ch", "--kind", "perm", "--lambda", "50"],
    ["ch", "--kind", "specht", "--lambda", "41", "--basis", "s"],
    ["convert", "--expr", "s[41]", "--basis", "p"],
    ["kron", "--expr", "s[41] # s[41]", "--basis", "p"],
])
def test_listing_caps_refuse_in_a_child_process(argv):
    # More than 8! partitions or compositions are refused before any is listed.
    proc = subprocess.run(
        [sys.executable, "-m", "symkron.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "exceed the listing cap of 40320" in proc.stderr and "Traceback" not in proc.stderr


def test_matrix_listing_budget(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("margin matrix built")

    monkeypatch.setattr(ContingencyMatrix, "__init__", refuse)
    ones = ",".join("1" * 9)
    for argv in (
        ["contingency", "--lambda", ones, "--mu", ones],
        ["decompose-perm", "--lambda", ones, "--mu", ones, "--show-matrices"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: 362880 margin matrices exceed the listing cap of 40320\n"
    code, out, _ = run_cli(capsys, "contingency", "--lambda", ones, "--mu", ones, "--count-only")
    assert (code, out) == (0, "362880\n")


def build_parser() -> argparse.ArgumentParser:
    """The reference parser: argparse over the ``_COMMANDS`` table."""
    parser = argparse.ArgumentParser(prog="symkron")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in {**_FORMAT, **arguments}.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _outcome(read, argv):
    """The namespace ``read(argv)`` returns, as a dict, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(read(argv))
        except SystemExit as exc:
            return exc.code


FLAGS = sorted({flag for _, _, arguments in _COMMANDS.values() for flag in arguments}
               | {"--format", "--help"})


def _argparse_only(token):
    """Whether only argparse reads ``token``: ``--``, ``--flag=value``, an abbreviated
    flag, or an integer with a ``_``, a ``+`` or a non-ASCII digit."""
    if token == "--" or token.startswith("-") and "=" in token:
        return True
    if token.startswith("--") and token not in FLAGS:
        return any(flag.startswith(token) for flag in FLAGS)
    try:
        int(token)
    except ValueError:
        return False
    return not token.isascii() or "_" in token or "+" in token


def _joined_expr(argv):
    """``argv`` with each dash-led value after ``--expr`` spelled ``--expr=value``.

    The reader takes ``--expr -s[1]`` as the expression ``-s[1]``, where
    argparse sees two flags; argparse reads the joined spelling so.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--expr" and token[:1] == "-" and token[:2] != "--" and token != "-h":
            out[-1] = f"--expr={token}"
        else:
            out.append(token)
    return out


def _check_reader(argv):
    """The reader gives argparse's namespace or exit code, except that it refuses an
    argparse-only spelling (or prints help for a ``-h`` after one).  A dash-led
    value after ``--expr`` is checked against argparse on ``--expr=value``."""
    ours = _outcome(_read_args, argv)
    reference = _outcome(build_parser().parse_args, _joined_expr(argv))
    assert ours == reference or (ours in (0, 2) and any(map(_argparse_only, argv))), argv
    return ours


GOLDEN = Path(__file__).with_name("golden") / "cli.json"


def test_reader_agrees_with_argparse_on_every_golden_argv():
    records = [rec for recs in json.loads(GOLDEN.read_text()).values() for rec in recs]
    outcomes = [_check_reader(argv) for argv, *_ in records]
    assert sum(isinstance(o, dict) for o in outcomes) == 716
    assert sorted(o for o in outcomes if not isinstance(o, dict)) == [0] * 4 + [2] * 14


CHOICES = sorted({c for _, _, arguments in _COMMANDS.values()
                  for options in arguments.values() for c in options.get("choices", ())})
ODD = ["-h", "--d=2", "--form", "--he", "--"]
VALUES = ["", "3", "-1", "1_0", "+3", "\u0663", "x", "-x", "json", "s", "2,1", "s[2]", "-s[2]"]
VALUES += CHOICES


def _argvs(command):
    """``command`` and its required flags, then any flags, values and odd tokens, shuffled."""
    arguments = {**_COMMANDS[command][2], "--format": {}}
    value = st.sampled_from(VALUES)
    required = [st.tuples(st.just(flag), value)
                for flag, options in arguments.items() if options.get("required")]
    piece = st.one_of(
        st.tuples(st.sampled_from(sorted(arguments)), value),
        st.tuples(st.sampled_from(FLAGS + ODD + VALUES)),
    )
    pieces = st.tuples(st.tuples(*required), st.lists(piece, max_size=3)).flatmap(
        lambda parts: st.permutations(parts[0] + tuple(parts[1]))
    )
    return pieces.map(lambda ps: [command] + [token for p in ps for token in p])


if given is not None:

    @settings(deadline=None, max_examples=400)
    @given(st.sampled_from(sorted(_COMMANDS)).flatmap(_argvs))
    def test_reader_namespace_is_the_one_argparse_builds(argv):
        _check_reader(argv)
