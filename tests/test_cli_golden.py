"""Byte-for-byte CLI regression: stdout, stderr and exit code of every command.

``golden/cli.json`` maps each command to a list of ``[argv, exit code,
stdout, stderr]`` records, covering text and JSON output at degrees up to 4
(characters and their images under ch up to 6) and the exit-2 and exit-3
paths.  After an intended output change, re-record
it with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review the
diff of the data file.

The help, usage and error records are the text argparse wrote under Python
3.11 at 80 columns.  ``symkron.cli`` writes it itself at a fixed width, so
every record holds on every Python version, and those with a ``usage:`` block
are replayed with ``COLUMNS`` unset, narrow and wide.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from symkron.cli import main
from symkron.combinat import enumerate_compositions, enumerate_partitions, format_parts

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
BASES = ("m", "e", "h", "s", "p")
SUITES = ("monoidal", "orthonormality", "kostka", "jacobi-trudi", "all")
ONES_9 = ",".join("1" * 9)


def _pairs(max_d=4):
    return [
        (lam, mu)
        for d in range(max_d + 1)
        for lam in enumerate_partitions(d)
        for mu in enumerate_partitions(d)
    ]


def _expr(basis, lam):
    return f"{basis}[{','.join(map(str, lam))}]"


def _sum(basis, d):
    """Every basis element of degree ``d``, with distinct coefficients."""
    return " + ".join(
        f"{k}*{_expr(basis, lam)}" for k, lam in enumerate(enumerate_partitions(d), 1)
    )


def cases() -> dict[str, list[list[str]]]:
    """Argument vectors per command; each runs in text and JSON format."""
    fmt = format_parts
    out = {
        "partitions": [["partitions", "--d", str(d)] for d in range(5)],
        "compositions": [
            ["compositions", "--n", str(n), "--d", str(d)] for n in range(4) for d in range(5)
        ],
        "kostka": [["kostka", "--shape", fmt(a), "--content", fmt(b)] for a, b in _pairs(3)]
        + [["kostka", "--shape", fmt(a), "--content", "2,1,1"] for a in enumerate_partitions(4)]
        + [["kostka", "--shape", "2,1", "--content", fmt(c)]
           for c in enumerate_compositions(3, 3)],
        "contingency": [["contingency", "--lambda", fmt(a), "--mu", fmt(b)]
                        for a, b in _pairs(2)]
        + [["contingency", "--lambda", a, "--mu", b]
           for a, b in [("2,1", "2,1"), ("3", "1,1,1"), ("1,1,1", "2,1"), ("2,2", "3,1")]]
        + [["contingency", "--lambda", fmt(a), "--mu", fmt(b), "--count-only"]
           for a, b in _pairs()]
        + [["contingency", "--lambda", "2,0,1", "--mu", "1,1,1"],
           ["contingency", "--lambda", "2,2", "--mu", "1,2,1"]],
        "decompose-perm": [["decompose-perm", "--lambda", fmt(a), "--mu", fmt(b)]
                           for a, b in _pairs(3)]
        + [["decompose-perm", "--lambda", fmt(a), "--mu", "2,1,1"]
           for a in enumerate_partitions(4)]
        + [["decompose-perm", "--lambda", a, "--mu", b, "--oracle", "--show-matrices"]
           for a, b in [("2", "1,1"), ("2,1", "2,1"), ("3", "1,1,1"), ("2,2", "3,1")]]
        + [["decompose-perm", "--lambda", "2,0,2", "--mu", "1,2,1", "--oracle"]],
        "kron": [["kron", "--expr", f"{_expr('s', a)} # {_expr('s', b)}"] for a, b in _pairs(3)]
        + [["kron", "--expr", f"{_expr(x, (3, 1))} # {_expr(y, (2, 1, 1))}", "--basis", z]
           for i, x in enumerate(BASES) for j, y in enumerate(BASES)
           for z in [BASES[(i + j) % 5]]]
        + [["kron", "--expr", "1/2*h[2] . e[1] - 3*p[1,1,1]"],
           ["kron", "--expr", "h[1] + s[2]", "--formal", "--basis", "m"],
           ["kron", "--expr", "h[1] + s[2]", "--formal"]],
        "convert": [["convert", "--expr", _sum(x, 3), "--basis", y] for x in BASES for y in BASES]
        + [["convert", "--expr", _sum(x, 4), "--basis", BASES[i - 1]]
           for i, x in enumerate(BASES)]
        + [["convert", "--expr", "2/3*s[2,2] - e[3] . h[1]", "--basis", "p"]],
        "character": [["character", "--kind", k, "--lambda", fmt(lam)]
                      for k in ("perm", "specht") for d in range(7)
                      for lam in enumerate_partitions(d)],
        "ch": [["ch", "--kind", k, "--lambda", fmt(lam)]
               for k in ("perm", "specht") for d in range(4) for lam in enumerate_partitions(d)]
        + [["ch", "--kind", k, "--lambda", lam]
           for k in ("perm", "specht") for lam in ("2,2", "2,1,1")]
        + [["ch", "--kind", k, "--lambda", "2,1", "--basis", b]
           for k in ("perm", "specht") for b in BASES]
        + [["ch", "--kind", k, "--lambda", fmt(lam)]
           for k in ("perm", "specht") for d in (5, 6) for lam in enumerate_partitions(d)],
        "verify": [["verify", "--suite", s, "--d", "2"] for s in SUITES]
        + [["verify", "--suite", "all", "--d", "4", "--seed", "7"]],
        "errors": [
            ["character", "--kind", "specht", "--lambda", "1,2"],
            ["ch", "--kind", "perm", "--lambda", "2,0"],
            ["kostka", "--shape", "x", "--content", "1"],
            ["kostka", "--shape", "2,1", "--content", "1,-1"],
            ["contingency", "--lambda", "2,x", "--mu", "1,1"],
            ["kostka", "--shape", "2,1", "--content", "2"],
            ["contingency", "--lambda", "2", "--mu", "1"],
            ["contingency", "--lambda", "2", "--mu", "1", "--count-only"],
            ["decompose-perm", "--lambda", "2,1", "--mu", "1,1"],
            ["kron", "--expr", "s[1] # s[2]"],
            ["kron", "--expr", "s[1] +"],
            ["kron", "--expr", "h[1,2]"],
            ["convert", "--expr", "h[1] + h[2]", "--basis", "h"],
            ["partitions", "--d", "-1"],
            ["compositions", "--n", "-1", "--d", "2"],
            ["character", "--kind", "perm", "--lambda", ONES_9],
            ["ch", "--kind", "perm", "--lambda", ONES_9],
            ["contingency", "--lambda", ONES_9, "--mu", ONES_9],
            ["decompose-perm", "--lambda", ONES_9, "--mu", ONES_9, "--show-matrices"],
            ["decompose-perm", "--lambda", "4,2,1", "--mu", "1,1,1,1,1,1,1", "--oracle"],
            ["verify", "--suite", "kostka", "--d", "9"],
            ["verify", "--suite", "bogus", "--d", "1"],
            ["verify", "--suite", "kostka", "--d", "-1"],
            ["kostka", "--shape", "2,1"],
            ["frobnicate"],
            [],
            ["-h"],
            ["partitions", "-h"],
            ["partitions", "--d", "3", "--bogus"],
            ["partitions", "--d", "3", "extra"],
            ["part", "--d", "2"],
        ],
    }
    return {
        name: [argv + fmt for argv in argvs for fmt in ([], ["--format", "json"])]
        for name, argvs in out.items()
    }


def record(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("command", sorted(cases()))
def test_cli_output_matches_golden(monkeypatch, command):
    golden = json.loads(GOLDEN.read_text())[command]
    assert [rec[0] for rec in golden] == cases()[command]
    # Every record with COLUMNS unset; those with usage text also narrow and wide.
    for columns in (None, "40", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        for rec in golden:
            if columns is None or "usage:" in rec[2] + rec[3]:
                assert record(rec[0]) == rec


if __name__ == "__main__":
    data = {command: [record(argv) for argv in argvs] for command, argvs in cases().items()}
    lines = ",\n".join(
        f"{json.dumps(command)}: [\n" + ",\n".join(json.dumps(rec) for rec in recs) + "\n]"
        for command, recs in sorted(data.items())
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + lines + "\n}\n")
