"""Package-wide properties: the value semantics of the record types and the import set."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symkron import symfunc
from symkron.cli import _COMMANDS
from symkron.contingency import contingency_matrices
from symkron.expr import Atom, BinOp
from symkron.verify import Check, run_verify


def _records():
    return [
        (
            lambda: Atom("s", (2, 1)),
            "Atom(basis='s', parts=(2, 1))",
            "parts",
        ),
        (
            lambda: BinOp("#", Atom("s", (2, 1)), Atom("h", (1, 1, 1))),
            "BinOp(op='#', left=Atom(basis='s', parts=(2, 1)), "
            "right=Atom(basis='h', parts=(1, 1, 1)))",
            "op",
        ),
        (
            lambda: contingency_matrices((3, 1), (2, 1, 1))[0],
            "ContingencyMatrix(rows=((2, 1, 0), (0, 0, 1)), row_sums=(3, 1), "
            "col_sums=(2, 1, 1))",
            "rows",
        ),
        (
            lambda: Check("kostka d=2: x", True),
            "Check(name='kostka d=2: x', passed=True, detail='')",
            "passed",
        ),
    ]


@pytest.mark.parametrize(
    "make, text, field", _records(), ids=["Atom", "BinOp", "ContingencyMatrix", "Check"]
)
def test_records_are_immutable_values(make, text, field):
    first, second = make(), make()
    assert repr(first) == text
    assert first == second and first is not second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    assert repr(first) == text


SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_stays_light_and_at_module_level():
    # A fresh interpreter: pytest itself imports the modules checked for.
    code = "import sys, symkron, symkron.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "symkron.cli" in loaded
    assert not {"typing", "dataclasses", "inspect", "ast", "argparse", "gettext"} & set(loaded)
    # An import inside a function would only move its cost into every call.
    for path in sorted((SRC / "symkron").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{node.lineno} imports inside a function"
                    )


# One small well-formed call of each command, then help and refusals.
CALLS = [
    (["partitions", "--d", "2"], 0),
    (["compositions", "--n", "2", "--d", "2"], 0),
    (["kostka", "--shape", "2,1", "--content", "1,1,1"], 0),
    (["contingency", "--lambda", "2,1", "--mu", "2,1", "--count-only"], 0),
    (["decompose-perm", "--lambda", "2,1", "--mu", "2,1", "--oracle", "--format", "json"], 0),
    (["kron", "--expr", "s[2] # s[1,1]", "--basis", "s"], 0),
    (["convert", "--expr", "h[2,1]", "--basis", "m"], 0),
    (["character", "--kind", "perm", "--lambda", "2,1"], 0),
    (["ch", "--kind", "specht", "--lambda", "2,1", "--basis", "s"], 0),
    (["verify", "--suite", "jacobi-trudi", "--d", "2", "--seed", "1"], 0),
    (["-h"], 0),
    (["partitions", "-h"], 0),
    (["frobnicate"], 2),
    (["kostka", "--shape", "2,1"], 2),
]


def test_well_formed_calls_leave_argparse_help_and_locale_unloaded():
    # argparse loads gettext; its help formatter imports shutil, its message lookups locale.
    code = (
        "import contextlib, io, sys, symkron.cli\n"
        f"for argv, status in {CALLS!r}:\n"
        "    sink = io.StringIO()\n"
        "    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "        assert symkron.cli.main(argv) == status, argv\n"
        "print(*sorted(sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert {argv[0] for argv, _ in CALLS} > set(_COMMANDS)
    assert "symkron.cli" in loaded
    assert not {"argparse", "gettext", "shutil", "locale"} & set(loaded)


# Each memo must be a table that some workload reads; a new one needs a reason.
MEMOS = {
    "combinat._border_strips",
    # Every Kostka column adds strips to the shapes of its prefix's column,
    # and columns that share shapes would list the same strips again: that
    # listing is most of a column's work.
    "combinat._horizontal_strips",
    # A Kostka row removes strips of every size up to its cap from its shape,
    # and rows that share shapes would list them again; listed one size per
    # call, every row at degree 8 took 1.9 times as long, cold.
    "combinat._removal_strips",
    "combinat.class_sizes",
    "combinat.enumerate_partitions",
    "grouporacle._det_expansion",
    "grouporacle._perm_char",
    "grouporacle.character_table",
    "kronecker._kronecker_h",
    # omega relabels the same shapes on every e conversion; conjugating them
    # again doubled the time of a warm Kronecker table at degree 7.
    "symfunc._conjugate",
    # A Kostka column is read by every h and e conversion of its shape, and
    # each column is built on the column of its prefix.
    "symfunc._h_in_s",
    # An inverse Kostka column is read by every conversion from m of its
    # shape, and each column is built on the columns of its term less one
    # part, which the columns of terms with shared parts share.
    "symfunc._m_in_s",
    "symfunc._s_in_h",
    # A Kostka row is read by every conversion into m of its shape,
    # and each row is built on the rows of the shapes left by removing a
    # strip, which many rows share.
    "symfunc._s_in_m",
    "symfunc.build_kostka_table",
}
# The margin counts keep their states in module-level dicts, and the Kostka
# memos and the margin-rule classes key their entries by one shared object
# per shape, from combinat.
DICT_MEMOS = {"combinat._SHAPES", "contingency._CLASSES", "contingency._TABLES"}


def test_memo_inventory():
    found = set()
    uses = 0
    for path in sorted((SRC / "symkron").glob("*.py")):
        module = importlib.import_module(f"symkron.{path.stem}")
        found |= {
            f"{path.stem}.{obj.__qualname__}"
            for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        }
        # Counts memos nested in a function or class too, which vars() misses.
        uses += sum(
            isinstance(node, ast.Name) and node.id == "lru_cache"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    assert found == MEMOS
    assert uses == len(MEMOS)
    # No module-level dict outside the list fills up as the package works.
    dicts = {
        f"{path.stem}.{name}": obj
        for path in sorted((SRC / "symkron").glob("*.py"))
        for name, obj in vars(importlib.import_module(f"symkron.{path.stem}")).items()
        if type(obj) is dict and not name.startswith("__")
    }
    for name in DICT_MEMOS:
        dicts[name].clear()
    # The shape keys fill only as columns are walked.
    symfunc._h_in_s.cache_clear()
    sizes = {name: len(obj) for name, obj in dicts.items()}
    run_verify("all", 4)
    contingency_matrices((2, 1, 1), (3, 1))
    assert {name for name, obj in dicts.items() if len(obj) > sizes[name]} == DICT_MEMOS
