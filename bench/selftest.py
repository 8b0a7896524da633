"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed always yields the same op list, that every checker
accepts the program's real output and rejects it with one coefficient
changed, that a refused op makes the run incorrect, and that the tracing
wrappers return the wrapped function's own result objects and record
cross-module calls.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def render(basis: str, terms: dict) -> str:
    out = []
    for i, (lam, c) in enumerate(terms.items()):
        atom = f"{basis}[{','.join(map(str, lam))}]"
        body = atom if abs(c) == 1 else f"{abs(c)}*{atom}"
        out.append(("-" if c < 0 else "") + body if i == 0 else f" {'-' if c < 0 else '+'} {body}")
    return "".join(out)


def bump_first_number(text: str) -> str:
    """The text with its first integer increased by one."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            return text[:i] + str(int(text[i:j]) + 1) + text[j:]
    raise ValueError("no number to change")


def corrupt(op: dict, stdout: str) -> str:
    """The same output with one coefficient (or entry, or count) changed."""
    kind = op["kind"]
    if kind in ("convert", "ch", "kron#", "kron."):
        basis, terms = checks.parse_symfunc(stdout)
        first = next(iter(terms))
        terms[first] += 1
        return render(basis, terms)
    if kind == "decompose-perm":
        pieces = checks.parse_multiset(stdout)
        pieces[0] = (pieces[0][0], pieces[0][1] + 1)
        return " + ".join(f"{m}*M[{','.join(map(str, p))}]" for p, m in pieces)
    if kind == "character":
        head, value = stdout.split("\n", 1)[0].split(": ")
        return f"{head}: {int(value) + 1}\n" + stdout.split("\n", 1)[1]
    if kind == "verify":
        return stdout.rstrip("\n").rsplit("\n", 1)[0] + f"\nFAIL {op['suite']}: 0 checks\n"
    return bump_first_number(stdout)


def cli_output(argv: list[str]) -> tuple[int, str]:
    cli = sys.modules["symkron.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_op_lists() -> None:
    for name, make in workloads.WORKLOADS.items():
        a, b, c = make(3), make(3), make(4)
        expect(workloads.digest(a) == workloads.digest(b), f"{name}: one seed gives one op list")
        expect(workloads.digest(a) != workloads.digest(c), f"{name}: another seed gives another op list")
        kinds = sorted(op["kind"] for op in a), sorted(op["kind"] for op in c)
        expect(kinds[0] == kinds[1], f"{name}: every seed gives the same command mix")
        orders = workloads.pass_order(a, 3, 1), workloads.pass_order(b, 3, 1)
        expect(orders[0] == orders[1], f"{name}: pass orders follow from the seed")


def test_cli_checkers() -> None:
    ops = workloads.cli_mix(0) + [
        {"kind": "verify", "suite": s, "argv": ["verify", "--suite", s, "--d", "3"]}
        for s in workloads.VERIFY_SUITE_MAX
    ]
    tested: dict[str, int] = {}
    for op in ops:
        rc, stdout = cli_output(op["argv"])
        result = {"rc": rc, "stdout": stdout, "stderr": ""}
        accepted = checks.classify_cli(op, result) is None
        rejected = checks.classify_cli(op, dict(result, stdout=corrupt(op, stdout))) is not None
        if not (accepted and rejected):
            expect(False, f"{' '.join(op['argv'])}: accepts real output {accepted}, rejects corrupted {rejected}")
        tested[op["kind"]] = tested.get(op["kind"], 0) + 1
    for kind in checks.CLI_CHECKERS:
        expect(tested.get(kind, 0) > 0, f"{kind}: checker accepts {tested.get(kind, 0)} real outputs "
               "and rejects each with one value changed")
    refused = checks.classify_cli(ops[0], {"rc": 3, "stdout": "", "stderr": "error: budget"})
    expect(refused is not None and refused[0] == "refused", "exit 3 counts as a refusal")


def test_refusal_fails_run() -> None:
    run = bench_run.Run("cli-mix", 0)
    refusal = {"wall_s": 0.001, "cpu_s": 0.001, "rc": 3, "stdout": "", "stderr": "error: budget exceeded"}
    run.spawn = lambda job: {"import_s": 0.05, "maxrss_kb": 1, "ops": [dict(refusal)]}
    run.one_pass(traced=False, order=0)
    line = bench_run.result(run, {})
    expect(line["correct"] is False and line["failed"] == line["attempted"] == len(run.ops),
           "a pass of refused ops makes the run incorrect")
    expect(not run.latencies, "refused ops add no latency samples")


def test_kron_checkers() -> None:
    pkg = sys.modules["symkron"]
    d = 4
    table = {}
    for i, lam in enumerate(checks.partitions(d)):
        for mu in checks.partitions(d)[i:]:
            f = pkg.kronecker(pkg.basis_element("s", lam), pkg.basis_element("s", mu))
            table[(lam, mu)] = {tuple(nu): Fraction(c) for nu, c in f.terms.items()}
    ok = all(checks.check_kron_pair({"lam": a, "mu": b}, t) is None for (a, b), t in table.items())
    expect(ok and not checks.check_kron_table(table), f"kron-pair: real table at degree {d} passes")
    all_caught = True
    for (lam, mu), row in table.items():
        for nu in row:
            bad = dict(row)
            bad[nu] += 1
            all_caught &= checks.check_kron_pair({"lam": lam, "mu": mu}, bad) is not None
    expect(all_caught, "kron-pair: every single changed coefficient is rejected")
    key = ((3, 1), (2, 1, 1))
    broken = dict(table)
    broken[key] = {**table[key], (2, 2): table[key].get((2, 2), 0) + 1}
    expect(key in checks.check_kron_table(broken), "kron-table: a changed entry breaks symmetry")


def test_tracing() -> None:
    tracer = tracing.install()
    pkg = sys.modules["symkron"]
    orig = tracer.originals["combinat.enumerate_partitions"]
    expect(pkg.enumerate_partitions is not orig, "public functions are rebound")
    expect(pkg.enumerate_partitions(6) is orig(6), "a wrapped call returns the identical object")
    table = tracer.originals["symfunc.build_kostka_table"]
    expect(sys.modules["symkron.grouporacle"].symfunc.build_kostka_table(5) is table(5),
           "a wrapped memoized table is the identical object")
    cli = sys.modules["symkron.cli"]
    expect(cli.decompose_permutation_tensor is not tracer.originals["contingency.decompose_permutation_tensor"],
           "cli's own imported binding is rebound")

    def parent_names(child: str) -> set[str]:
        names = {span: name for _, span, _, name, *_ in tracer.spans}
        return {names.get(parent) for _, _, parent, name, *_ in tracer.spans if name == child}

    cli_output(["decompose-perm", "--lambda", "3,1", "--mu", "2,1,1"])
    expect("cli.main" in parent_names("contingency.decompose_permutation_tensor"),
           "cli -> contingency call records a span under cli.main")
    # Degree 7 products are not yet memoized in this process.
    pkg.kronecker(pkg.basis_element("s", (7,)), pkg.basis_element("s", (6, 1)))
    expect("kronecker.kronecker" in parent_names("contingency.decompose_permutation_tensor"),
           "kronecker -> contingency call records a span under kronecker.kronecker")
    expect(all(end >= start for *_, start, end, _ in tracer.spans), "spans end after they start")


def main() -> int:
    import symkron  # noqa: F401
    import symkron.cli  # noqa: F401

    test_op_lists()
    test_cli_checkers()
    test_refusal_fails_run()
    test_kron_checkers()
    test_tracing()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
