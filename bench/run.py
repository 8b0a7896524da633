"""symkron benchmark: seeded workloads, checked outputs, end-to-end and layer metrics.

    python3 bench/run.py --workload kron-table|cli-mix|verify-suites \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every op runs in a fresh child interpreter
(``child.py``) with ``PYTHONPATH=src``, so the package is measured as it
stands in the tree, from outside.  The runner checks each output with
``checks.py``, which never calls symkron.

With ``--trace 0`` the run makes a fixed number of whole passes over the op
list, set by ``--seconds`` alone, and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics; the spans are written to ``bench/out/``.  Human-readable lines come first; the
last line of stdout is the JSON result.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from checks import check_kron_pair, check_kron_table, classify_cli
from tracing import LAYERS
from workloads import WORKLOADS, digest, pass_order

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OUT = BENCH / "out"

RUN_LIMIT_S = 170  # every run must end within 180 s
OP_TIMEOUT_S = 60
# Seconds of --seconds that buy one pass.  A run makes exactly
# ceil(seconds / this) passes, so one --seconds measures the same ops, in the
# same orders, however fast the code under test is.  At --seconds 30 that is
# 12, 2 and 5 passes, about 25, 35 and 60 s on a 2-vCPU Xeon VM.  With five
# verify-suites passes, op_tail_s (the 11th-largest sample) falls in the
# middle of the ten samples of `verify --suite monoidal --d 5` and
# `verify --suite all --d 5`, whose costs overlap, not near an edge of that
# group, where one op's noise (about 20% between runs) moves it most.
PASS_SECONDS = {"kron-table": 2.5, "cli-mix": 16.0, "verify-suites": 7.0}

FAIL_KINDS = ("wrong", "crash", "refused", "timeout")
LAYER_FIELDS = ("calls", "self_s", "total_s", "errors", "cache_hits", "cache_misses", "cache_entries")


def child_env() -> dict:
    """Children see no SYMKRON_* budgets and no PYTHON* settings of the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("SYMKRON_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """All children of one benchmark run, with what they measured."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.ops = WORKLOADS[workload](seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.traces: list[tuple[int | None, dict]] = []
        self.reset()

    def reset(self):
        self.pass_rates: list[float] = []
        self.latencies: list[float] = []
        self.imports: list[float] = []
        self.rss_kb: list[int] = []
        self.attempted = 0
        self.failures: list[tuple[dict, str, str]] = []  # (op, kind, reason)

    def spawn(self, job: dict) -> dict:
        """One child; a lost or late child comes back as ``{"status": ...}``."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"status": "timeout", "detail": "run time limit reached"}
        try:
            proc = subprocess.run(
                # -S: no site import, which costs more than the op on this
                # class of machine; the children need only the stdlib and src.
                [sys.executable, "-S", str(CHILD)],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"status": "timeout", "detail": f"no result within {timeout:.0f} s"}
        try:
            report = json.loads(proc.stdout) if proc.returncode == 0 else None
        except json.JSONDecodeError:
            report = None
        if report is None:
            lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            return {"status": "crash", "detail": lines[-1]}
        self.imports.append(report["import_s"])
        self.rss_kb.append(report["maxrss_kb"])
        return report

    def one_pass(self, traced: bool, order: int) -> float:
        """Run the op list once in its ``order``-th seeded order; return the summed op wall time.

        An op's latency is its CPU time in the child (see ``child.py``).
        Only ops that passed their check count towards the latencies, so an
        op that fails fast cannot make a run look faster.
        """
        ops = pass_order(self.ops, self.seed, order)
        if self.workload == "kron-table":
            results = self.kron_pass(ops, traced)
        else:
            results = self.cli_pass(ops, traced)
        self.attempted += len(results)
        latencies = [res["cpu_s"] for res, ok in results if ok]
        self.latencies.extend(latencies)
        if latencies and sum(latencies):
            self.pass_rates.append(len(latencies) / sum(latencies))
        return sum(res["wall_s"] for res, ok in results if ok)

    def kron_pass(self, ops: list[dict], traced: bool) -> list[tuple[dict, bool]]:
        """Each op's result with whether it passed its checks."""
        report = self.spawn({"mode": "kron", "ops": ops, "trace": traced})
        results = report.get("ops") or [dict(report) for _ in ops]
        table, failed = {}, set()
        keys = []
        for op, res in zip(ops, results):
            lam, mu = tuple(op["lam"]), tuple(op["mu"])
            key = (lam, mu) if lam >= mu else (mu, lam)
            keys.append(key)
            if "terms" not in res:
                self.failures.append((op, res["status"], res.get("detail", "")))
                failed.add(key)
                continue
            terms = {tuple(nu): Fraction(c) for nu, c in res["terms"]}
            reason = check_kron_pair(op, terms)
            if reason:
                self.failures.append((op, "wrong", reason))
                failed.add(key)
            table[key] = terms
        for (lam, mu), reason in check_kron_table(table).items():
            if (lam, mu) not in failed:
                self.failures.append(({"lam": lam, "mu": mu}, "wrong", reason))
                failed.add((lam, mu))
        if "trace" in report:
            self.traces.append((None, report["trace"]))
        return [(res, key not in failed) for res, key in zip(results, keys)]

    def cli_pass(self, ops: list[dict], traced: bool) -> list[tuple[dict, bool]]:
        """Each op's result with whether it passed its check."""
        results = []
        for k, op in enumerate(ops):
            report = self.spawn({"mode": "cli", "argv": op["argv"], "trace": traced})
            res = report["ops"][0] if "ops" in report else report
            failure = classify_cli(op, res)
            if failure:
                self.failures.append((op, *failure))
            if "trace" in report:
                self.traces.append((k, report["trace"]))
            results.append((res, failure is None))
        return results


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "symkron").glob("*.py"))


def git_sha() -> str:
    # The ceiling keeps git from reporting a repository that merely contains
    # an exported tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float) -> dict | None:
    start = time.monotonic()
    for order in range(max(1, math.ceil(seconds / PASS_SECONDS[run.workload]))):
        run.one_pass(traced=False, order=order)
    run.measured_s = time.monotonic() - start
    if not run.latencies:
        return None
    value, pct = tail(run.latencies)
    run.tail_pct = pct
    return {
        "ops_per_s": metric(statistics.median(run.pass_rates), "1/s"),
        "op_p50_s": metric(statistics.median(run.latencies), "s"),
        "op_tail_s": metric(value, "s"),
        "peak_rss_mb": metric(max(run.rss_kb) / 1024, "MB"),
        "setup_s": metric(statistics.median(run.imports), "s"),
    }


def trace_metrics(run: Run) -> dict | None:
    untraced = run.one_pass(traced=False, order=0)
    traced = run.one_pass(traced=True, order=0)
    if not (untraced and traced and run.traces):
        return None
    out = {}
    self_total = 0.0
    counters: dict[str, int] = {}
    for layer in LAYERS:
        rows = [t["layers"][layer] for _, t in run.traces]
        total = {key: sum(r[key] for r in rows) for key in LAYER_FIELDS}
        lookups = total["cache_hits"] + total["cache_misses"]
        out[f"{layer}.calls"] = metric(total["calls"], "count")
        out[f"{layer}.self_s"] = metric(total["self_s"], "s")
        out[f"{layer}.total_s"] = metric(total["total_s"], "s")
        out[f"{layer}.errors"] = metric(total["errors"], "count")
        out[f"{layer}.cache_hit_ratio"] = metric(total["cache_hits"] / lookups if lookups else 0.0, "ratio")
        out[f"{layer}.cache_entries"] = metric(total["cache_entries"], "count")
        self_total += total["self_s"]
    for _, t in run.traces:
        for name, count in t["counters"].items():
            counters[name] = counters.get(name, 0) + count
    for name in (
        "contingency.matrices_listed",
        "contingency.matrices_represented",
        "grouporacle.orbit_pairs",
        "grouporacle.tuples_enumerated",
        "grouporacle.character_tables_built",
        "symfunc.kostka_tables_built",
        "symfunc.terms_out",
    ):
        out[name] = metric(counters.get(name, 0), "count")
    out["trace.overhead_frac"] = metric(traced / untraced - 1, "ratio")
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.unattributed_s"] = metric(traced - self_total, "s")
    return out


def write_spans(run: Run, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload}-seed{seed}-spans.jsonl"
    with path.open("w") as fh:
        for op_index, t in run.traces:
            for op, span, parent, name, start, end, error in t["spans"]:
                op_id = op if op_index is None else op_index
                fh.write(json.dumps([op_id, span, parent, name, start, end, error]) + "\n")
    return path


def print_report(run: Run, seed: int, metrics: dict, trace: bool) -> None:
    print(f"workload {run.workload}  seed {seed}  op list {digest(run.ops)} ({len(run.ops)} ops)")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    elif metrics:
        n, procs = len(run.latencies), len(run.imports)
        samples = {
            "ops_per_s": f"median of {len(run.pass_rates)} passes, {run.measured_s:.1f} s",
            "op_p50_s": f"{n} ops",
            "op_tail_s": f"p{run.tail_pct:.1f} of {n} ops",
            "peak_rss_mb": f"max of {procs} processes",
            "setup_s": f"median of {procs} processes",
        }
        for name, m in metrics.items():
            print(f"  {name:16s} {m['value']:>12.6g} {m['unit']:4s} ({samples[name]})")
    counts = {kind: sum(1 for f in run.failures if f[1] == kind) for kind in FAIL_KINDS}
    frac = len(run.failures) / run.attempted
    print(f"  {'ops_failed_frac':16s} {frac:>12.6g} {'':4s} ("
          + ", ".join(f"{k} {v}" for k, v in counts.items()) + f" of {run.attempted} attempted)")
    for op, kind, reason in run.failures:
        shown = " ".join(op["argv"]) if "argv" in op else f"s{tuple(op['lam'])} # s{tuple(op['mu'])}"
        print(f"  FAILED [{kind}] {shown}: {reason}")
    print(f"  meta: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"src lines {source_lines()}, git {git_sha()}")


def result(run: Run, metrics: dict) -> dict:
    """The result line: any failing op, whatever its kind, makes the run incorrect."""
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symkron" / "__init__.py").is_file():
        print(f"error: no symkron package under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    # Fill the bytecode cache before anything is timed.
    if "status" in run.spawn({"mode": "cli", "argv": ["partitions", "--d", "1"]}):
        print("error: the symkron package does not run", file=sys.stderr)
        return 2
    run.reset()

    if args.trace:
        metrics = trace_metrics(run)
        print(f"spans written to {write_spans(run, args.seed).relative_to(ROOT)}")
    else:
        metrics = measure(run, args.seconds)
    if metrics is None:
        print_report(run, args.seed, {}, bool(args.trace))
        print("error: no op completed, nothing to measure", file=sys.stderr)
        return 1
    print_report(run, args.seed, metrics, bool(args.trace))
    print(json.dumps(result(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
