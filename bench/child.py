"""Fresh-interpreter bootstrap: times the import, runs a job, reports as JSON.

Reads one job from stdin and writes one JSON object to stdout.  The job is
either ``{"mode": "kron", "ops": [...]}``, a list of Kronecker products run
in this one warm session, or ``{"mode": "cli", "argv": [...]}``, one call of
``symkron.cli.main``.  With ``"trace": true`` the wrappers of ``tracing.py``
are installed after the import and before the first op.

Each op reports its wall time and its CPU time: the CPU seconds of this
process and of any child it waited for.  The ops are single-threaded and do
no I/O (their output is captured in memory), so the two differ only by the
time the process was off its CPU, preempted or with its virtual CPU taken by
the host: noise on a shared machine, which the end-to-end latencies leave
out.
"""

import sys
import time

_t0 = time.perf_counter()
import symkron  # noqa: E402
import symkron.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def cpu_clock() -> float:
    """CPU seconds of this process, its threads, and the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_kron(job, tracer):
    pkg = sys.modules["symkron"]
    out = []
    for k, op in enumerate(job["ops"]):
        if tracer:
            tracer.op = k
        start, cpu = time.perf_counter(), cpu_clock()
        try:
            result = pkg.kronecker(pkg.basis_element("s", op["lam"]), pkg.basis_element("s", op["mu"]))
        except Exception as exc:  # the op's own failure, reported to the runner
            out.append({"status": "crash", "detail": f"{type(exc).__name__}: {exc}"})
            continue
        cpu, wall = cpu_clock() - cpu, time.perf_counter() - start
        terms = [[list(nu), str(c)] for nu, c in result.terms.items()]
        out.append({"wall_s": wall, "cpu_s": cpu, "terms": terms})
    return out


def run_cli(job, tracer):
    cli = sys.modules["symkron.cli"]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer:
        tracer.op = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start, cpu = time.perf_counter(), cpu_clock()
        try:
            rc = cli.main(job["argv"])
        except Exception:  # the op's own failure, reported to the runner
            rc = None
            traceback.print_exc()
        cpu, wall = cpu_clock() - cpu, time.perf_counter() - start
    result = {"wall_s": wall, "cpu_s": cpu, "rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if rc is None:
        result.update(status="crash", detail=stderr.getvalue().strip().splitlines()[-1])
    return [result]


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.install()
    ops = run_kron(job, tracer) if job["mode"] == "kron" else run_cli(job, tracer)
    report = {
        "import_s": IMPORT_S,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if tracer:
        report["trace"] = tracer.report()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
