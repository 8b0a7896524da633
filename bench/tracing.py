"""Span tracing of symkron's layers, installed from outside the package.

``install()`` wraps every public function of every layer and rebinds each
module attribute that *is* the original function, so calls that go through
another module's ``from .x import f`` binding are traced too.  A layer is the
module that defines the function.  Public means the names re-exported by
``symkron/__init__.py`` plus the entry points listed in ``EXTRA``.

Each timed call records a span ``(op, id, parent, name, start, end, error)``
in memory.  The per-element helpers in ``COUNTED`` run millions of times in
the oracle, so they are only counted: their cost lands in the caller's self
time.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from functools import wraps
from types import ModuleType

from checks import multinomial

LAYERS = ("combinat", "contingency", "symfunc", "kronecker", "grouporacle", "expr", "cli", "verify")
EXTRA = {"expr": ("parse", "evaluate", "evaluate_components"), "cli": ("main",), "verify": ("run_verify",)}
COUNTED = {
    "grouporacle.act",
    "grouporacle.compose",
    "grouporacle.perm_sign",
    "combinat.sort_to_partition",
    "combinat.multinomial",
}


# Work counters: span name -> (counter, amount from (args, result)).
WORK = {
    "contingency.contingency_matrices": ("contingency.matrices_listed", lambda a, r: len(r)),
    "contingency.decompose_permutation_tensor": (
        "contingency.matrices_represented",
        lambda a, r: sum(r.values()),
    ),
    "grouporacle.tensor_orbit_decompose": (
        "grouporacle.orbit_pairs",
        lambda a, r: multinomial(sum(a[0]), a[0]) * multinomial(sum(a[1]), a[1]),
    ),
    "grouporacle.enumerate_tuples": ("grouporacle.tuples_enumerated", lambda a, r: len(r)),
    "symfunc.convert": ("symfunc.terms_out", lambda a, r: len(r.terms)),
}
# Memoized table builders: their cache misses are the tables built in a process.
BUILT = {
    "grouporacle.character_table": "grouporacle.character_tables_built",
    "symfunc.build_kostka_table": "symfunc.kostka_tables_built",
}


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, time covered by child spans]
        self.ids = itertools.count()
        self.depth: Counter = Counter()
        self.stats = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0} for layer in LAYERS}
        self.counters: Counter = Counter()
        self.caches: dict[str, list] = {layer: [] for layer in LAYERS}
        self.originals: dict = {}

    def timed(self, fn, layer: str, name: str):
        stats, stack, depth, spans = self.stats[layer], self.stack, self.depth, self.spans
        work = WORK.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = next(self.ids)
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            depth[layer] += 1
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                elapsed = end - start
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if not depth[layer]:
                    stats["total_s"] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                stats["errors"] += error
                spans.append((self.op, span, parent, name, start, end, error))
            if work:
                self.counters[work[0]] += work[1](args, result)
            return result

        return wrapper

    def counted(self, fn, layer: str):
        stats = self.stats[layer]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        layers = {}
        for layer in LAYERS:
            infos = [fn.cache_info() for fn in self.caches[layer]]
            layers[layer] = dict(
                self.stats[layer],
                cache_hits=sum(i.hits for i in infos),
                cache_misses=sum(i.misses for i in infos),
                cache_entries=sum(i.currsize for i in infos),
            )
        counters = dict(self.counters)
        for name, counter in BUILT.items():
            counters[counter] = self.originals[name].cache_info().misses
        return {"layers": layers, "counters": counters, "spans": self.spans}


def install() -> Tracer:
    """Wrap symkron's public functions in the running process."""
    tracer = Tracer()
    modules = {n: m for n, m in sys.modules.items() if n == "symkron" or n.startswith("symkron.")}
    for name, mod in modules.items():
        layer = name.rpartition(".")[2]
        if layer in tracer.caches:
            tracer.caches[layer] = [
                obj
                for obj in vars(mod).values()
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name
            ]
    targets = [
        obj
        for attr, obj in vars(modules["symkron"]).items()
        if not attr.startswith("_") and callable(obj) and not isinstance(obj, (type, ModuleType))
    ]
    for layer, names in EXTRA.items():
        targets.extend(getattr(modules[f"symkron.{layer}"], n) for n in names)
    targets.append(modules["symkron.grouporacle"].perm_sign)

    replacement = {}
    for fn in targets:
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}"
        tracer.originals[name] = fn
        wrapper = tracer.counted(fn, layer) if name in COUNTED else tracer.timed(fn, layer, name)
        replacement[id(fn)] = (fn, wrapper)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = replacement.get(id(value))
            if hit and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer
