"""Per-layer tracing of one `stretch-lab` invocation.

Run as ``python perfbench/tracer.py STATS.json <cli args...>`` with
``PYTHONPATH=src``.  It imports every stretchlab module, wraps the public
functions of each layer, runs ``stretchlab.cli.main`` on the arguments, and
writes the aggregated spans to STATS.json before it exits with the CLI's
exit code.

A wrapper records a span per call: it counts the call and adds the span's
self time, its duration minus the time its child spans cover, to the
function's total.  Spans are aggregated in memory per function (and per
caller -> callee pair) and written once at exit, so the file stays small
while `family --n 16` makes 150k `divrem` calls.  A few wrappers also
observe the result, to count useful outcomes for the ``*_ratio`` metrics.

Every module attribute bound to a wrapped function is replaced, so a copy
made by ``from .x import f`` is traced as well; so are the methods
``IntPolynomial.sign_at``, ``RootEnclosure.refined`` and the two
``to_json`` methods of ``roots``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

#: The traced layers: stretchlab module name -> metric prefix.  Metric names
#: must start with a letter, so `_kernels` reports as `kernels`.
LAYERS = {
    "poly": "poly",
    "roots": "roots",
    "classify": "classify",
    "matrices": "matrices",
    "_kernels": "kernels",
    "search": "search",
    "families": "families",
    "sharpness": "sharpness",
    "curvegraph": "curvegraph",
    "traintrack": "traintrack",
    "cli": "cli",
}


class Tracer:
    """Span aggregation with a caller stack; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.callers: Counter = Counter()  # (caller, callee) -> calls
        self.outcomes: Counter = Counter()
        self.distinct_chi: set = set()
        self._stack: list[list] = []  # [name, seconds covered by child spans]

    def wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = self.clock
        callers = self.callers

        @wraps(fn)
        def traced(*args, **kwargs):
            callers[(stack[-1][0] if stack else "", name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "callers": [[a, b, n] for (a, b), n in sorted(self.callers.items())],
            "outcomes": dict(self.outcomes),
            "distinct_chi": len(self.distinct_chi),
        }


def _observers(tracer: Tracer) -> dict:
    out = tracer.outcomes

    def divrem(args, res):
        out["poly.divrem.exact"] += bool(res.exact and res.remainder.is_zero())

    def strip(args, res):
        out["classify.strip_cyclotomic.hit"] += res[0].degree() > 0

    def scan(args, res):
        start, stop = args[2], args[3]
        out["kernels.scan.scanned"] += stop - start
        out["kernels.scan.survivors"] += len(res)

    def charpoly(args, res):
        if tracer.inside("search.run_search"):
            tracer.distinct_chi.add(tuple(res))

    def run_search(args, res):
        out["search.qualifying"] += res.count_qualifying

    def admissibility(args, res):
        out["families.admissible"] += bool(res.admissible)

    return {
        "poly.divrem": divrem,
        "classify.strip_cyclotomic": strip,
        "kernels.scan_primitive_unit_det": scan,
        "kernels.charpoly": charpoly,
        "search.run_search": run_search,
        "families.admissibility_report": admissibility,
    }


def _public_functions(module, layer: str):
    """(name, function) pairs the layer defines; `_kernels` re-exports its backend."""
    if layer == "_kernels":
        names = [n for n in module.__all__ if not n.startswith("_")]
    else:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, type) or not callable(obj):
            continue
        if layer != "_kernels" and getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, wherever it is bound."""
    import importlib

    from stretchlab import poly, roots

    modules = {layer: importlib.import_module(f"stretchlab.{layer}") for layer in LAYERS}
    observers = _observers(tracer)
    replacements = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for name, fn in _public_functions(module, layer):
            metric = f"{LAYERS[layer]}.{name}"
            if id(fn) not in replacements:
                replacements[id(fn)] = (fn, tracer.wrap(metric, fn, observers.get(metric)))
    for modname, module in list(sys.modules.items()):
        if not (modname == "stretchlab" or modname.startswith("stretchlab.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    methods = [
        (poly.IntPolynomial, "sign_at", "poly.sign_at"),
        (roots.RootEnclosure, "refined", "roots.refined"),
        (roots.RootEnclosure, "to_json", "roots.to_json"),
        (roots.ValueInterval, "to_json", "roots.to_json"),
    ]
    for cls, attr, metric in methods:
        setattr(cls, attr, tracer.wrap(metric, getattr(cls, attr)))


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import stretchlab.cli
    from stretchlab import roots

    tracer = Tracer()
    install(tracer)
    cache = roots.sturm_chain.__wrapped_original__
    code = 1
    try:
        code = stretchlab.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        info = cache.cache_info()
        report = tracer.report()
        report["sturm_cache"] = {"hits": info.hits, "misses": info.misses}
        with open(stats_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
