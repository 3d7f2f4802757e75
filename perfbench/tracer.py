"""Per-layer tracing from outside the library.

Usage:
  python3 perfbench/tracer.py OUT_PREFIX JOB_ID cli ARG...   (one CLI job)
  python3 perfbench/tracer.py OUT_PREFIX - lib SESSION_JSON  (a lib session)

Every public function of the ten package modules is wrapped, and the wrapper
is bound in every module namespace (and module-level table) that holds the
original, because ``from .models import classify_profile`` gives ``series``,
``perturb`` and ``cli`` their own binding.  A few methods are patched on
their class.  Each wrapped call records a span (parent span, job, name,
start, end); spans stay in memory and are written to ``OUT_PREFIX.spans``
at exit, with per-name aggregates (calls, self time, ratio counters) in
``OUT_PREFIX.json``.  The traced program writes the same stdout bytes as an
untraced run; the benchmark checks that for every job.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "models", "geometry", "linalg", "series", "perturb",
          "kirwan", "residues", "polynomials", "configs")
METHODS = {
    ("linalg", "SpanBasis"): ("add", "add_int_row", "contains"),
    ("polynomials", "GradedPolynomial"): ("substitute", "__mul__"),
    ("geometry", "ProjectionCertificate"): ("verify",),
}


class Tracer:
    """Span store and per-name aggregates for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array.array("q")
        self.job = array.array("q")
        self.name = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.jobs: list[str] = []
        self.current_job = 0
        self.stack: list[list] = []   # [span id, time covered by children]
        self.counters: dict[str, float] = {}
        self.seen: dict[str, set] = {}   # per process, like the memos
        self.top_level_s = 0.0

    def set_job(self, job_id: str) -> None:
        self.jobs.append(job_id)
        self.current_job = len(self.jobs) - 1

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def seen_before(self, key: str, item) -> bool:
        bucket = self.seen.setdefault(key, set())
        if item in bucket:
            return True
        bucket.add(item)
        return False

    def wrap(self, name: str, fn, observe=None):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        perf = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            self.parent.append(parent)
            self.job.append(self.current_job)
            self.name.append(index)
            self.start.append(0.0)
            self.end.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.start[sid] = t0
                self.end[sid] = t1
                self.calls[index] += 1
                self.self_s[index] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_level_s += dur
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, name: str, fn):
        """Generators are counted, not timed: their time belongs to the
        consumer's span, interleaved with its own work."""
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name + ".yielded")
                yield item
        traced.__wrapped__ = fn
        return traced

    def write(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for column in (self.parent, self.job, self.name, self.start, self.end):
                column.tofile(fh)
        summary = {
            "names": self.names, "jobs": self.jobs, "spans": len(self.start),
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": self.counters, "top_level_s": self.top_level_s,
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(summary, fh)


# ratio counters, measured where the work happens


def _observe_closest(tracer: Tracer, args, cert) -> None:
    if not tracer.seen_before("geometry.closest_point_to_origin", cert.beta):
        tracer.count("geometry.closest_point_to_origin.distinct_betas")


def _observe_span_add(tracer: Tracer, args, grew) -> None:
    if grew:
        tracer.count("linalg.SpanBasis.add.independent")


def _observe_semistable(tracer: Tracer, args, result) -> None:
    model, trunc = args
    key = (model.rank, tuple(sorted(tuple(sorted(f)) for f in model.factors)),
           model.form.gram, trunc)
    if tracer.seen_before("series.semistable_series", key):
        tracer.count("series.semistable_series.repeats")


OBSERVERS = {
    "geometry.closest_point_to_origin": _observe_closest,
    "linalg.SpanBasis.add": _observe_span_add,
    "series.semistable_series": _observe_semistable,
}


def _rebind(container, replace):
    """Swap originals for wrappers inside a module-level dict or tuple."""
    if isinstance(container, dict):
        for key, value in list(container.items()):
            new = _rebind(value, replace)
            if new is not value:
                container[key] = new
        return container
    if isinstance(container, tuple):
        items = tuple(_rebind(v, replace) for v in container)
        return items if any(a is not b for a, b in zip(items, container)) else container
    try:
        return replace.get(container, container)
    except TypeError:   # unhashable value
        return container


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and the listed methods."""
    package = importlib.import_module("moment_strata")
    modules = {layer: importlib.import_module(f"moment_strata.{layer}")
               for layer in LAYERS}
    replace: dict = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                replace[obj] = tracer.wrap_generator(name, obj)
            else:
                replace[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
    for module in [package, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            new = _rebind(obj, replace)
            if new is not obj:
                setattr(module, attr, new)
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for method in methods:
            name = f"{layer}.{cls_name}.{method.strip('_')}"
            setattr(cls, method, tracer.wrap(name, getattr(cls, method),
                                             OBSERVERS.get(name)))


def main(argv: list[str]) -> int:
    prefix, job_id, mode, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer()
    install(tracer)
    try:
        if mode == "cli":
            from moment_strata import cli
            tracer.set_job(job_id)
            code = cli.main(rest)
        else:
            import lib_session
            code = lib_session.main(rest[0], on_job=tracer.set_job)
        sys.stdout.flush()
    finally:
        tracer.write(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
