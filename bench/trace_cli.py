"""Run the sweeprun CLI with spans around each layer's public functions.

Usage: python trace_cli.py OUT.json -- <sweeprun arguments>

Spans are opened and closed by wrappers installed from this file; nothing in
sweeprun changes. Each span keeps its name, start, end and parent in memory.
After the command returns, per-name call counts, total and self time (a
span's duration minus the union of its children's intervals) are written to
OUT.json together with the counters below. A patch point that no longer
exists is reported under "absent" and the command still runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import subprocess
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path, span name)
FUNCTION_SPANS = (
    ("sweeprun.cli", "load_sweep_spec", "cli.spec_load"),
    ("sweeprun.sweeps", "CartesianSweep.generate", "sweeps.generate"),
    ("sweeprun.sweeps", "FilteredCartesianSweep.generate", "sweeps.generate"),
    ("sweeprun.filters", "evaluate", "filters.evaluate"),
    ("sweeprun.naming", "SequentialNamer.next_id", "naming.ids"),
    ("sweeprun.templates", "render", "templates.render"),
    ("sweeprun.mapping", "build_mapping", "mapping.build_mapping"),
    ("sweeprun.mapping", "serialize", "mapping.serialize"),
    ("sweeprun.mapping", "read_mapping", "mapping.read_mapping"),
    ("sweeprun.dispatch", "dispatch_all", "dispatch.dispatch_all"),
    ("sweeprun.collect", "collect_scalars", "collect.collect_scalars"),
    ("sweeprun.collect", "export_csv", "collect.export_csv"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a span opened on a worker thread belongs to the main thread's open span
        parents = stack or self._main_stack
        span = [name, time.perf_counter(), None, parents[-1] if parents else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def layers(self) -> dict[str, dict[str, float]]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - _covered(start, end, children.get(index, ()))
        return dict(out)


def _covered(start: float, end: float, intervals) -> float:
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _caller_module() -> str:
    return sys._getframe(2).f_globals.get("__name__", "")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, function) or None when the patch point is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _after(tracer: Tracer, span_name: str):
    def filters_evaluate(args, kwargs, kept):
        tracer.count("filters.kept", bool(kept))

    def serialize(args, kwargs, text):
        tracer.count("mapping.serialize.bytes", len(text.encode("utf-8")))

    def dispatch_all(args, kwargs, records):
        jobs = args[0] if args else kwargs["jobs"]
        config = args[1] if len(args) > 1 else kwargs["config"]
        tracer.count("dispatch.jobs", len(jobs))
        slots = config.resolved_max_parallel if config.kind == "local" and not config.dry_run else 1
        tracer.count("dispatch.slots", slots)

    def collect_scalars(args, kwargs, collected):
        tracer.count("collect.issues", len(collected.issues))

    return {
        "filters.evaluate": filters_evaluate,
        "mapping.serialize": serialize,
        "dispatch.dispatch_all": dispatch_all,
        "collect.collect_scalars": collect_scalars,
    }.get(span_name)


def install(tracer: Tracer) -> list[str]:
    """Wrap every patch point; return the ones that are absent."""
    absent = []
    for module_name, attr_path, span_name in FUNCTION_SPANS:
        found = _resolve(module_name, attr_path)
        if found is None:
            absent.append(f"{module_name}:{attr_path}")
            continue
        owner, attr, fn = found
        wrapper = _traced(tracer, span_name, fn, _after(tracer, span_name))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        # names bound by "from module import fn" elsewhere in the package
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("sweeprun") and getattr(module, attr, None) is fn:
                setattr(module, attr, wrapper)
    _install_io(tracer)
    return absent


def _routed(tracer: Tracer, fn, span_for):
    """Wrap a file or process call; ``span_for(calling module, args, kwargs)``
    names the span, or returns None to leave the call untraced."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span_for(_caller_module(), args, kwargs)
        if name is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _install_io(tracer: Tracer) -> None:
    """Spans on file and process calls, attributed by calling module and path."""

    def write_span(caller, args, kwargs):
        path, data = args[0], args[1] if len(args) > 1 else kwargs["data"]
        if caller == "sweeprun.dispatch":
            name = "dispatch.script_write"
        elif caller != "sweeprun.cli":
            return None
        elif path.name.endswith("_summary.json"):
            name = "cli.summary_write"
        elif path.name.endswith("_mapping.json"):
            name = "cli.mapping_write"
        elif path.name.endswith((".csv", "_collect_report.json")):
            name = "cli.collect_write"
        else:
            name = "cli.config_write"
        tracer.count(f"{name}.bytes", len(data.encode("utf-8")))
        return name

    def only_from(module: str, name: str):
        return lambda caller, args, kwargs: name if caller == module else None

    path_cls = pathlib.Path
    path_cls.write_text = _routed(tracer, path_cls.write_text, write_span)
    path_cls.read_text = _routed(tracer, path_cls.read_text, only_from("sweeprun.collect", "collect.output_read"))
    subprocess.run = _routed(tracer, subprocess.run, only_from("sweeprun.dispatch", "dispatch.job"))


def main(argv: list[str]) -> int:
    out_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: trace_cli.py OUT.json -- <sweeprun arguments>")
    import sweeprun.cli

    tracer = Tracer()
    absent = install(tracer)
    root = tracer.open("cli")
    try:
        code = sweeprun.cli.main(cli_args)
    finally:
        tracer.close(root)
    main_end = time.perf_counter()
    layers = tracer.layers()
    report = {
        "exit_code": code,
        "main_end": main_end,
        "summarised": time.perf_counter(),
        "absent": absent,
        "layers": layers,
        "counters": dict(tracer.counters),
        "job_seconds": [end - start for name, start, end, _ in tracer.spans if name == "dispatch.job"],
    }
    pathlib.Path(out_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
