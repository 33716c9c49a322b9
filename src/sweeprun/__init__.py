"""sweeprun: parallel parameter sweeps over any external computational model.

One call runs a sweep: ``run_sweep(sweep, command, configs, dispatcher)``
numbers the sweep's parameter sets (``build_mapping``), fills each config
template per simulation (``render``), runs one job per set (``dispatch_all``:
bounded local parallelism, batch-scheduler scripts, or a dry run), and writes
the mapping and a run summary. A sweep is built in code or loaded from a
JSON sweep-spec file (``load_sweep_spec``). ``write_results`` harvests one
scalar output per simulation into a CSV and a report, as ``harvest`` yields
them. The commands ``sweeprun run`` and ``sweeprun collect`` are one call of
each.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib

# the module each public name comes from; it is imported the first time one
# of its names is read (PEP 562), so `import sweeprun` loads no submodule and
# each command loads only what it runs
_HOMES = {
    "collect": ("CollectIssue", "harvest", "write_results"),
    "dispatch": ("DispatcherConfig", "JobRecord", "JobSpec", "dispatch_all", "render_batch_script"),
    "filters": ("evaluate_filter", "free_variables", "parse_filter"),
    "mapping": (
        "AssociationMapping",
        "CartesianMapping",
        "build_mapping",
        "deserialize",
        "read_mapping",
        "serialize",
    ),
    "run": ("run_sweep",),
    "spec": ("load_sweep_spec",),
    "sweeps": (
        "CartesianSweep",
        "Choice",
        "FilteredCartesianSweep",
        "IntegerUniform",
        "LogUniform",
        "Normal",
        "RandomSweep",
        "SetSweep",
        "Uniform",
        "linspace",
    ),
    "templates": ("extract_placeholders", "format_value", "render"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_NAME_AT_HOME = {"evaluate_filter": "evaluate", "parse_filter": "parse"}
__all__ = ["__version__", "errors", *_HOME]


def __getattr__(name: str):
    if name == "errors":
        return importlib.import_module(".errors", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, _NAME_AT_HOME.get(name, name))
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

