"""sweeprun: parallel parameter sweeps over any external computational model.

The pipeline: a sweep definition (built in code, or loaded from a JSON
sweep-spec file with ``load_sweep_spec``) expands into an ordered list of
parameter sets via ``sweep.generate()`` (or yields them one at a time via
``sweep.iter_sets()``); ``build_mapping`` numbers the sets in that order,
giving each a simulation ID, and records which parameter set each ID runs,
for post-processing with ``collect_scalars``; ``render`` fills configuration
templates per simulation; and ``dispatch_all`` runs one job per set (bounded
local parallelism, generated batch-scheduler scripts, or a dry run). The
``sweeprun`` commands treat the mapping as the plan: ``run`` builds it
before writing any file and takes every simulation of every pass from it,
and ``collect`` reads it back.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib

# the module each public name comes from; it is imported the first time one
# of its names is read (PEP 562), so `import sweeprun` loads no submodule and
# each command loads only what it runs
_HOMES = {
    "collect": ("CollectIssue", "CollectedScalars", "collect_scalars", "export_csv"),
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

