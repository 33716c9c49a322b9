"""sweeprun: parallel parameter sweeps over any external computational model.

The pipeline: a sweep definition (built in code, or loaded from a JSON
sweep-spec file with ``load_sweep_spec``) expands into an ordered list of
parameter sets via ``sweep.generate()`` (or yields them one at a time via
``sweep.iter_sets()``); a ``SequentialNamer`` gives each
set a simulation ID; ``render`` fills configuration templates per
simulation; ``dispatch_all`` runs one job per set (bounded local
parallelism, generated batch-scheduler scripts, or a dry run); and
``build_mapping`` records which parameter set each simulation ID ran, for
post-processing with ``collect_scalars``. The ``sweeprun`` commands treat
the mapping as the plan: ``run`` builds it before writing any file and takes
every simulation of every pass from it, and ``collect`` reads it back.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .collect import CollectedScalars, CollectIssue, collect_scalars, export_csv
from .dispatch import (
    DispatcherConfig,
    JobRecord,
    JobSpec,
    dispatch_all,
    render_batch_script,
)
from .filters import evaluate as evaluate_filter
from .filters import free_variables
from .filters import parse as parse_filter
from .mapping import (
    AssociationMapping,
    CartesianMapping,
    build_mapping,
    deserialize,
    read_mapping,
    serialize,
)
from .naming import NamerConfig, SequentialNamer
from .spec import load_sweep_spec
from .sweeps import (
    CartesianSweep,
    Choice,
    FilteredCartesianSweep,
    IntegerUniform,
    LogUniform,
    Normal,
    RandomSweep,
    SetSweep,
    Uniform,
    linspace,
)
from .templates import extract_placeholders, format_value, render

__all__ = [
    "__version__",
    "errors",
    "load_sweep_spec",
    "linspace",
    "CartesianSweep",
    "FilteredCartesianSweep",
    "SetSweep",
    "RandomSweep",
    "Uniform",
    "LogUniform",
    "Normal",
    "IntegerUniform",
    "Choice",
    "parse_filter",
    "evaluate_filter",
    "free_variables",
    "extract_placeholders",
    "render",
    "format_value",
    "NamerConfig",
    "SequentialNamer",
    "JobSpec",
    "JobRecord",
    "DispatcherConfig",
    "dispatch_all",
    "render_batch_script",
    "CartesianMapping",
    "AssociationMapping",
    "build_mapping",
    "serialize",
    "deserialize",
    "read_mapping",
    "CollectIssue",
    "CollectedScalars",
    "collect_scalars",
    "export_csv",
]
