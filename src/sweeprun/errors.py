"""Exception types shared by the sweeprun modules, and the few plain values
that more than one module reads. This module imports nothing, so any module
(and the command-line parser) can read it without loading another."""

from __future__ import annotations

# the dispatcher kinds: the parser's choices, and the kinds DispatcherConfig accepts
DISPATCHER_KINDS = ("local", "slurm", "pbs", "dry")
# how many paths, failed records or issues an error or a result holds; the rest are counted
KEPT = 10


def _byte_offset(source: str, pos: int) -> int:
    """The UTF-8 byte offset of character `pos` in `source`, as syntax errors report it."""
    return len(source[:pos].encode("utf-8", "surrogatepass"))


class SweepRunError(Exception):
    """Base class for all sweeprun errors."""


class EmptySweepError(SweepRunError):
    """A sweep definition that yields zero parameter sets."""


class FilterError(SweepRunError):
    """Base class for filter-expression errors."""


class FilterSyntaxError(FilterError):
    """Malformed filter source. `offset` is a byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class UnboundVariableError(FilterError):
    """A filter referenced a variable that is not in the parameter set."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class FilterTypeError(FilterError):
    """An operation was applied to operands of the wrong kind."""


class FilterArithmeticError(FilterError):
    """Arithmetic failure during filter evaluation (division by zero)."""


class TemplateError(SweepRunError):
    """Base class for template errors."""


class TemplateSyntaxError(TemplateError):
    """Malformed template braces. `offset` is a byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"template syntax error at offset {offset}: {message}")
        self.offset = offset


class UnfilledPlaceholderError(TemplateError):
    """A template placeholder has no matching parameter."""

    def __init__(self, name: str):
        super().__init__(f"no parameter provides a value for placeholder {{{name}}}")
        self.name = name


class SchedulerError(SweepRunError):
    """A batch-scheduler submit command failed; the sweep cannot continue.
    `records` holds the records of the jobs submitted before the failure."""

    def __init__(self, sim_id: str, message: str, records=()):
        super().__init__(f"submission failed for simulation {sim_id!r}: {message}")
        self.sim_id = sim_id
        self.records = tuple(records)
        self.summary_path = None  # the summary of `records`, which run_sweep writes before raising this again


class OutputConflictError(SweepRunError):
    """Output files from a previous sweep are in the way and overwrite is off.
    `paths` holds the first `KEPT` and `count` all of them; the rest are
    counted, not held."""

    def __init__(self, paths):
        shown, count = [], 0
        for count, path in enumerate(paths, 1):
            if count <= KEPT:
                shown.append(str(path))
        self.paths, self.count = tuple(shown), count
        more = f" (and {count - KEPT} more)" if count > KEPT else ""
        super().__init__(
            f"refusing to overwrite existing files: {', '.join(shown)}{more}; pass --overwrite to replace them"
        )


class MappingFormatError(SweepRunError):
    """A mapping document violates the sweep-mapping/1 schema."""
