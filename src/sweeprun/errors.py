"""Exception types shared by the sweeprun modules."""

from __future__ import annotations


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


class NamerExhaustedError(SweepRunError):
    """More simulation IDs were requested than the namer was sized for."""


class SchedulerError(SweepRunError):
    """A batch-scheduler submit command failed; the sweep cannot continue.
    `records` holds the records of the jobs submitted before the failure."""

    def __init__(self, sim_id: str, message: str, records=()):
        super().__init__(f"submission failed for simulation {sim_id!r}: {message}")
        self.sim_id = sim_id
        self.records = tuple(records)


class OutputConflictError(SweepRunError):
    """Output files from a previous sweep are in the way and overwrite is off."""

    def __init__(self, paths):
        self.paths = tuple(str(p) for p in paths)
        listing = ", ".join(self.paths[:10])
        more = f" (and {len(self.paths) - 10} more)" if len(self.paths) > 10 else ""
        super().__init__(
            f"refusing to overwrite existing files: {listing}{more}; pass --overwrite to replace them"
        )


class MappingFormatError(SweepRunError):
    """A mapping document violates the sweep-mapping/1 schema."""
