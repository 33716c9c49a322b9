"""Post-processing: harvest per-simulation scalar outputs.

Each simulation is expected to leave one output file whose first
whitespace-delimited token is a number (the output pattern names the file,
e.g. ``results_{sim_id}.txt``). Harvesting keys values by simulation ID, so
results are identical no matter what order the files were written in.
Missing, unparseable or non-finite (``nan``, ``inf``) outputs become
explicit gaps plus a report entry instead of aborting; a long sweep with
one dead or diverged job stays salvageable. Bytes that are not UTF-8 are
read as lone surrogates, so an undecodable first token is "not a number".

One reader loop holds these rules. `collect_scalars` gathers what it reads
into a dict; `write_csv` writes each simulation's CSV row as its output is
read and keeps only the issues, so its memory does not grow with the number
of simulations that produced a value.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from . import templates
from .mapping import CartesianMapping, Mapping

__all__ = ["CollectIssue", "CollectedScalars", "collect_scalars", "export_csv"]


@dataclass(frozen=True)
class CollectIssue:
    sim_id: str
    path: str
    reason: str


@dataclass(frozen=True)
class CollectedScalars:
    """Harvested values with the same shape/keys as the source mapping.

    `values` maps sim_id to the parsed number, or None where the output was
    missing, unreadable or not finite (those IDs also appear in `issues`).
    """

    mapping: Mapping
    values: dict[str, float | None]
    issues: tuple[CollectIssue, ...]

    @property
    def complete(self) -> bool:
        return not self.issues

    def value_for(self, sim_id: str) -> float | None:
        if sim_id not in self.values:
            raise KeyError(f"unknown simulation id {sim_id!r}")
        return self.values[sim_id]

    def value_at(self, *indices: int) -> float | None:
        """Grid cell by multi-index; only for Cartesian mappings."""
        if not isinstance(self.mapping, CartesianMapping):
            raise TypeError("value_at applies to Cartesian mappings only")
        flat = self.mapping.flat_index(tuple(indices))
        return self.values[self.mapping.sim_ids[flat]]


def _number(token: str) -> float | None:
    """`token` read as an ASCII decimal number (or nan/inf), else None; float()
    alone also accepts digit separators (``1_000``) and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _formatted_cells(mapping: Mapping) -> Iterator[tuple[str, dict[str, str]]]:
    """(sim_id, parameter values as text) in mapping order, made again on each
    pass: a grid formats each distinct value once, an association mapping
    each set once."""
    if isinstance(mapping, CartesianMapping):
        return zip(mapping.sim_ids, templates.format_grid(mapping.coords))
    return (
        (sim_id, {name: templates.format_value(value) for name, value in params.items()})
        for sim_id, params in mapping.assignments.items()
    )


def _read_value(path: str) -> tuple[float | None, str | None]:
    """(value, None) for an output whose first token is a finite number, else
    (None, the reason)."""
    try:
        text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        return None, f"cannot read output: {exc.strerror or exc}"
    tokens = text.split(maxsplit=1)
    if not tokens:
        return None, "output file is empty"
    token = tokens[0]
    value = _number(token)
    if value is None:
        return None, f"first token {token!r} is not a number"
    if not math.isfinite(value):
        return None, f"first token {token!r} is not a finite number"
    return value, None


# (sim_id, values as text, value, issue): exactly one of value and issue is None
_Harvested = tuple[str, dict[str, str], float | None, CollectIssue | None]


def _harvest(mapping: Mapping, output_pattern: str) -> Iterator[_Harvested]:
    """One entry per simulation in mapping order, each output read as its
    entry is. The pattern is checked at once, before any output is read."""
    if "sim_id" not in templates.extract_placeholders(output_pattern):
        raise ValueError(f"output pattern {output_pattern!r} does not contain {{sim_id}}")

    def read() -> Iterator[_Harvested]:
        for sim_id, cell in _formatted_cells(mapping):
            path = templates.render(output_pattern, cell, sim_id)
            value, reason = _read_value(path)
            yield sim_id, cell, value, None if reason is None else CollectIssue(sim_id, path, reason)

    return read()


def collect_scalars(mapping: Mapping, output_pattern: str) -> CollectedScalars:
    """Read one scalar per simulation from files named by `output_pattern`.

    The pattern must contain ``{sim_id}``; it may also reference sweep
    parameters. Files are resolved relative to the current directory unless
    the pattern is absolute.
    """
    values: dict[str, float | None] = {}
    issues: list[CollectIssue] = []
    for sim_id, _cell, value, issue in _harvest(mapping, output_pattern):
        values[sim_id] = value
        if issue is not None:
            issues.append(issue)
    return CollectedScalars(mapping=mapping, values=values, issues=tuple(issues))


def _csv_writer(out: TextIO, names: tuple[str, ...]):
    """A CSV writer on `out` that has written the header row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*names, "value"])
    return writer


def _csv_row(names: tuple[str, ...], cell: dict[str, str], value: float | None) -> list[str]:
    return [*(cell[n] for n in names), "" if value is None else templates.format_value(value)]


def export_csv(collected: CollectedScalars) -> str:
    """CSV text: one header row `param1,...,paramN,value`, one row per
    simulation in mapping order. Missing values render as an empty field."""
    names = collected.mapping.parameter_names
    buffer = io.StringIO()
    writer = _csv_writer(buffer, names)
    for sim_id, cell in _formatted_cells(collected.mapping):
        writer.writerow(_csv_row(names, cell, collected.values.get(sim_id)))
    return buffer.getvalue()


def write_csv(mapping: Mapping, output_pattern: str, path: Path) -> list[CollectIssue]:
    """Harvest as `collect_scalars` does and write to `path` the text that
    `export_csv` would return, one row as each output is read. Returns the
    issues, the only thing kept per simulation. The pattern is checked
    before `path` is opened."""
    harvest = _harvest(mapping, output_pattern)
    names = mapping.parameter_names
    issues: list[CollectIssue] = []
    with path.open("w", encoding="utf-8") as out:
        writer = _csv_writer(out, names)
        for _sim_id, cell, value, issue in harvest:
            if issue is not None:
                issues.append(issue)
            writer.writerow(_csv_row(names, cell, value))
    return issues
