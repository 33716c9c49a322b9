"""Post-processing: harvest per-simulation scalar outputs.

Each simulation is expected to leave one output file whose first
whitespace-delimited token is a number (the output pattern names the file,
e.g. ``results_{sim_id}.txt``). Harvesting keys values by simulation ID, so
results are identical no matter what order the files were written in.
Missing, unparseable or non-finite (``nan``, ``inf``) outputs become
explicit gaps plus a report entry instead of aborting; a long sweep with
one dead or diverged job stays salvageable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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


def collect_scalars(mapping: Mapping, output_pattern: str) -> CollectedScalars:
    """Read one scalar per simulation from files named by `output_pattern`.

    The pattern must contain ``{sim_id}``; it may also reference sweep
    parameters. Files are resolved relative to the current directory unless
    the pattern is absolute.
    """
    if "sim_id" not in templates.extract_placeholders(output_pattern):
        raise ValueError(f"output pattern {output_pattern!r} does not contain {{sim_id}}")
    values: dict[str, float | None] = {}
    issues: list[CollectIssue] = []

    def record_issue(sim_id: str, path: str, reason: str):
        issues.append(CollectIssue(sim_id=sim_id, path=path, reason=reason))
        values[sim_id] = None

    for sim_id, cell in _formatted_cells(mapping):
        path = templates.render(output_pattern, cell, sim_id)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            record_issue(sim_id, path, f"cannot read output: {exc.strerror or exc}")
            continue
        tokens = text.split()
        if not tokens:
            record_issue(sim_id, path, "output file is empty")
            continue
        token = tokens[0]
        value = _number(token)
        if value is None:
            record_issue(sim_id, path, f"first token {token!r} is not a number")
            continue
        if math.isfinite(value):
            values[sim_id] = value
        else:
            record_issue(sim_id, path, f"first token {token!r} is not a finite number")
    return CollectedScalars(mapping=mapping, values=values, issues=tuple(issues))


def export_csv(collected: CollectedScalars) -> str:
    """CSV text: one header row `param1,...,paramN,value`, one row per
    simulation in mapping order. Missing values render as an empty field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    names = list(collected.mapping.parameter_names)
    writer.writerow(names + ["value"])
    for sim_id, cell in _formatted_cells(collected.mapping):
        row = [cell[n] for n in names]
        value = collected.values.get(sim_id)
        row.append("" if value is None else templates.format_value(value))
        writer.writerow(row)
    return buffer.getvalue()
