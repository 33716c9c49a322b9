"""Post-processing: harvest per-simulation scalar outputs.

Each simulation is expected to leave one output file whose first
whitespace-delimited token is a number (the output pattern names the file,
e.g. ``results_{sim_id}.txt``). Harvesting keys values by simulation ID, so
results are identical no matter what order the files were written in.
Missing, unparseable or non-finite (``nan``, ``inf``) outputs become
explicit gaps plus a report entry instead of aborting; a long sweep with
one dead or diverged job stays salvageable. Bytes that are not UTF-8 are
read as lone surrogates, so an undecodable first token is "not a number".

One reader loop holds these rules. It takes each simulation's ID and
values as text from `mapping.cells`, as `run` does. `collect_scalars`
gathers what it reads into a dict; `write_results`, the `collect` command,
writes each simulation's CSV row and each issue's report entry as its
output is read, so its memory does not grow with the number of
simulations, whether their outputs are readable or not. It refuses an
output that is the CSV or the report.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from . import files, templates
from .errors import KEPT
from .mapping import CartesianMapping, Mapping, cells

__all__ = ["CollectIssue", "CollectedScalars", "Results", "collect_scalars", "export_csv", "write_results"]

REPORT_SCHEMA = "sweep-collect-report/1"


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


def _read_value(path: str) -> tuple[float | None, str | None]:
    """(value, None) for an output whose first token is a finite number, else
    (None, the reason)."""
    if path.endswith(("/", "/.")):  # read as Path names it: the file before the '/'
        path = str(Path(path))
    try:
        text = files.read_bytes(path).decode("utf-8", "surrogateescape")
    except OSError as exc:
        return None, f"cannot read output: {exc.strerror or exc}"
    except ValueError as exc:  # a NUL in the path, or a character the file system cannot encode
        return None, f"cannot read output: {exc}"
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


def _harvest(mapping: Mapping, output_pattern: str, taken: dict[str, str]) -> Iterator[_Harvested]:
    """One entry per simulation in mapping order, each output read as its
    entry is. The pattern is checked before any output is read. An output
    that is one of the `taken` files (resolved path -> option, as
    `files.require_documents` returns them) raises ValueError naming the
    option and the sim_id; the output path is taken with '.' and '..'
    applied as written."""
    if "sim_id" not in templates.extract_placeholders(output_pattern):
        raise ValueError(f"output pattern {output_pattern!r} does not contain {{sim_id}}")
    here = os.getcwd()
    # a path names one of those files only if its last part is that file's name
    last_parts = {os.path.basename(path) for path in taken}
    for sim_id, cell in cells(mapping):
        path = templates.render(output_pattern, cell, sim_id)
        if path.rpartition("/")[2] in last_parts:
            name = taken.get(os.path.normpath(os.path.join(here, path)))
            if name is not None:
                raise ValueError(
                    f"{name} is the output of simulation {sim_id!r}, {path}; give it another path"
                )
        value, reason = _read_value(path)
        yield sim_id, cell, value, None if reason is None else CollectIssue(sim_id, path, reason)


def collect_scalars(mapping: Mapping, output_pattern: str) -> CollectedScalars:
    """Read one scalar per simulation from files named by `output_pattern`.

    The pattern must contain ``{sim_id}``; it may also reference sweep
    parameters. Files are resolved relative to the current directory unless
    the pattern is absolute.
    """
    values: dict[str, float | None] = {}
    issues: list[CollectIssue] = []
    for sim_id, _cell, value, issue in _harvest(mapping, output_pattern, {}):
        values[sim_id] = value
        if issue is not None:
            issues.append(issue)
    return CollectedScalars(mapping=mapping, values=values, issues=tuple(issues))


def _csv_writer(out: TextIO, names: tuple[str, ...]):
    """A CSV writer on `out` that has written the header row."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*names, "value"])
    return writer


def _csv_row(cell: dict[str, str], value: float | None) -> list[str]:
    """A cell's CSV row: `cells` lists each cell's values in the order of the
    mapping's parameter names, which is the header's."""
    return [*cell.values(), "" if value is None else templates.format_value(value)]


def export_csv(collected: CollectedScalars) -> str:
    """CSV text: one header row `param1,...,paramN,value`, one row per
    simulation in mapping order. Missing values render as an empty field."""
    buffer = io.StringIO()
    writer = _csv_writer(buffer, collected.mapping.parameter_names)
    for sim_id, cell in cells(collected.mapping):
        writer.writerow(_csv_row(cell, collected.values.get(sim_id)))
    return buffer.getvalue()


@dataclass(frozen=True)
class Results:
    """What `write_results` wrote, the report's counts (total, collected and
    missing, the number of issues), and the first `KEPT` issues in mapping order."""

    csv_path: Path
    report_path: Path
    counts: dict[str, int]
    issues: list[CollectIssue]


def write_results(
    mapping: Mapping,
    mapping_path: Path,
    output_pattern: str,
    csv_path: str | Path | None = None,
    report_path: str | Path | None = None,
) -> Results:
    """Check the three paths with `files.require_documents`, then harvest as
    `collect_scalars` does into `csv_path` (by default
    <sweep_name>_results.csv), the text `export_csv` would return, one row as
    each output is read, and write the report (by default
    <sweep_name>_collect_report.json), each issue spooled to a
    `files.Listing` as it is found. Nothing is kept per simulation."""
    csv_path = Path(csv_path or f"{mapping.sweep_name}_results.csv")
    report_path = Path(report_path or f"{mapping.sweep_name}_collect_report.json")
    taken = files.require_documents(
        {"MAPPING": mapping_path, "--csv-out": csv_path, "--report-out": report_path}
    )
    reserved = {path: option for path, option in taken.items() if option != "MAPPING"}
    issues: list[CollectIssue] = []

    with files.Listing() as missing:
        def write_csv(path: Path):
            with path.open("w", encoding="utf-8") as out:
                writer = _csv_writer(out, mapping.parameter_names)
                for _sim_id, cell, value, issue in _harvest(mapping, output_pattern, reserved):
                    if issue is not None:
                        missing.add(issue)
                        if len(issues) < KEPT:
                            issues.append(issue)
                    writer.writerow(_csv_row(cell, value))

        files.write_atomic(csv_path, write_csv)
        counts = {"total": len(mapping), "collected": len(mapping) - missing.count, "missing": missing.count}
        # the report lists the missing outputs where `counts` counts them
        missing.write(report_path, {"schema": REPORT_SCHEMA, "sweep_name": mapping.sweep_name, **counts, "missing": []})
    return Results(csv_path, report_path, counts, issues)
