"""Post-processing: harvest per-simulation scalar outputs.

Each simulation is expected to leave one output file whose first
whitespace-delimited token is a number (the output pattern names the file,
e.g. ``results_{sim_id}.txt``). Harvesting keys values by simulation ID, so
results are identical no matter what order the files were written in.
Missing, unparseable or non-finite (``nan``, ``inf``) outputs become
explicit gaps plus a report entry instead of aborting; a long sweep with
one dead or diverged job stays salvageable. Bytes that are not UTF-8 are
read as lone surrogates, so an undecodable first token is "not a number".

One reader loop holds these rules: `harvest` yields each simulation's ID,
its values as text (from `mapping.cells`, as `run` takes them), its value
and its issue in mapping order, and reads each output as its entry is read.
`write_results`, the `collect` command, writes each entry's CSV row and
each issue's report entry as it is harvested, so its memory does not grow
with the number of simulations, whether their outputs are readable or not.
It refuses an output that is the CSV or the report.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import files, templates
from .errors import KEPT
from .mapping import Mapping, cells

__all__ = ["CollectIssue", "Results", "harvest", "write_results"]

REPORT_SCHEMA = "sweep-collect-report/1"


@dataclass(frozen=True)
class CollectIssue:
    sim_id: str
    path: str
    reason: str


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


def harvest(
    mapping: Mapping, output_pattern: str, *, reserved: dict[str, str] = {}
) -> Iterator[tuple[str, dict[str, str], float | None, CollectIssue | None]]:
    """(sim_id, values as text, value, issue) per simulation in mapping
    order, exactly one of value and issue None, each output read (relative
    to the current directory unless the pattern is absolute) as its entry
    is. The values as text follow the mapping's parameter names. The pattern
    must contain ``{sim_id}``, checked before any output is read. An output
    that is one of the `reserved` files (resolved path -> option, as
    `files.require_documents` returns them) raises ValueError naming the
    option and the sim_id before it is read, its path taken with '.' and
    '..' applied as written."""
    if "sim_id" not in templates.extract_placeholders(output_pattern):
        raise ValueError(f"output pattern {output_pattern!r} does not contain {{sim_id}}")
    here = os.getcwd()
    # a path names one of those files only if its last part is that file's name
    last_parts = {os.path.basename(path) for path in reserved}
    for sim_id, cell in cells(mapping):
        path = templates.render(output_pattern, cell, sim_id)
        if path.rpartition("/")[2] in last_parts:
            name = reserved.get(os.path.normpath(os.path.join(here, path)))
            if name is not None:
                raise ValueError(f"{name} is the output of simulation {sim_id!r}, {path}; give it another path")
        value, reason = _read_value(path)
        yield sim_id, cell, value, None if reason is None else CollectIssue(sim_id, path, reason)


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
    """Check the three paths with `files.require_documents`, then `harvest`
    into `csv_path` (by default <sweep_name>_results.csv), one row as each
    output is read after the header `param1,...,paramN,value`, a missing
    value as an empty field, and write the report (by default
    <sweep_name>_collect_report.json), each issue spooled to a
    `files.Listing` as it is found. Nothing is kept per simulation."""
    csv_path = Path(csv_path or f"{mapping.sweep_name}_results.csv")
    report_path = Path(report_path or f"{mapping.sweep_name}_collect_report.json")
    taken = files.require_documents(
        {"MAPPING": mapping_path, "--csv-out": csv_path, "--report-out": report_path}, read=("MAPPING",)
    )
    reserved = {path: option for path, option in taken.items() if option != "MAPPING"}
    issues: list[CollectIssue] = []

    with files.Listing() as missing:
        def write_csv(path: Path):
            with path.open("w", encoding="utf-8", errors="backslashreplace") as out:
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow([*mapping.parameter_names, "value"])
                for _sim_id, cell, value, issue in harvest(mapping, output_pattern, reserved=reserved):
                    if issue is not None:
                        missing.add(issue)
                        if len(issues) < KEPT:
                            issues.append(issue)
                    writer.writerow([*cell.values(), "" if value is None else templates.format_value(value)])

        files.write_atomic(csv_path, write_csv)
        counts = {"total": len(mapping), "collected": len(mapping) - missing.count, "missing": missing.count}
        # the report lists the missing outputs where `counts` counts them
        missing.write(report_path, {"schema": REPORT_SCHEMA, "sweep_name": mapping.sweep_name, **counts, "missing": []})
    return Results(csv_path, report_path, counts, issues)
