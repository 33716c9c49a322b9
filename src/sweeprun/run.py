"""The `run` command as four stages, which ``sweeprun run`` calls in this
order: `plan` builds the mapping and makes every check before any write;
`materialize` writes the configs, then the mapping; `dispatch` runs one job
per simulation; `record` writes <name>_summary.json from the job records, or
from those a SchedulerError carries. Every pass takes its simulations from
the mapping."""

from __future__ import annotations

import itertools
import json
import math
import os
import shlex
import shutil
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import files
from .dispatch import DispatcherConfig, JobRecord, JobSpec, dispatch_all
from .dispatch import batch_script_path, capture_paths, scheduler_log_path
from .errors import OutputConflictError, SweepRunError, UnfilledPlaceholderError
from .mapping import CartesianMapping, Mapping, build_mapping, cells, serialize
from .sweeps import Sweep
from .templates import _compile, extract_placeholders, render, unused_parameters

SUMMARY_SCHEMA = "sweep-summary/1"
# the fields of JobRecord after sim_id, command and status, in its order
_OPTIONAL_FIELDS = ("exit_code", "scheduler_job_id", "reason", "started_at", "finished_at", "duration")


@dataclass(frozen=True)
class Plan:
    """A checked run, of which nothing is written yet."""

    mapping: Mapping
    config: DispatcherConfig
    command: str
    configs: list[tuple[str, str]]  # (path pattern, template source)
    mapping_path: Path
    summary_path: Path


class _Replayed:
    """A sized iterable whose items are made again on each pass, not held."""

    def __init__(self, length: int, items: Callable[[], Iterator]):
        self._length = length
        self._items = items

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator:
        return self._items()


def _require_path_safe_values(mapping: Mapping, patterns: list[str]):
    """A text value rendered into a --config path must be a plain name part:
    not empty, no '/' or NUL, and not '.' or '..', so no config lands outside
    the directory its pattern names (an empty value at the start of a
    pattern would leave its '/' leading, an absolute path)."""
    names = dict.fromkeys(n for p in patterns for n in extract_placeholders(p) if n != "sim_id")
    if not names:
        return
    if isinstance(mapping, CartesianMapping):  # every listed value reaches some simulation
        values = ((name, value) for name in names for value in mapping.coords[name])
    else:
        values = ((name, params[name]) for params in mapping.assignments.values() for name in names)
    for name, value in values:
        if isinstance(value, str) and ("/" in value or "\0" in value or value in ("", ".", "..")):
            raise SweepRunError(
                f"parameter {name!r} has the value {value!r}, which cannot be part of a "
                "--config path: a value there may not contain '/' or NUL, or be empty, '.' or '..'"
            )


def _literal(text: str) -> str:
    """`text` as template text that renders to itself."""
    return text.replace("{", "{{").replace("}", "}}")


def _outputs(config: DispatcherConfig, patterns: list[str]) -> list[tuple[str, str]]:
    """Each per-simulation path template the run writes (configs first), with
    the option that writes it."""
    name = _literal(config.sweep_name)
    outputs = [(f"--config {pattern!r}", str(Path(pattern))) for pattern in patterns]
    if config.kind in ("slurm", "pbs"):  # each batch script, and the log the scheduler writes for it
        what = f"--dispatcher {config.kind}"
        outputs += [(what, str(batch_script_path(Path(), name, "{sim_id}")))]
        outputs += [(what, scheduler_log_path(name, "{sim_id}"))]
    if config.capture and config.kind == "local" and not config.dry_run:
        outputs += [("--capture", str(path)) for path in capture_paths(Path(), name, "{sim_id}")]
    return outputs


def _require_distinct_outputs(
    fixed: dict[str, Path], outputs: list[tuple[str, str]], mapping: Mapping, overwrite: bool
):
    """No two files the run writes may be one os.path.abspath, with or
    without --overwrite, and without it none may exist. Made absolute with
    '.' and '..' applied, each template must still hold {sim_id}. If that is
    its only placeholder, two templates whose text before the first or after
    the last placeholder differs (neither is a prefix, or a suffix, of the
    other) never render one path; if every two do, none is compared."""
    here = _literal(os.getcwd())
    ends = [(name, name) for name in map(os.path.abspath, fixed.values())]  # (head, tail)
    proved = True
    for what, template in outputs:
        chunks = _compile(os.path.normpath(os.path.join(here, template)))
        names = {name for _, name in chunks[:-1]}
        if "sim_id" not in names:
            raise SweepRunError(
                f"{what} names the same file for every simulation; it needs a {{sim_id}} no '..' removes"
            )
        proved = proved and names == {"sim_id"}
        ends.append((chunks[0][0], chunks[-1][0]))
    proved = proved and all(
        not (head.startswith(head2) or head2.startswith(head))
        or not (tail.endswith(tail2) or tail2.endswith(tail))
        for (head, tail), (head2, tail2) in itertools.combinations(ends, 2)
    )
    if proved and overwrite:
        return
    seen: dict[str, str] = {}  # each absolute path and what writes it, if the proof failed
    for role, path in () if proved else fixed.items():
        name = os.path.abspath(path)
        if name in seen:
            raise SweepRunError(f"{seen[name]} is also the {role}; give each its own path")
        seen[name] = f"the {role} {path}"

    def existing() -> Iterator[str | Path]:
        for sim_id, values in cells(mapping):
            for what, template in outputs:
                path = render(template, values, sim_id)
                if not proved:
                    name = os.path.abspath(path)
                    if name in seen:
                        raise SweepRunError(
                            f"{what} writes {path} for simulation {sim_id}, "
                            f"the same file as {seen[name]}; give each its own path"
                        )
                    seen[name] = f"{path}, which {what} writes for simulation {sim_id}"
                if not overwrite and os.path.exists(path):
                    yield path
        yield from (path for path in fixed.values() if not overwrite and path.exists())

    found = existing()
    for path in found:  # the error counts the rest, and the same-file check goes on meanwhile
        raise OutputConflictError(itertools.chain([path], found))


def plan(
    sweep: Sweep, config: DispatcherConfig, command: str, configs: Sequence[tuple[str, str]],
    mapping_path: Path, *, overwrite: bool, strict: bool, warn: Callable[[str], None],
) -> Plan:
    """Number the sweep's simulations and check the run before anything is
    written. Every placeholder of the command, the config path patterns and
    the templates (`configs` pairs each pattern with its template file) must
    be fillable; a parameter no template uses is passed to `warn`, or is an
    error if `strict`. Every file the run writes must be distinct, absent
    unless `overwrite`, and have a directory to be written in."""
    if "sim_id" not in extract_placeholders(command):
        raise SweepRunError(f"--command must contain the {{sim_id}} placeholder: {command!r}")
    mapping = build_mapping(sweep, sweep_name=config.sweep_name)
    patterns = [pattern for pattern, _ in configs]
    sources = [Path(template).read_text(encoding="utf-8") for _, template in configs]
    allowed = set(mapping.parameter_names) | {"sim_id"}
    for source in [*sources, command, *patterns]:
        for placeholder in extract_placeholders(source):
            if placeholder not in allowed:
                raise UnfilledPlaceholderError(placeholder)
    unused = unused_parameters(sources, mapping.parameter_names)
    if unused:
        message = f"parameter(s) not used by any template: {', '.join(unused)}"
        if strict:
            raise SweepRunError(message)
        warn(message)
    _require_path_safe_values(mapping, patterns)
    summary_path = Path(f"{config.sweep_name}_summary.json")
    outputs = _outputs(config, patterns)
    _require_distinct_outputs({"mapping": mapping_path, "summary": summary_path}, outputs, mapping, overwrite)
    # the summary, batch scripts and captured output are made in --name's directory
    files.require_documents({"--name": summary_path, "--mapping-out": mapping_path})
    # zip stops after the configs, each spelled as Path spells it
    written = [(pattern, source) for (_, pattern), source in zip(outputs, sources)]
    return Plan(mapping, config, command, written, mapping_path, summary_path)


def materialize(plan: Plan) -> None:
    """Write every simulation's configs, then the mapping."""
    # a rendered value adds no separator, so only a config pattern with one
    # has a parent directory to make
    configs = [(pattern, "/" in pattern, source) for pattern, source in plan.configs]
    for sim_id, values in cells(plan.mapping):
        for pattern, nested, source in configs:
            path = render(pattern, values, sim_id)
            if nested:
                os.makedirs(os.path.dirname(path), exist_ok=True)
            files.rewrite(path, render(source, values, sim_id))
    files.write_atomic(plan.mapping_path, serialize(plan.mapping))


def dispatch(plan: Plan) -> Iterable[JobRecord]:
    """One job per simulation, in mapping order, through `dispatch_all`; its
    records, as `dispatch_all` returns them. Each job is made when it is read,
    not held; the jobs stay sized (a `_Replayed`) because the benchmark's
    tracer, bench/trace_cli.py, counts len(jobs) after `dispatch_all` returns."""
    workdir = Path.cwd()
    jobs = _Replayed(
        len(plan.mapping),
        lambda: (
            JobSpec(sim_id=sim_id, command=render(plan.command, words, sim_id), workdir=workdir)
            for sim_id, words in cells(plan.mapping, shlex.quote)  # each value reaches the shell as one word
        ),
    )
    return dispatch_all(jobs, plan.config)


def _json_number(value: float) -> str:
    """An int or a float spelled as json.dumps spells it."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def _summary_entry(record: JobRecord) -> str:
    """One job's entry in the summary's job list, after the ',\n' that
    separates it from the one before, laid out as in json.dumps(summary,
    indent=2): JobRecord's fields in their order, those that are None left
    out, each on one line at a fixed indent (JSON text never holds a raw
    newline). Text is escaped as json.dumps escapes it, to ASCII."""
    quote = encode_basestring_ascii
    entry = (
        f',\n    {{\n      "sim_id": {quote(record.sim_id)},\n'
        f'      "command": {quote(record.command)},\n      "status": {quote(record.status)}'
    )
    for field in _OPTIONAL_FIELDS:
        value = getattr(record, field)
        if value is not None:
            entry += f',\n      "{field}": {quote(value) if type(value) is str else _json_number(value)}'
    return entry + "\n    }"


def _write_summary(path: Path, name: str, kind: str, records: Iterable[JobRecord]) -> dict[str, int]:
    """Write the summary of sweep `name` to `path`, byte for byte as
    json.dumps(summary, indent=2), one job at a time: the jobs go to a
    temporary file while they are counted, then the head with the counts and
    the jobs are copied into place. Returns the counts."""
    counts = dict.fromkeys(("total", "succeeded", "failed", "submitted", "dry_run"), 0)
    with tempfile.TemporaryFile(dir=path.parent) as jobs:
        # write-only text: a readable one resets its decoder on every write
        with open(jobs.fileno(), "w", encoding="utf-8", closefd=False) as entries:
            for record in records:
                entries.write(_summary_entry(record))
                counts["total"] += 1
                counts["succeeded"] += record.succeeded
                counts["failed"] += record.failed
                counts["submitted"] += record.status == "submitted"
                counts["dry_run"] += record.status == "dry_run"
        head = json.dumps(
            {"schema": SUMMARY_SCHEMA, "sweep_name": name, "dispatcher": kind, "counts": counts, "jobs": []},
            indent=2,
        )

        def write(target: Path):
            with target.open("wb") as out:  # json.dumps and the entries are ASCII
                if not counts["total"]:
                    out.write(f"{head}\n".encode())
                    return
                out.write(head.removesuffix("]\n}").encode())
                jobs.seek(1)  # past the first entry's ','
                shutil.copyfileobj(jobs, out)
                out.write(b"\n  ]\n}\n")

        files.write_atomic(path, write)
    return counts


def record(plan: Plan, records: Iterable[JobRecord]) -> dict[str, int]:
    """Write the summary of `records` to `plan.summary_path`; returns its counts."""
    return _write_summary(plan.summary_path, plan.config.sweep_name, plan.config.kind, records)
