"""`run_sweep` runs a sweep (``sweeprun run`` is one call of it) in four
stages: `plan` builds the mapping and makes every check before any write;
`materialize` writes the configs, then the mapping; `dispatch` runs one job
per simulation; `record` writes <name>_summary.json from the job records, or
from those a SchedulerError carries. Every pass takes its simulations from
the mapping."""

from __future__ import annotations

import itertools
import os
import shlex
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import files
from .dispatch import DispatcherConfig, JobRecord, JobSpec, dispatch_all
from .dispatch import batch_script_path, capture_paths, scheduler_log_path
from .errors import KEPT, OutputConflictError, SchedulerError, SweepRunError, UnfilledPlaceholderError
from .mapping import CartesianMapping, Mapping, build_mapping, cells, serialize
from .sweeps import Sweep
from .templates import _compile, extract_placeholders, render, unused_parameters

SUMMARY_SCHEMA = "sweep-summary/1"


@dataclass(frozen=True)
class Plan:
    """A checked run, of which nothing is written yet."""

    mapping: Mapping
    config: DispatcherConfig
    command: str
    configs: list[tuple[str, str]]  # (path pattern, template source)
    mapping_path: Path
    summary_path: Path


@dataclass(frozen=True)
class Outcome:
    """What `run_sweep` wrote, the summary's counts, and the first `KEPT` failed records in mapping order."""

    mapping: Mapping
    mapping_path: Path
    summary_path: Path
    counts: dict[str, int]
    failed: list[JobRecord]


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
    mapping_path: str | Path | None, *, overwrite: bool, strict: bool, warn: Callable[[str], None],
) -> Plan:
    """Number the sweep's simulations and check the run before anything is
    written. Every placeholder of the command, the config path patterns and
    the templates (`configs` pairs each pattern with its template file) must
    be fillable; a parameter no template uses is passed to `warn`, or is an
    error if `strict`. Every file the run writes (the mapping at
    `mapping_path`, by default <name>_mapping.json) must be distinct, absent
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
    mapping_path = Path(mapping_path or f"{config.sweep_name}_mapping.json")
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
    files.write_atomic(plan.mapping_path, lambda target: target.write_text(serialize(plan.mapping), encoding="utf-8"))


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


def record(plan: Plan, records: Iterable[JobRecord]) -> Outcome:
    """Write the summary of `records` to `plan.summary_path`, byte for byte
    as json.dumps(summary, indent=2), in one pass over them: each job's
    entry, JobRecord's fields in their order with those that are None left
    out, goes to a `files.Listing` while the jobs are counted and the first
    failed ones kept."""
    counts = dict.fromkeys(("total", "succeeded", "failed", "submitted", "dry_run"), 0)
    failed = []
    with files.Listing() as jobs:
        for job in records:
            jobs.add(job)
            counts["succeeded"] += job.succeeded
            counts["failed"] += job.failed
            if job.failed and len(failed) < KEPT:
                failed.append(job)
            counts["submitted"] += job.status == "submitted"
            counts["dry_run"] += job.status == "dry_run"
        counts["total"] = jobs.count
        summary = {"schema": SUMMARY_SCHEMA, "sweep_name": plan.config.sweep_name, "dispatcher": plan.config.kind}
        jobs.write(plan.summary_path, {**summary, "counts": counts, "jobs": []})
    return Outcome(plan.mapping, plan.mapping_path, plan.summary_path, counts, failed)


def run_sweep(
    sweep: Sweep, command: str, configs: Sequence[tuple[str, str]], dispatcher: DispatcherConfig, *,
    mapping_out: str | Path | None = None, overwrite: bool = False, strict: bool = False,
    warn: Callable[[str], None] = warnings.warn, written: Callable[[int, Path], None] = lambda count, path: None,
) -> Outcome:
    """Run one job of `command` per simulation of `sweep`, named `dispatcher.sweep_name`, after
    writing its configs (`configs` pairs each path pattern with its template file) and mapping,
    then `written(config count, mapping path)`; `warn` gets a parameter no template uses. A
    SchedulerError is raised again once the summary of the jobs submitted before it is written."""
    checked = plan(sweep, dispatcher, command, configs, mapping_out, overwrite=overwrite, strict=strict, warn=warn)
    materialize(checked)
    written(len(checked.mapping) * len(checked.configs), checked.mapping_path)
    try:
        records = dispatch(checked)
    except SchedulerError as exc:
        exc.summary_path = record(checked, exc.records).summary_path
        raise
    return record(checked, records)
