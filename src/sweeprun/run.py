"""`run_sweep` runs a sweep (``sweeprun run`` is one call of it) in four
stages: `plan` builds the mapping and makes every check before any write;
`materialize` writes the configs, then the mapping; `dispatch` runs one job
per simulation; `record` passes it the function that adds each job's record
to <name>_summary.json, and writes the summary once the dispatch ends or a
submit fails. Every pass takes its simulations from the mapping."""

from __future__ import annotations

import itertools
import os
import shlex
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


def _argument_problem(value: str) -> str | None:
    """Why `value` cannot be part of a file name or a process's argument, or None."""
    if "\0" in value:
        return "a value there may not contain NUL"
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return "the file system encoding cannot encode it"
    return None


def _path_part_problem(value: str) -> str | None:
    """Why `value` cannot be part of a --config path, or None. It must be a
    plain name part: not empty, no '/' or NUL, and not '.' or '..', so no
    config lands outside the directory its pattern names (an empty value at
    the start of a pattern would leave its '/' leading, an absolute path)."""
    if "/" in value or "\0" in value or value in ("", ".", ".."):
        return "a value there may not contain '/' or NUL, or be empty, '.' or '..'"
    return _argument_problem(value)


def _text_problem(value: str) -> str | None:
    """Why `value` cannot be written into a UTF-8 file, or None."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return "it cannot be encoded as UTF-8"
    return None


def _require_safe_values(
    mapping: Mapping, config: DispatcherConfig, command: str, patterns: list[str], sources: list[str]
):
    """Every text value must be writable where the run puts it, so that a bad
    one stops the run before its first write: in a --config path, in the
    command of a run that starts local jobs, in a template, and in the
    command each slurm/pbs batch script holds. Each axis value of a grid is
    checked once."""

    def named(texts: list[str]) -> dict[str, None]:
        return dict.fromkeys(name for text in texts for name in extract_placeholders(text) if name != "sim_id")

    rules = [(named(patterns), "a --config path", _path_part_problem)]
    rules.append((named(sources), "a template", _text_problem))
    if config.kind in ("slurm", "pbs"):
        rules.append((named([command]), "a batch script", _text_problem))
    elif config.kind == "local" and not config.dry_run:
        rules.append((named([command]), "the --command of a local job", _argument_problem))
    names = dict.fromkeys(itertools.chain.from_iterable(names for names, _, _ in rules))
    if isinstance(mapping, CartesianMapping):  # every listed value reaches some simulation
        values = ((name, value) for name in names for value in mapping.coords[name])
    else:
        values = ((name, params[name]) for params in mapping.assignments.values() for name in names)
    for name, value in values:
        if not isinstance(value, str):
            continue
        for where_names, where, problem in rules:
            reason = name in where_names and problem(value)
            if reason:
                raise SweepRunError(
                    f"parameter {name!r} has the value {value!r}, which cannot be part of {where}: {reason}"
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
    fixed: dict[str, Path], outputs: list[tuple[str, str]], mapping: Mapping, overwrite: bool, read: dict[str, Path]
):
    """No two files the run writes may be one os.path.abspath, and no
    per-simulation one may be a template it reads (`read`, keyed by
    os.path.realpath), with or without --overwrite; without it none may
    exist, but a document that is a template is left for
    `files.require_documents` to report. Made absolute with '.' and '..'
    applied, each path template must still hold {sim_id}. If that is its
    only placeholder, two path templates or paths whose text before the
    first or after the last placeholder differs (neither is a prefix, or a
    suffix, of the other) never render one path; if every two do, none is
    compared."""
    here = _literal(os.getcwd())
    inputs = {os.path.abspath(path): f"the --template {path}" for path in read.values()}
    ends = [(name, name) for name in [*map(os.path.abspath, fixed.values()), *inputs]]  # (head, tail)
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
    seen.update(() if proved else inputs)

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
        yield from (p for p in fixed.values() if not overwrite and p.exists() and os.path.realpath(p) not in read)

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
    unless `overwrite`, not a template, and have a directory to be written
    in. A slurm/pbs name or directive must not hold a line break, which
    would end its line of each batch script's header."""
    if "sim_id" not in extract_placeholders(command):
        raise SweepRunError(f"--command must contain the {{sim_id}} placeholder: {command!r}")
    if config.kind in ("slurm", "pbs"):
        header = [("--name", config.sweep_name), *(("--directive", text) for text in config.scheduler_directives)]
        for option, value in header:
            if "\n" in value:
                raise SweepRunError(f"{option} {value!r} holds a line break, which would end its batch script line")
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
    _require_safe_values(mapping, config, command, patterns, sources)
    mapping_path = Path(mapping_path or f"{config.sweep_name}_mapping.json")
    summary_path = Path(f"{config.sweep_name}_summary.json")
    outputs = _outputs(config, patterns)
    # each template is only read, by any number of --template options, and no output may be one
    read = {os.path.realpath(template): Path(template) for _, template in configs}
    fixed = {"mapping": mapping_path, "summary": summary_path}
    _require_distinct_outputs(fixed, outputs, mapping, overwrite, read)
    # the summary, batch scripts and captured output are made in --name's directory
    templates = {f"--template {path}": path for path in read.values()}
    files.require_documents({"--name": summary_path, "--mapping-out": mapping_path, **templates}, read=tuple(templates))
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


def dispatch(plan: Plan, record: Callable[[JobRecord], object]) -> None:
    """One job per simulation, in mapping order, through `dispatch_all`,
    which passes each job's record to `record`. Each job is made when it is
    read, not held; the jobs stay sized (a `_Replayed`) because the
    benchmark's tracer, bench/trace_cli.py, counts len(jobs) after
    `dispatch_all` returns."""
    workdir = Path.cwd()
    jobs = _Replayed(
        len(plan.mapping),
        lambda: (
            JobSpec(sim_id=sim_id, command=render(plan.command, words, sim_id), workdir=workdir)
            for sim_id, words in cells(plan.mapping, shlex.quote)  # each value reaches the shell as one word
        ),
    )
    dispatch_all(jobs, plan.config, record)


def record(plan: Plan, dispatched: Callable[[Callable[[JobRecord], None]], object]) -> Outcome:
    """Call `dispatched` with a function that adds a job's record to the
    summary, then write the summary of what it was passed to
    `plan.summary_path`, byte for byte as json.dumps(summary, indent=2): each
    job's entry, JobRecord's fields in their order with those that are None
    left out, goes to a `files.Listing` as it comes, while the jobs are
    counted and the first failed ones kept. A SchedulerError from
    `dispatched` is raised again once the summary of the jobs passed before
    it is written, with its `summary_path` and `submitted` set."""
    counts = dict.fromkeys(("total", "succeeded", "failed", "submitted", "dry_run"), 0)
    failed = []
    error = None
    with files.Listing() as jobs:

        def add(job: JobRecord) -> None:
            jobs.add(job)
            counts["succeeded"] += job.succeeded
            counts["failed"] += job.failed
            if job.failed and len(failed) < KEPT:
                failed.append(job)
            counts["submitted"] += job.status == "submitted"
            counts["dry_run"] += job.status == "dry_run"

        try:
            dispatched(add)
        except SchedulerError as exc:  # raised again below, once the summary is written
            error, exc.summary_path, exc.submitted = exc, plan.summary_path, jobs.count
        counts["total"] = jobs.count
        summary = {"schema": SUMMARY_SCHEMA, "sweep_name": plan.config.sweep_name, "dispatcher": plan.config.kind}
        jobs.write(plan.summary_path, {**summary, "counts": counts, "jobs": []})
    if error is not None:
        raise error
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
    return record(checked, lambda add: dispatch(checked, add))
