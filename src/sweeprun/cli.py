"""Command-line interface.

Subcommands:
  run      generate parameter sets, render and write configs, write the
           mapping, dispatch one job per set, and write a run summary
  preview  show what a sweep would run, touching no files
  collect  harvest per-simulation outputs into a CSV plus a report

Exit codes: 0 success; 1 validation or usage error; 2 dispatch/scheduler
failure; 3 one or more local simulations failed; 4 collection incomplete.

Each command imports only the modules it runs: `dispatch` is imported on the
`run` path, `collect` by the collect command. A status line never decides a
command's outcome: once the reader of standard output (or error) has gone,
the rest of that stream goes to /dev/null.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import shlex
import shutil
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from . import __version__, files
from .errors import (
    DISPATCHER_KINDS,
    OutputConflictError,
    SchedulerError,
    SweepRunError,
    UnfilledPlaceholderError,
)
from .mapping import CartesianMapping, Mapping, build_mapping, cells, read_mapping, serialize
from .naming import NamerConfig, SequentialNamer
from .spec import load_sweep_spec
from .templates import extract_placeholders, format_value, render, unused_parameters

if TYPE_CHECKING:
    from .dispatch import JobRecord

SUMMARY_SCHEMA = "sweep-summary/1"
REPORT_SCHEMA = "sweep-collect-report/1"
STDERR_ISSUE_LIMIT = 5  # collect lists this many issues on stderr; the report lists all

_T = TypeVar("_T")


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; this tool reserves 2 for dispatch
    # failures, so surface usage problems as exit 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _status(line: str, stream: TextIO | None = None):
    """Print one status line to `stream` (standard output by default) and
    flush it. If the stream's reader has gone (a closed pipe), the stream is
    pointed at /dev/null for the rest of the process and the command carries
    on: its files and exit code do not depend on who reads its output."""
    stream = stream or sys.stdout
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _write_atomic(path: Path, content: str | Callable[[Path], _T]) -> _T | None:
    """Write `content` (text, or a function that writes the file at the path
    it is given) to a new temporary sibling, then rename it onto `path`, so
    a process that fails or dies halfway leaves the previous document (or
    none), never a truncated one. Nothing is fsynced, so an OS crash can still
    lose the write. A symlink whose final target is a regular file or absent
    is followed, and the rename replaces that target, so the link stays a
    link; if the target's directory cannot be written, the target is written
    in place. A special file (such as /dev/stdout), or a link to one, is
    written in place, as the rename would replace it or fail. The temporary
    name ends with the final name. Returns what the function returns."""
    def write(target: Path):
        if callable(content):
            return content(target)
        target.write_text(content, encoding="utf-8")
        return None

    linked = False
    if path.is_symlink() and (path.is_file() or not path.exists()):
        target = Path(os.path.realpath(path))
        if target.is_file() or not os.path.lexists(target):  # not a link in a loop
            path, linked = target, True
    if path.is_symlink() or (path.exists() and not path.is_file()):
        return write(path)
    temporary = path.with_name(f".tmp.{os.urandom(4).hex()}.{path.name}")
    try:
        os.close(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except PermissionError:
        if not linked:
            raise
        return write(path)
    try:
        if path.exists():
            shutil.copymode(path, temporary)
        result = write(temporary)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return result


# ---------------------------------------------------------------------------
# run


class _Replayed:
    """A sized iterable whose items are made again on each pass, not held."""

    def __init__(self, length: int, items: Callable[[], Iterator]):
        self._length = length
        self._items = items

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator:
        return self._items()


def _plan(args) -> Mapping:
    """The run's mapping: every pass takes its simulations from it. A plain
    Cartesian grid is sized, never listed; the other sweeps are generated
    once, so a filter runs once per candidate."""
    sweep = load_sweep_spec(args.sweep_file, seed_override=args.seed)
    sets = _Replayed(sweep.length(), sweep.iter_sets) if sweep.kind == "cartesian" else sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    return build_mapping(sweep, sets, ids, sweep_name=args.name)


def _shell_words(values: dict[str, str]) -> dict[str, str]:
    """Each value quoted to reach the shell as one word (sim_id is safe as it is)."""
    return {name: shlex.quote(text) for name, text in values.items()}


def _require_sim_id(pattern: str, what: str):
    if "sim_id" not in extract_placeholders(pattern):
        raise _UsageError(f"{what} must contain the {{sim_id}} placeholder: {pattern!r}")


def _require_distinct_configs(patterns: list[str]):
    seen: set[Path] = set()
    for pattern in patterns:
        if Path(pattern) in seen:
            raise _UsageError(
                f"--config {pattern!r} is given twice; each template needs its own config path"
            )
        seen.add(Path(pattern))


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


def _summary_path(name: str) -> Path:
    return Path(f"{name}_summary.json")


def _planned_paths(args, mapping: Mapping, mapping_path: Path) -> Iterator[Path]:
    """Every path the run will create, rendered one at a time."""
    from .dispatch import batch_script_path, capture_paths

    workdir = Path.cwd()
    scripts = args.dispatcher in ("slurm", "pbs")
    captures = args.capture and args.dispatcher == "local" and not args.dry_run
    for sim_id, values in cells(mapping):
        for pattern in args.config:
            yield Path(render(pattern, values, sim_id))
        if scripts:
            yield batch_script_path(workdir, args.name, sim_id)
        if captures:
            yield from capture_paths(workdir, args.name, sim_id)
    yield mapping_path
    yield _summary_path(args.name)


def _json_scalar(value) -> str:
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _summary_entry(record: JobRecord) -> str:
    """One job laid out as in json.dumps(summary, indent=2): JSON text never
    holds a raw newline, so each field is one line at a fixed indent."""
    fields = ",\n".join(
        f"      {_json_scalar(key)}: {_json_scalar(value)}" for key, value in record.to_dict().items()
    )
    return f"    {{\n{fields}\n    }}"


def _write_summary(name: str, kind: str, records: Iterable[JobRecord]) -> tuple[dict, Path]:
    """Write <name>_summary.json, byte for byte as json.dumps(summary,
    indent=2), one job at a time: the jobs go to a temporary file while they
    are counted, then the head with the counts and the jobs are copied into
    place. Returns the counts and the path."""
    counts = dict.fromkeys(("total", "succeeded", "failed", "submitted", "dry_run"), 0)
    path = _summary_path(name)
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=path.parent) as jobs:
        for record in records:
            jobs.write(",\n" if counts["total"] else "\n")
            jobs.write(_summary_entry(record))
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
            with target.open("w", encoding="utf-8") as out:
                if not counts["total"]:
                    out.write(head + "\n")
                    return
                out.write(head.removesuffix("]\n}"))
                jobs.seek(0)
                shutil.copyfileobj(jobs, out)
                out.write("\n  ]\n}\n")

        _write_atomic(path, write)
    return counts, path


def _cmd_run(args) -> int:
    from .dispatch import DispatcherConfig, JobSpec, dispatch_all

    if len(args.config) != len(args.template):
        raise _UsageError(
            f"got {len(args.config)} --config but {len(args.template)} --template; "
            "each template writes to its matching config path"
        )
    _require_sim_id(args.command, "--command")
    for pattern in args.config:
        _require_sim_id(pattern, "--config")
    _require_distinct_configs(args.config)

    mapping = _plan(args)
    names = mapping.parameter_names
    template_sources = [
        Path(t).read_text(encoding="utf-8") for t in args.template
    ]
    template_placeholders = [extract_placeholders(s) for s in template_sources]

    # every placeholder anywhere must be fillable, before anything is written
    allowed = set(names) | {"sim_id"}
    for placeholders in [
        *template_placeholders,
        extract_placeholders(args.command),
        *(extract_placeholders(p) for p in args.config),
    ]:
        for placeholder in placeholders:
            if placeholder not in allowed:
                raise UnfilledPlaceholderError(placeholder)

    unused = unused_parameters(template_sources, names)
    if unused:
        message = f"parameter(s) not used by any template: {', '.join(unused)}"
        if args.strict:
            raise SweepRunError(message)
        _status(f"warning: {message}", sys.stderr)
    _require_path_safe_values(mapping, args.config)

    # the checks above prove every render succeeds, so conflicts are checked
    # on the paths alone, and each path is rendered again where it is written
    mapping_path = Path(args.mapping_out) if args.mapping_out else Path(f"{args.name}_mapping.json")
    if not args.overwrite:
        existing = [p for p in _planned_paths(args, mapping, mapping_path) if p.exists()]
        if existing:
            raise OutputConflictError(existing)

    # each pattern spelled as Path spells it (no trailing, repeated or '.'
    # separators); a rendered value adds no separator
    patterns = [str(Path(pattern)) for pattern in args.config]
    for sim_id, values in cells(mapping):
        for pattern, source in zip(patterns, template_sources):
            path = render(pattern, values, sim_id)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            files.rewrite(path, render(source, values, sim_id))
    _write_atomic(mapping_path, serialize(mapping))
    _status(f"wrote {len(mapping) * len(args.config)} config file(s) and mapping {mapping_path}")

    workdir = Path.cwd()
    jobs = _Replayed(
        len(mapping),
        lambda: (
            JobSpec(sim_id=sim_id, command=render(args.command, _shell_words(values), sim_id), workdir=workdir)
            for sim_id, values in cells(mapping)
        ),
    )
    config = DispatcherConfig(
        kind=args.dispatcher,
        max_parallel=args.max_parallel,
        submit_command=args.submit_command,
        scheduler_directives=tuple(args.directive),
        overwrite=args.overwrite,
        sweep_name=args.name,
        capture=args.capture,
        dry_run=args.dry_run,
    )
    try:
        records = dispatch_all(jobs, config)
    except SchedulerError as exc:
        _counts, summary_path = _write_summary(args.name, args.dispatcher, exc.records)
        _status(f"summary of {len(exc.records)} submitted job(s) written to {summary_path}", sys.stderr)
        raise
    counts, summary_path = _write_summary(args.name, args.dispatcher, records)

    if counts["dry_run"]:
        _status(f"dry run: {counts['dry_run']} job(s) not executed")
    elif counts["submitted"]:
        _status(f"submitted {counts['submitted']} job(s) via {config.resolved_submit_command}")
    else:
        _status(f"ran {counts['total']} job(s): {counts['succeeded']} succeeded, {counts['failed']} failed")
        for record in records:
            if record.failed:
                detail = record.reason or f"exit code {record.exit_code}"
                _status(f"  failed: {record.sim_id} ({detail})", sys.stderr)
    _status(f"summary written to {summary_path}")

    if args.dispatcher == "local" and not args.dry_run and counts["failed"]:
        return 3
    return 0


# ---------------------------------------------------------------------------
# preview


def _cmd_preview(args) -> int:
    """Plans only the sets it lists, plus the sweep's length."""
    if args.limit < 0:
        raise _UsageError(f"--limit must be >= 0, got {args.limit}")
    sweep = load_sweep_spec(args.sweep_file, seed_override=args.seed)
    sets = sweep.iter_sets()
    first = list(itertools.islice(sets, max(args.limit, 1)))
    if sweep.kind == "filtered-cartesian":  # its length() would run the filter again
        total = len(first) + sum(1 for _ in sets)
    else:
        total = sweep.length()
    names = list(first[0])
    _status(f"{sweep.kind}, {len(names)} parameter(s) ({', '.join(names)}), {total} simulation(s)")
    shown = first[: args.limit]
    for sim_id, params in zip(SequentialNamer(NamerConfig(), total), shown):
        rendered = ", ".join(f"{k}={format_value(v)}" for k, v in params.items())
        _status(f"  {sim_id}: {rendered}")
    if len(shown) < total:
        _status(f"  ... {total - len(shown)} more")
    return 0


# ---------------------------------------------------------------------------
# collect


def _require_distinct_files(files: dict[str, Path]):
    """Each named file must be absent or reachable (a symlink loop is
    neither), checked before anything is read or written, and no two may be
    one file once links and '..' are resolved: collect would write one over
    the other."""
    seen: dict[Path, str] = {}
    for option, path in files.items():
        try:
            path.stat()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise _UsageError(f"{option} {path}: {exc.strerror}") from None
        resolved = path.resolve()
        if resolved in seen:
            raise _UsageError(
                f"{seen[resolved]} and {option} are the same file, {resolved}; give each its own path"
            )
        seen[resolved] = option


def _cmd_collect(args) -> int:
    """Reads each output and writes its CSV row in one pass; keeps only the
    mapping and the issues."""
    from .collect import write_csv

    mapping = read_mapping(args.mapping_file)
    csv_path = Path(args.csv_out) if args.csv_out else Path(f"{mapping.sweep_name}_results.csv")
    report_path = (
        Path(args.report_out) if args.report_out else Path(f"{mapping.sweep_name}_collect_report.json")
    )
    _require_distinct_files(
        {"MAPPING": Path(args.mapping_file), "--csv-out": csv_path, "--report-out": report_path}
    )
    reserved = {csv_path: "--csv-out", report_path: "--report-out"}
    issues = _write_atomic(csv_path, functools.partial(write_csv, mapping, args.output_pattern, reserved))
    report = {
        "schema": REPORT_SCHEMA,
        "sweep_name": mapping.sweep_name,
        "total": len(mapping),
        "collected": len(mapping) - len(issues),
        "missing": [{"sim_id": issue.sim_id, "path": issue.path, "reason": issue.reason} for issue in issues],
    }
    _write_atomic(report_path, json.dumps(report, indent=2) + "\n")
    _status(f"collected {report['collected']}/{report['total']} value(s) into {csv_path}")
    if issues:
        for issue in issues[:STDERR_ISSUE_LIMIT]:
            _status(f"  missing {issue.sim_id}: {issue.reason} ({issue.path})", sys.stderr)
        more = len(issues) - STDERR_ISSUE_LIMIT
        if more > 0:
            _status(f"  ... and {more} more, see {report_path}", sys.stderr)
        _status(f"report written to {report_path}", sys.stderr)
        return 4
    _status(f"report written to {report_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sweeprun",
        description="Run parallel parameter sweeps over any external model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="generate configs, dispatch jobs, record the mapping")
    run.add_argument("--command", required=True, help="command per simulation; use {sim_id}")
    run.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="PATTERN",
        help="config file path per simulation; use {sim_id} (repeatable)",
    )
    run.add_argument(
        "--template",
        action="append",
        required=True,
        metavar="FILE",
        help="template file matching each --config (repeatable)",
    )
    run.add_argument("--sweep-file", required=True, metavar="FILE", help="JSON sweep spec")
    run.add_argument("--name", default="sweep", help="sweep name used in output filenames")
    run.add_argument("--dispatcher", choices=DISPATCHER_KINDS, default="local")
    run.add_argument("--max-parallel", type=int, metavar="N", help="local pool size (default: usable CPUs)")
    run.add_argument("--seed", type=int, help="override the sweep file's random seed")
    run.add_argument("--strict", action="store_true", help="unused parameters become errors")
    run.add_argument("--overwrite", action="store_true", help="replace files from a previous sweep")
    run.add_argument("--capture", action="store_true", help="redirect job output to <name>_<id>.out/.err")
    run.add_argument("--dry-run", action="store_true", help="write configs/scripts but execute nothing")
    run.add_argument("--mapping-out", metavar="PATH", help="mapping file (default <name>_mapping.json)")
    run.add_argument(
        "--directive",
        action="append",
        default=[],
        metavar="TEXT",
        help="extra scheduler header line; values starting with dashes need "
        "the = form, e.g. --directive=--time=00:10:00 (repeatable)",
    )
    run.add_argument("--submit-command", metavar="TEXT", help="override sbatch/qsub")
    run.set_defaults(func=_cmd_run)

    preview = sub.add_parser("preview", help="show the sweep without touching any files")
    preview.add_argument("--sweep-file", required=True, metavar="FILE")
    preview.add_argument("--seed", type=int, help="override the sweep file's random seed")
    preview.add_argument("--limit", type=int, default=10, metavar="K", help="parameter sets to list")
    preview.set_defaults(func=_cmd_preview)

    collect = sub.add_parser("collect", help="harvest per-simulation outputs into a CSV")
    collect.add_argument("mapping_file", metavar="MAPPING", help="mapping file from a run")
    collect.add_argument(
        "--output-pattern",
        default="results_{sim_id}.txt",
        metavar="PATTERN",
        help="per-simulation output file; use {sim_id}",
    )
    collect.add_argument("--csv-out", metavar="PATH", help="CSV path (default <name>_results.csv)")
    collect.add_argument(
        "--report-out", metavar="PATH", help="report path (default <name>_collect_report.json)"
    )
    collect.set_defaults(func=_cmd_collect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchedulerError as exc:
        _status(f"error: {exc}", sys.stderr)
        return 2
    except (_UsageError, SweepRunError, ValueError, OSError) as exc:
        _status(f"error: {exc}", sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
