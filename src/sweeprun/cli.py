"""Command-line interface.

Subcommands:
  run      generate parameter sets, render and write configs, write the
           mapping, dispatch one job per set, and write a run summary
  preview  show what a sweep would run, touching no files
  collect  harvest per-simulation outputs into a CSV plus a report

Exit codes: 0 success; 1 validation or usage error; 2 dispatch/scheduler
failure; 3 one or more local simulations failed; 4 collection incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .collect import collect_scalars, export_csv
from .dispatch import (
    DISPATCHER_KINDS,
    DispatcherConfig,
    JobSpec,
    batch_script_path,
    dispatch_all,
)
from .errors import (
    OutputConflictError,
    SchedulerError,
    SweepRunError,
    UnfilledPlaceholderError,
)
from .mapping import build_mapping, read_mapping, serialize
from .naming import NamerConfig, SequentialNamer
from .spec import load_sweep_spec
from .templates import extract_placeholders, format_value, render, unused_parameters

SUMMARY_SCHEMA = "sweep-summary/1"
REPORT_SCHEMA = "sweep-collect-report/1"
STDERR_ISSUE_LIMIT = 5  # collect lists this many issues on stderr; the report lists all


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; this tool reserves 2 for dispatch
    # failures, so surface usage problems as exit 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write_atomic(path: Path, text: str):
    """Write `text` to a new temporary sibling, then rename it onto `path`, so
    a process that fails or dies halfway leaves the previous document (or
    none), never a truncated one. Nothing is fsynced, so an OS crash can still
    lose the write. A symlink or a special file (such as /dev/stdout) is
    written in place, as the rename would replace the link or fail. The
    temporary name ends with the final name."""
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_text(text, encoding="utf-8")
        return
    temporary = path.with_name(f".tmp.{os.urandom(4).hex()}.{path.name}")
    os.close(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        if path.exists():
            shutil.copymode(path, temporary)
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# run


def _plan(args):
    """The sweep, its ordered parameter sets, and one simulation ID per set."""
    sweep = load_sweep_spec(args.sweep_file, seed_override=args.seed)
    sets = sweep.generate()
    return sweep, sets, list(SequentialNamer(NamerConfig(), len(sets)))


def _require_sim_id(pattern: str, what: str):
    if "sim_id" not in extract_placeholders(pattern):
        raise _UsageError(f"{what} must contain the {{sim_id}} placeholder: {pattern!r}")


def _write_summary(name: str, kind: str, records) -> tuple[dict, Path]:
    counts = {
        "total": len(records),
        "succeeded": sum(r.succeeded for r in records),
        "failed": sum(r.failed for r in records),
        "submitted": sum(r.status == "submitted" for r in records),
        "dry_run": sum(r.status == "dry_run" for r in records),
    }
    summary = {
        "schema": SUMMARY_SCHEMA,
        "sweep_name": name,
        "dispatcher": kind,
        "counts": counts,
        "jobs": [r.to_dict() for r in records],
    }
    path = Path(f"{name}_summary.json")
    _write_atomic(path, json.dumps(summary, indent=2) + "\n")
    return summary, path


def _cmd_run(args) -> int:
    if len(args.config) != len(args.template):
        raise _UsageError(
            f"got {len(args.config)} --config but {len(args.template)} --template; "
            "each template writes to its matching config path"
        )
    _require_sim_id(args.command, "--command")
    for pattern in args.config:
        _require_sim_id(pattern, "--config")

    sweep, sets, ids = _plan(args)
    names = list(sets[0])
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
        print(f"warning: {message}", file=sys.stderr)

    # the checks above prove every render succeeds, so conflicts are checked
    # on the paths alone and each config is rendered as it is written
    config_paths = [
        [Path(render(pattern, params, sim_id)) for pattern in args.config]
        for params, sim_id in zip(sets, ids)
    ]
    mapping_path = Path(args.mapping_out) if args.mapping_out else Path(f"{args.name}_mapping.json")
    targets = [path for paths in config_paths for path in paths] + [mapping_path]
    if args.dispatcher in ("slurm", "pbs"):
        targets += [batch_script_path(Path.cwd(), args.name, sim_id) for sim_id in ids]
    if not args.overwrite:
        existing = [p for p in targets if p.exists()]
        if existing:
            raise OutputConflictError(existing)

    for params, sim_id, paths in zip(sets, ids, config_paths):
        for path, source in zip(paths, template_sources):
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(render(source, params, sim_id), encoding="utf-8")
    mapping = build_mapping(sweep, sets, ids, sweep_name=args.name)
    _write_atomic(mapping_path, serialize(mapping))
    print(f"wrote {len(sets) * len(args.config)} config file(s) and mapping {mapping_path}")

    workdir = Path.cwd()
    jobs = [
        JobSpec(sim_id=sim_id, command=render(args.command, params, sim_id), workdir=workdir)
        for params, sim_id in zip(sets, ids)
    ]
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
        _summary, summary_path = _write_summary(args.name, args.dispatcher, exc.records)
        print(
            f"summary of {len(exc.records)} submitted job(s) written to {summary_path}",
            file=sys.stderr,
        )
        raise
    summary, summary_path = _write_summary(args.name, args.dispatcher, records)

    counts = summary["counts"]
    if counts["dry_run"]:
        print(f"dry run: {counts['dry_run']} job(s) not executed")
    elif counts["submitted"]:
        print(f"submitted {counts['submitted']} job(s) via {config.resolved_submit_command}")
    else:
        print(f"ran {counts['total']} job(s): {counts['succeeded']} succeeded, {counts['failed']} failed")
        for record in records:
            if record.failed:
                detail = record.reason or f"exit code {record.exit_code}"
                print(f"  failed: {record.sim_id} ({detail})", file=sys.stderr)
    print(f"summary written to {summary_path}")

    if args.dispatcher == "local" and not args.dry_run and counts["failed"]:
        return 3
    return 0


# ---------------------------------------------------------------------------
# preview


def _cmd_preview(args) -> int:
    sweep, sets, ids = _plan(args)
    names = list(sets[0])
    print(f"{sweep.kind}, {len(names)} parameter(s) ({', '.join(names)}), {len(sets)} simulation(s)")
    shown = min(args.limit, len(sets))
    for sim_id, params in zip(ids[:shown], sets):
        rendered = ", ".join(f"{k}={format_value(v)}" for k, v in params.items())
        print(f"  {sim_id}: {rendered}")
    if shown < len(sets):
        print(f"  ... {len(sets) - shown} more")
    return 0


# ---------------------------------------------------------------------------
# collect


def _cmd_collect(args) -> int:
    mapping = read_mapping(args.mapping_file)
    collected = collect_scalars(mapping, args.output_pattern)
    csv_path = Path(args.csv_out) if args.csv_out else Path(f"{mapping.sweep_name}_results.csv")
    _write_atomic(csv_path, export_csv(collected))
    report = {
        "schema": REPORT_SCHEMA,
        "sweep_name": mapping.sweep_name,
        "total": len(collected.values),
        "collected": sum(v is not None for v in collected.values.values()),
        "missing": [
            {"sim_id": issue.sim_id, "path": issue.path, "reason": issue.reason}
            for issue in collected.issues
        ],
    }
    report_path = (
        Path(args.report_out) if args.report_out else Path(f"{mapping.sweep_name}_collect_report.json")
    )
    _write_atomic(report_path, json.dumps(report, indent=2) + "\n")
    print(f"collected {report['collected']}/{report['total']} value(s) into {csv_path}")
    if collected.issues:
        for issue in collected.issues[:STDERR_ISSUE_LIMIT]:
            print(f"  missing {issue.sim_id}: {issue.reason} ({issue.path})", file=sys.stderr)
        more = len(collected.issues) - STDERR_ISSUE_LIMIT
        if more > 0:
            print(f"  ... and {more} more, see {report_path}", file=sys.stderr)
        print(f"report written to {report_path}", file=sys.stderr)
        return 4
    print(f"report written to {report_path}")
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, SweepRunError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
