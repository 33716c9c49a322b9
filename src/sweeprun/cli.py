"""Command-line interface.

Subcommands:
  run      generate parameter sets, render and write configs, write the
           mapping, dispatch one job per set, and write a run summary
  preview  show what a sweep would run, touching no files
  collect  harvest per-simulation outputs into a CSV plus a report

Exit codes: 0 success; 1 validation or usage error; 2 dispatch/scheduler
failure; 3 one or more local simulations failed; 4 collection incomplete.

This module only reads arguments, prints status lines and maps outcomes to
exit codes. What a command checks and writes lives in the library: `run`
is one call of `sweeprun.run.run_sweep`, `collect` one of
`sweeprun.collect.write_results`, and the one rule for where a document
(the mapping, summary, CSV or report) may be written is
`files.require_documents`.

Each command imports only the modules it runs: `run` and `dispatch` are
imported on the `run` path, `collect` by the collect command. A status
line never decides a command's outcome: once the reader of standard output
(or error) has gone, the rest of that stream goes to /dev/null.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import __version__
from .errors import DISPATCHER_KINDS, SchedulerError, SweepRunError
from .mapping import read_mapping, sim_ids
from .spec import load_sweep_spec
from .templates import format_value

STDERR_ISSUE_LIMIT = 5  # failed jobs or issues listed on stderr; the summary or report lists all


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; this tool reserves 2 for dispatch
    # failures, so surface usage problems as exit 1 instead.
    def error(self, message):
        raise SweepRunError(f"{self.prog}: {message}")


def _status(line: str, stream: TextIO | None = None):
    """Print one status line to `stream` (standard output by default) and
    flush it; a character the stream cannot encode is written as its
    backslash escape. If the stream's reader has gone (a closed pipe), the
    stream is pointed at /dev/null for the rest of the process and the
    command carries on: its files and exit code do not depend on who reads
    its output."""
    stream = stream or sys.stdout
    try:
        print(line, file=stream, flush=True)
    except UnicodeEncodeError as exc:  # nothing of the line was written
        _status(line.encode(exc.encoding, "backslashreplace").decode(exc.encoding), stream)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _problems(lines: Iterable[str], count: int, document: Path):
    """Print the first `STDERR_ISSUE_LIMIT` of `lines` to standard error and,
    if `count` is more, how many more `document` lists."""
    for line in itertools.islice(lines, STDERR_ISSUE_LIMIT):
        _status(line, sys.stderr)
    if count > STDERR_ISSUE_LIMIT:
        _status(f"  ... and {count - STDERR_ISSUE_LIMIT} more, see {document}", sys.stderr)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    """Runs the sweep through `sweeprun.run.run_sweep` and reports its outcome."""
    from .dispatch import DispatcherConfig
    from .run import run_sweep

    if len(args.config) != len(args.template):
        raise SweepRunError(
            f"got {len(args.config)} --config but {len(args.template)} --template; "
            "each template writes to its matching config path"
        )
    config = DispatcherConfig(
        kind=args.dispatcher, max_parallel=args.max_parallel, submit_command=args.submit_command,
        scheduler_directives=tuple(args.directive), sweep_name=args.name,
        capture=args.capture, dry_run=args.dry_run,
    )
    outcome = run_sweep(
        load_sweep_spec(args.sweep_file, seed_override=args.seed), args.command,
        list(zip(args.config, args.template)), config, mapping_out=args.mapping_out,
        overwrite=args.overwrite, strict=args.strict, sweep_file=args.sweep_file,
        warn=lambda message: _status(f"warning: {message}", sys.stderr),
        written=lambda count, path: _status(f"wrote {count} config file(s) and mapping {path}"),
    )
    counts = outcome.counts
    if counts["dry_run"]:
        _status(f"dry run: {counts['dry_run']} job(s) not executed")
    elif counts["submitted"]:
        _status(f"submitted {counts['submitted']} job(s) via {config.resolved_submit_command}")
    else:
        _status(f"ran {counts['total']} job(s): {counts['succeeded']} succeeded, {counts['failed']} failed")
        failed = (f"  failed: {r.sim_id} ({r.reason or f'exit code {r.exit_code}'})" for r in outcome.failed)
        _problems(failed, counts["failed"], outcome.summary_path)
    _status(f"summary written to {outcome.summary_path}")

    return 3 if counts["failed"] else 0


# ---------------------------------------------------------------------------
# preview


def _cmd_preview(args) -> int:
    """Plans only the sets it lists, plus the sweep's length."""
    if args.limit < 0:
        raise SweepRunError(f"--limit must be >= 0, got {args.limit}")
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
    for params, sim_id in zip(shown, sim_ids(total)):  # shown first: no ID past the last is made
        rendered = ", ".join(f"{k}={format_value(v)}" for k, v in params.items())
        _status(f"  {sim_id}: {rendered}")
    if len(shown) < total:
        _status(f"  ... {total - len(shown)} more")
    return 0


# ---------------------------------------------------------------------------
# collect


def _cmd_collect(args) -> int:
    """Harvests through `collect.write_results` and reports the issues."""
    from .collect import write_results

    mapping = read_mapping(args.mapping_file)
    results = write_results(mapping, Path(args.mapping_file), args.output_pattern, args.csv_out, args.report_out)
    counts, report_path = results.counts, results.report_path
    _status(f"collected {counts['collected']}/{counts['total']} value(s) into {results.csv_path}")
    if counts["missing"]:
        missing = (f"  missing {i.sim_id}: {i.reason} ({i.path})" for i in results.issues)
        _problems(missing, counts["missing"], report_path)
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
    run.add_argument(
        "--max-parallel", type=int, metavar="N", help="at most N local jobs at once (default: usable CPUs)"
    )
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
    except SchedulerError as exc:  # raised by `run` once the summary of the jobs submitted before it is written
        _status(f"summary of {exc.submitted} submitted job(s) written to {exc.summary_path}", sys.stderr)
        _status(f"error: {exc}", sys.stderr)
        return 2
    except (SweepRunError, ValueError, OSError) as exc:
        _status(f"error: {exc}", sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
