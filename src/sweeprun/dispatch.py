"""Job dispatch: local jobs (at most max_parallel at once), batch-scheduler submission, dry runs.

A command means what ``/bin/sh -c <command>`` makes of it, so the sweep
author's command string is honored verbatim (including pipes and
redirections). A job that exits non-zero is recorded and the sweep
continues; only a failing submit command (scheduler modes) aborts the whole
dispatch; the SchedulerError carries the records of the jobs submitted
before it.

A command that is one plain simple command starts without the shell, as
GNU make starts a recipe line: one process per job instead of two. Plain
means blank-separated words of ``shlex``'s safe characters
(``[A-Za-z0-9_@%+=:,./-]``) and single-quoted runs, which is what
``shlex.quote`` makes of a value; a first word with no ``=`` (an
assignment) that is not a reserved word or builtin of sh, dash or bash;
and an environment with PATH set and no exported bash function
(``BASH_FUNC_*``). The shell would split such a command into the same argv
and exec it, so the outcome is the same:

- a start that fails (a missing executable, one without execute
  permission, a script with no ``#!`` line) has run nothing, and the
  command is run again through the shell, so a missing executable is still
  exit code 127 with the shell's message;
- a job killed by signal N is recorded with exit code 128+N, as the shell
  reports it; the one difference is that the shell's one-line report of
  that death ("Killed", "Segmentation fault") is no longer written to the
  job's standard error;
- the job gets the PWD the shell would give it: the inherited one if it is
  absolute and names the job's directory, else that directory's physical
  path.

Under a shell, "command not found" surfaces as a completed record with exit
code 127 rather than a spawn failure; spawn_failed is reserved for OS-level
failures to start the shell itself.

Scheduler modes write one batch script per job and submit each with
``<submit_command> <script_path>``, the path quoted for the shell.
Submission never waits for job completion. The scheduler job ID is taken
from the submit command's standard output as the first whitespace-delimited
token containing a digit (a documented heuristic that covers sbatch and
qsub). A submit's output is read as text from files when it exits, so
output that a process it left running writes later is not part of it; it is
decoded as ``text=True`` decodes a pipe, with U+FFFD for a byte the
encoding cannot decode.

A dry run (kind "dry", or dry_run with any kind) is one generator: it
writes each batch script (slurm/pbs) and makes each record as it is read.
``subprocess`` is imported where a dispatch starts its first process, so a
dry run does not load it.
"""

from __future__ import annotations

import itertools
import os
import re
import shlex
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import files
from .errors import DISPATCHER_KINDS, SchedulerError
from .mapping import SimIds

__all__ = [
    "JobSpec",
    "JobRecord",
    "DispatcherConfig",
    "DISPATCHER_KINDS",
    "render_batch_script",
    "batch_script_path",
    "scheduler_log_path",
    "capture_paths",
    "dispatch_all",
]

_STATUSES = ("completed", "submitted", "dry_run", "spawn_failed")


@dataclass(frozen=True)
class JobSpec:
    """One simulation to execute; the command already has its sim_id substituted."""

    sim_id: str
    command: str
    workdir: Path

    def __post_init__(self):
        if not self.command:
            raise ValueError(f"job {self.sim_id!r}: command is empty")


@dataclass(frozen=True)
class JobRecord:
    """Outcome of dispatching one job."""

    sim_id: str
    command: str
    status: str
    exit_code: int | None = None
    scheduler_job_id: str | None = None
    reason: str | None = None
    started_at: str | None = None
    finished_at: str | None = None
    duration: float | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown job status {self.status!r}")
        if self.status == "completed" and self.exit_code is None:
            raise ValueError("completed records need an exit code")
        if self.status == "submitted" and self.scheduler_job_id is None:
            raise ValueError("submitted records need a scheduler job ID")

    @property
    def succeeded(self) -> bool:
        return self.status == "completed" and self.exit_code == 0

    @property
    def failed(self) -> bool:
        return self.status == "spawn_failed" or (
            self.status == "completed" and self.exit_code != 0
        )


@dataclass(frozen=True)
class DispatcherConfig:
    kind: str = "local"
    max_parallel: int | None = None  # local; defaults to the CPUs this process may use
    submit_command: str | None = None  # default sbatch (slurm) / qsub (pbs)
    scheduler_directives: tuple[str, ...] = ()
    sweep_name: str = "sweep"
    capture: bool = False  # redirect local job output to <sweep>_<id>.out/.err
    dry_run: bool = False  # scheduler kinds still write scripts; nothing executes

    def __post_init__(self):
        if self.kind not in DISPATCHER_KINDS:
            raise ValueError(f"unknown dispatcher kind {self.kind!r}")
        if self.max_parallel is not None and self.max_parallel < 1:
            raise ValueError(f"max_parallel must be >= 1, got {self.max_parallel}")
        object.__setattr__(self, "scheduler_directives", tuple(self.scheduler_directives))

    @property
    def resolved_max_parallel(self) -> int:
        if self.max_parallel is not None:
            return self.max_parallel
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    @property
    def resolved_submit_command(self) -> str:
        if self.submit_command is not None:
            return self.submit_command
        return {"slurm": "sbatch", "pbs": "qsub"}.get(self.kind, "")


def render_batch_script(job: JobSpec, config: DispatcherConfig) -> str:
    """Batch script text for one job (slurm or pbs), deterministic."""
    tag = f"{config.sweep_name}_{job.sim_id}"
    log = scheduler_log_path(config.sweep_name, job.sim_id)
    if config.kind == "slurm":
        header = [f"#SBATCH --job-name={tag}", f"#SBATCH --output={log}"]
        header += [f"#SBATCH {d}" for d in config.scheduler_directives]
    elif config.kind == "pbs":
        header = [f"#PBS -N {tag}", f"#PBS -o {log}"]
        header += [f"#PBS {d}" for d in config.scheduler_directives]
    else:
        raise ValueError(f"batch scripts apply to slurm/pbs, not {config.kind!r}")
    return "\n".join(["#!/bin/sh", *header, "", job.command]) + "\n"


def batch_script_path(workdir: Path, sweep_name: str, sim_id: str) -> Path:
    return Path(workdir) / f"{sweep_name}_{sim_id}.sh"


def scheduler_log_path(sweep_name: str, sim_id: str) -> str:
    """Where the scheduler writes a batch job's output, from the directory it was submitted in."""
    return f"{sweep_name}_{sim_id}.out"


def capture_paths(workdir: Path, sweep_name: str, sim_id: str) -> tuple[Path, Path]:
    """Where a local job's standard output and standard error go under capture."""
    stem = f"{sweep_name}_{sim_id}"
    return Path(workdir) / f"{stem}.out", Path(workdir) / f"{stem}.err"


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _record(job: JobSpec, status: str, started: str | None = None, t0: float = 0.0, **outcome) -> JobRecord:
    """The record of `job`; one that started (at `started`, monotonic `t0`) ends now."""
    if started is not None:
        outcome.update(started_at=started, finished_at=_now_iso(), duration=time.monotonic() - t0)
    return JobRecord(sim_id=job.sim_id, command=job.command, status=status, **outcome)


def _unique(jobs: Iterable[JobSpec]) -> Iterator[JobSpec]:
    """`jobs` as they are read; a repeated sim_id raises ValueError when it is
    reached. While the k-th sim_id is the k-th of `mapping.sim_ids` at the
    width of the first, none can repeat, and none is made or kept; from the
    first that is not, the sim_ids read so far are kept."""
    jobs = iter(jobs)
    for count, job in enumerate(jobs):
        if count == 0:  # every ID of the first one's width; no sweep reaches 10**18 simulations
            formula = SimIds(10 ** min(len(job.sim_id) if isinstance(job.sim_id, str) else 1, 18))
        if formula.number(job.sim_id) != count:
            break
        yield job
    else:
        return
    seen = set(itertools.islice(formula, count))
    for job in itertools.chain([job], jobs):
        if job.sim_id in seen:
            raise ValueError("duplicate sim_ids in job list")
        seen.add(job.sim_id)
        yield job


def _write_batch_script(job: JobSpec, config: DispatcherConfig) -> Path:
    path = batch_script_path(job.workdir, config.sweep_name, job.sim_id)
    files.rewrite(str(path), render_batch_script(job, config))
    return path


# one word of a plain command: shlex's safe characters and single-quoted runs
_WORD = r"(?:[A-Za-z0-9_@%+=:,./-]|'[^']*')+"
_PLAIN = re.compile(rf"[ \t]*{_WORD}(?:[ \t]+{_WORD})*[ \t]*")
_WORDS = re.compile(_WORD)
# reserved words and builtins of POSIX sh, dash and bash: the shell never execs these
_SHELL_WORDS = frozenset(
    "! { } [[ ]] case coproc do done elif else esac fi for function if in select then time until while "
    ". : [ alias bg bind break builtin caller cd chdir command compgen complete compopt continue declare "
    "dirs disown echo enable eval exec exit export false fc fg getopts hash help history jobs kill let local "
    "logout mapfile newgrp popd printf pushd pwd read readarray readonly return set shift shopt source "
    "suspend test times trap true type typeset ulimit umask unalias unset wait".split()
)


def _plain_argv(command: str) -> list[str] | None:
    """The argv ``sh -c command`` would exec, if `command` is plain (see the
    module docstring); None if it is anything else."""
    if not _PLAIN.fullmatch(command):
        return None
    words = _WORDS.findall(command)
    argv = [word.replace("'", "") for word in words]  # a quoted run holds no quote
    if "=" in words[0] or not argv[0] or argv[0] in _SHELL_WORDS:
        return None
    return argv


def _child_env(workdir: Path) -> dict[str, str] | None:
    """The environment a shell started in `workdir` hands its command, or
    None when that is this process's own: the shell keeps the inherited PWD
    if it is absolute and names `workdir`, and sets it to the physical path
    otherwise. A new environment is made from ``os.environ``, so it lacks a
    variable set behind its back (readline sets LINES and COLUMNS so)."""
    pwd = os.environ.get("PWD", "")
    try:
        if os.path.isabs(pwd) and os.path.samefile(pwd, workdir):
            return None
    except OSError:
        pass
    return {**os.environ, "PWD": os.path.realpath(workdir)}


def _launcher(jobs: list[JobSpec]) -> Callable:
    """``launch(command, cwd, **kwargs)`` for the processes of `jobs`:
    ``subprocess.run`` on a plain command's argv, with the shell's exit code
    for a signal death, and on anything else, or a plain command that could
    not start, through the shell. The environment of each job's directory is
    made here, once."""
    import subprocess

    run = subprocess.run
    # without PATH, the shell searches its own default list, not Python's
    if "PATH" not in os.environ or any(name.startswith("BASH_FUNC_") for name in os.environ):
        envs = {}
    else:
        envs = {workdir: _child_env(workdir) for workdir in {job.workdir for job in jobs}}

    def launch(command: str, cwd: Path, **kwargs):
        argv = _plain_argv(command) if cwd in envs else None
        if argv is not None:
            try:
                proc = run(argv, cwd=cwd, env=envs[cwd], **kwargs)
            except OSError:  # nothing ran; the shell reports it as it always has
                pass
            else:
                if proc.returncode < 0:
                    proc.returncode = 128 - proc.returncode
                return proc
        return run(command, shell=True, cwd=cwd, **kwargs)

    return launch


def _run_local_job(job: JobSpec, config: DispatcherConfig, launch: Callable) -> JobRecord:
    """Run one job through `launch` (see `_launcher`) and record its outcome."""
    started = _now_iso()
    t0 = time.monotonic()
    try:
        if config.capture:
            out_path, err_path = capture_paths(job.workdir, config.sweep_name, job.sim_id)
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = launch(job.command, job.workdir, stdout=out, stderr=err)
        else:
            proc = launch(job.command, job.workdir)
    except OSError as exc:
        return _record(job, "spawn_failed", started, t0, reason=str(exc))
    return _record(job, "completed", started, t0, exit_code=proc.returncode)


def _parse_scheduler_job_id(stdout: str) -> str | None:
    for token in stdout.split():
        if any(ch.isdigit() for ch in token):
            return token
    return None


def _dispatch_scheduler(jobs: list[JobSpec], config: DispatcherConfig) -> list[JobRecord]:
    """Submit each job in turn. Every submit writes its standard output and
    error to one pair of unlinked files made beside the first batch script,
    emptied before each submit and read when it exits, as ``text=True``
    reads a pipe (its encoding, universal newlines) but with U+FFFD for a
    byte that encoding cannot decode."""
    import tempfile
    from contextlib import ExitStack

    records: list[JobRecord] = []
    submit = config.resolved_submit_command
    launch = _launcher(jobs)
    # what text=True decodes with: UTF-8 in Python's UTF-8 mode (which the C
    # locale turns on, though that locale's own encoding is ASCII), else the locale's
    encoding = "utf-8" if sys.flags.utf8_mode else "locale"
    with ExitStack() as stack:
        outputs = []
        for job in jobs:
            script_path = _write_batch_script(job, config)
            if not outputs:
                options = {"encoding": encoding, "errors": "replace", "dir": job.workdir}
                outputs = [stack.enter_context(tempfile.TemporaryFile("w+", **options)) for _ in range(2)]
            for file in outputs:
                file.seek(0)
                file.truncate()
            started = _now_iso()
            t0 = time.monotonic()
            line = f"{submit} {shlex.quote(str(script_path))}"
            try:
                proc = launch(line, job.workdir, stdout=outputs[0], stderr=outputs[1])
            except OSError as exc:
                raise SchedulerError(job.sim_id, f"could not run {submit!r}: {exc}", records) from exc
            for file in outputs:
                file.seek(0)
            stdout, stderr = (file.read() for file in outputs)
            if proc.returncode != 0:
                detail = stderr.strip() or stdout.strip() or "no output"
                raise SchedulerError(job.sim_id, f"{submit!r} exited with {proc.returncode}: {detail}", records)
            job_id = _parse_scheduler_job_id(stdout) or "unknown"
            records.append(_record(job, "submitted", started, t0, scheduler_job_id=job_id))
    return records


def _dry_run(jobs: Iterable[JobSpec], config: DispatcherConfig) -> Iterator[JobRecord]:
    """A dry_run record per job as it is read, after its batch script for slurm/pbs."""
    scripts = config.kind in ("slurm", "pbs")
    for job in _unique(jobs):
        if scripts:
            _write_batch_script(job, config)
        yield _record(job, "dry_run")


def _dispatch_local(jobs: list[JobSpec], config: DispatcherConfig) -> list[JobRecord]:
    """Run `jobs` on the calling thread and on max_parallel - 1 helper
    threads (none at max_parallel 1), each taking the next job in order when
    its last one ends; the records are kept by index. The first exception a
    job raises, on any thread, stops the handing-out of jobs and is raised
    here once every helper has ended. On the main thread under Python's own
    SIGINT handler, a SIGINT stops the handing-out as it arrives, not when
    the KeyboardInterrupt leaves ``subprocess.run``, which first waits up to
    0.25 s for its child."""
    import signal
    import threading

    launch = _launcher(jobs)
    records: list[JobRecord | None] = [None] * len(jobs)
    todo = enumerate(jobs)
    lock = threading.Lock()
    raised: list[BaseException] = []  # nonempty once the handing-out has stopped

    def work() -> None:
        try:
            while True:
                with lock:
                    item = None if raised else next(todo, None)
                if item is None:
                    return
                index, job = item
                records[index] = _run_local_job(job, config, launch)
        except BaseException as exc:
            raised.append(exc)

    def interrupt(signum, frame):  # Python's own SIGINT handler, stopping the handing-out first
        raised.append(KeyboardInterrupt())
        raise raised[-1]

    slots = min(config.resolved_max_parallel, len(jobs))
    helpers = [threading.Thread(target=work) for _ in range(slots - 1)]
    previous = signal.getsignal(signal.SIGINT)
    trap = previous is signal.default_int_handler and threading.current_thread() is threading.main_thread()
    if trap:
        signal.signal(signal.SIGINT, interrupt)
    try:
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
    finally:
        if trap:
            signal.signal(signal.SIGINT, previous)
    if raised:
        raise raised[0]
    return records


def dispatch_all(jobs: Iterable[JobSpec], config: DispatcherConfig) -> Iterable[JobRecord]:
    """Execute or submit every job; one record per job, input order preserved.

    All configuration files must already be on disk (rendering and writing
    happen before any dispatch). Batch scripts and capture files are written
    over any file at their paths: `sweeprun.run_sweep` checks for conflicts
    before its first write. Local jobs run at most max_parallel at once, on
    the calling thread and max_parallel - 1 helper threads that each wait on
    one job at a time; job failures are recorded, never raised. A dispatch
    that runs nothing (kind "dry", or dry_run with any kind) returns an
    iterator that reads `jobs` once, as its records are read: it writes each
    job's batch script (slurm/pbs) and makes its record then, and reports a
    repeated sim_id when it reaches it, so it holds no record per job and has
    no len or index. Every other dispatch reads `jobs` once, checks every
    sim_id before its first job and returns a list. The repeat check keeps
    no sim_id while they are those of `mapping.sim_ids`, in order.
    """
    if config.kind == "dry" or config.dry_run:
        return _dry_run(jobs, config)
    jobs = list(_unique(jobs))
    if config.kind in ("slurm", "pbs"):
        return _dispatch_scheduler(jobs, config)
    return _dispatch_local(jobs, config)
