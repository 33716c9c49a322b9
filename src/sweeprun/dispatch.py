"""Job dispatch: local jobs (at most max_parallel at once), batch-scheduler submission, dry runs.

A command means what ``/bin/sh -c <command>`` makes of it, so the sweep
author's command string is honored verbatim (including pipes and
redirections). Every dispatch goes through one runner, `_run_jobs`, which
passes each job's record on in input order as it is made: a submit, or a
dry run's record, is a job run at one slot. A job that exits non-zero is
recorded and the sweep continues; only a failing submit command (scheduler
modes) aborts the whole dispatch, after the records of the jobs submitted
before it have been passed on.

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

A dry run (kind "dry", or dry_run with any kind) writes each batch script
(slurm/pbs) and makes each record as its job is read. ``subprocess`` is
imported where a dispatch may start a process, so a dry run does not load
it.
"""

from __future__ import annotations

import functools
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
    """Batch script text for one job (slurm or pbs), deterministic. PBS, unlike
    Slurm, starts a job in the home directory and names the submit directory
    in PBS_O_WORKDIR, so a pbs script changes to it where it is set."""
    tag = f"{config.sweep_name}_{job.sim_id}"
    log = scheduler_log_path(config.sweep_name, job.sim_id)
    if config.kind == "slurm":
        header = [f"#SBATCH --job-name={tag}", f"#SBATCH --output={log}"]
        header += [f"#SBATCH {d}" for d in config.scheduler_directives]
        start = []
    elif config.kind == "pbs":
        header = [f"#PBS -N {tag}", f"#PBS -o {log}"]
        header += [f"#PBS {d}" for d in config.scheduler_directives]
        start = ['cd "${PBS_O_WORKDIR:-.}" || exit']
    else:
        raise ValueError(f"batch scripts apply to slurm/pbs, not {config.kind!r}")
    return "\n".join(["#!/bin/sh", *header, "", *start, job.command]) + "\n"


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


def _launcher() -> Callable:
    """``launch(command, cwd, **kwargs)`` for a dispatch's processes:
    ``subprocess.run`` on a plain command's argv, with the shell's exit code
    for a signal death, and on anything else, or a plain command that could
    not start, through the shell. The environment of a job's directory is
    made when the first job runs there."""
    import subprocess

    run = subprocess.run
    # without PATH, the shell searches its own default list, not Python's
    plain = "PATH" in os.environ and not any(name.startswith("BASH_FUNC_") for name in os.environ)
    child_env = functools.cache(_child_env)

    def launch(command: str, cwd: Path, **kwargs):
        argv = _plain_argv(command) if plain else None
        if argv is not None:
            try:
                proc = run(argv, cwd=cwd, env=child_env(cwd), **kwargs)
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


def _run_jobs(
    jobs: Iterable[JobSpec], slots: int, run_job: Callable[[JobSpec], JobRecord], record: Callable[[JobRecord], object]
) -> None:
    """`run_job` on each of `jobs` (read once, through `_unique`), at most `slots` at once, and
    `record` on each record in input order, one call at a time. At one slot the calling thread
    runs the jobs and starts no thread. At more, helper threads each take the next job when
    their last one ends, while the calling thread only waits: it starts one helper, and a helper
    that takes a job starts another until `slots` have started, so at most min(slots, jobs + 1)
    start. A record that ends ahead of an earlier job's is held by its index, and the helper that
    ends the last earlier job passes it on, under the lock. The first exception a job or `record`
    raises, or the waiting thread gets (a SIGINT's KeyboardInterrupt), stops the handing-out and
    the recording, and is raised here once every helper has ended."""
    if slots == 1:
        for job in _unique(jobs):
            record(run_job(job))
        return
    import threading

    todo = enumerate(_unique(jobs))
    lock = threading.Lock()
    raised: list[BaseException] = []  # nonempty once the handing-out has stopped
    ended: dict[int, JobRecord] = {}  # records not yet passed on, by index
    passed = 0  # the index of the next record to pass on
    helpers: list[threading.Thread] = []  # each appended, under the lock, before the one that started it ends

    def start() -> None:
        helper = threading.Thread(target=work)
        helper.start()
        helpers.append(helper)

    def work() -> None:
        nonlocal passed
        try:
            while True:
                with lock:
                    item = None if raised else next(todo, None)
                    if item is not None and len(helpers) < slots:
                        start()
                if item is None:
                    return
                index, job = item
                result = run_job(job)
                with lock:
                    ended[index] = result
                    while passed in ended and not raised:
                        record(ended.pop(passed))
                        passed += 1
        except BaseException as exc:
            raised.append(exc)

    try:
        with lock:
            start()
        for helper in helpers:  # reaches the helpers appended while it runs
            helper.join()
    except BaseException as exc:  # a SIGINT's KeyboardInterrupt; no job runs on this thread
        with lock:
            raised.append(exc)  # no helper starts after this
        for helper in helpers:
            helper.join()
    if raised:
        raise raised[0]


def _submit_job(job: JobSpec, config: DispatcherConfig, launch: Callable, outputs) -> JobRecord:
    """Write `job`'s batch script and submit it through `launch`, its output and error to
    the pair of files `outputs`, read when it exits; a failed submit raises SchedulerError."""
    submit = config.resolved_submit_command
    script_path = _write_batch_script(job, config)
    for file in outputs:
        file.seek(0)
        file.truncate()
    started = _now_iso()
    t0 = time.monotonic()
    try:
        proc = launch(f"{submit} {shlex.quote(str(script_path))}", job.workdir, stdout=outputs[0], stderr=outputs[1])
    except OSError as exc:
        raise SchedulerError(job.sim_id, f"could not run {submit!r}: {exc}") from exc
    for file in outputs:
        file.seek(0)
    stdout, stderr = (file.read() for file in outputs)
    if proc.returncode != 0:
        detail = stderr.strip() or stdout.strip() or "no output"
        raise SchedulerError(job.sim_id, f"{submit!r} exited with {proc.returncode}: {detail}")
    job_id = _parse_scheduler_job_id(stdout) or "unknown"
    return _record(job, "submitted", started, t0, scheduler_job_id=job_id)


def _dry_job(job: JobSpec, config: DispatcherConfig) -> JobRecord:
    """A dry_run record, after the job's batch script for slurm/pbs."""
    if config.kind in ("slurm", "pbs"):
        _write_batch_script(job, config)
    return _record(job, "dry_run")


def dispatch_all(jobs: Iterable[JobSpec], config: DispatcherConfig, record: Callable[[JobRecord], object]) -> None:
    """Execute or submit every job, and call `record` with each job's record.

    `jobs` is read once, as its jobs are handed out, and a repeated sim_id
    raises ValueError when it is reached; the check keeps no sim_id while
    they are those of `mapping.sim_ids`, in order. Records are passed in
    input order, never two at once, and dispatch_all returns only after the
    last: a record is passed on the calling thread at one slot, and on a
    helper thread at more (see `_run_jobs`). What `record` raises stops the
    dispatch and is raised here. A record that ends ahead of a slower,
    earlier job's is held until that one ends; nothing else is held per job.

    All configuration files must already be on disk (rendering and writing
    happen before any dispatch). Batch scripts and capture files are written
    over any file at their paths: `sweeprun.run_sweep` checks for conflicts
    before its first write. Local jobs run at most max_parallel at once (on
    the calling thread at one, else on helper threads while it waits), and
    submits one at a time; job failures are recorded, never raised. A
    dispatch that runs nothing (kind "dry", or dry_run with any kind) writes
    each job's batch script (slurm/pbs) and makes its record as it is read.
    """
    if config.kind == "dry" or config.dry_run:
        return _run_jobs(jobs, 1, lambda job: _dry_job(job, config), record)
    launch = _launcher()
    if config.kind == "local":
        return _run_jobs(jobs, config.resolved_max_parallel, lambda job: _run_local_job(job, config, launch), record)
    import tempfile

    # decoded as text=True decodes a pipe, UTF-8 in Python's UTF-8 mode (which the C locale turns on)
    # else the locale's encoding, but with U+FFFD for a byte it cannot decode; made where tempfile
    # makes its files, as the summary's spool is
    options = {"encoding": "utf-8" if sys.flags.utf8_mode else "locale", "errors": "replace"}
    with tempfile.TemporaryFile("w+", **options) as out, tempfile.TemporaryFile("w+", **options) as err:
        _run_jobs(jobs, 1, lambda job: _submit_job(job, config, launch, (out, err)), record)
