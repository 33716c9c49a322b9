"""Job dispatch: local bounded-parallel execution, batch-scheduler submission, dry runs.

Commands run through the platform shell, so the sweep author's command
string is honored verbatim (including pipes and redirections). A job that
exits non-zero is recorded and the sweep continues; only a failing submit
command (scheduler modes) aborts the whole dispatch; the SchedulerError
carries the records of the jobs submitted before it. Note that under a
shell, "command not found" surfaces as a completed record with exit code
127 rather than a spawn failure; spawn_failed is reserved for OS-level
failures to start the shell itself.

Scheduler modes write one batch script per job and submit each with
``<submit_command> <script_path>``. Submission never waits for job
completion. The scheduler job ID is taken from the submit command's
standard output as the first whitespace-delimited token containing a
digit (a documented heuristic that covers sbatch and qsub).

``subprocess`` and the thread pool are imported where a dispatch starts its
first process, so a dry run loads neither.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Collection, Iterator, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import files
from .errors import DISPATCHER_KINDS, SchedulerError

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


def _run_local_job(job: JobSpec, config: DispatcherConfig, run: Callable) -> JobRecord:
    """Run one job through `run` (``subprocess.run``) and record its outcome."""
    started = _now_iso()
    t0 = time.monotonic()
    try:
        if config.capture:
            out_path, err_path = capture_paths(job.workdir, config.sweep_name, job.sim_id)
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = run(job.command, shell=True, cwd=job.workdir, stdout=out, stderr=err)
        else:
            proc = run(job.command, shell=True, cwd=job.workdir)
    except OSError as exc:
        return JobRecord(
            sim_id=job.sim_id,
            command=job.command,
            status="spawn_failed",
            reason=str(exc),
            started_at=started,
            finished_at=_now_iso(),
            duration=time.monotonic() - t0,
        )
    return JobRecord(
        sim_id=job.sim_id,
        command=job.command,
        status="completed",
        exit_code=proc.returncode,
        started_at=started,
        finished_at=_now_iso(),
        duration=time.monotonic() - t0,
    )


def _parse_scheduler_job_id(stdout: str) -> str | None:
    for token in stdout.split():
        if any(ch.isdigit() for ch in token):
            return token
    return None


def _dispatch_scheduler(jobs: Sequence[JobSpec], config: DispatcherConfig) -> list[JobRecord]:
    records: list[JobRecord] = []
    submit = config.resolved_submit_command
    if not config.dry_run:
        import subprocess
    for job in jobs:
        script_path = batch_script_path(job.workdir, config.sweep_name, job.sim_id)
        files.rewrite(str(script_path), render_batch_script(job, config))
        if config.dry_run:
            records.append(JobRecord(sim_id=job.sim_id, command=job.command, status="dry_run"))
            continue
        started = _now_iso()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                f"{submit} {script_path}",
                shell=True,
                cwd=job.workdir,
                capture_output=True,
                text=True,
            )
        except OSError as exc:
            raise SchedulerError(job.sim_id, f"could not run {submit!r}: {exc}", records) from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip() or "no output"
            raise SchedulerError(
                job.sim_id, f"{submit!r} exited with {proc.returncode}: {detail}", records
            )
        job_id = _parse_scheduler_job_id(proc.stdout) or "unknown"
        records.append(
            JobRecord(
                sim_id=job.sim_id,
                command=job.command,
                status="submitted",
                scheduler_job_id=job_id,
                started_at=started,
                finished_at=_now_iso(),
                duration=time.monotonic() - t0,
            )
        )
    return records


class _DryRecords(Sequence):
    """The records of a dry dispatch, made from the jobs each time they are
    read, so a dry run holds no record per job."""

    def __init__(self, jobs: Collection[JobSpec]):
        self._jobs = jobs

    def __len__(self) -> int:
        return len(self._jobs)

    @staticmethod
    def _record(job: JobSpec) -> JobRecord:
        return JobRecord(sim_id=job.sim_id, command=job.command, status="dry_run")

    def __getitem__(self, index: int) -> JobRecord:
        return self._record(self._jobs[index])

    def __iter__(self) -> Iterator[JobRecord]:
        seen: set[str] = set()
        for job in self._jobs:
            if job.sim_id in seen:
                raise ValueError("duplicate sim_ids in job list")
            seen.add(job.sim_id)
            yield self._record(job)


def dispatch_all(jobs: Collection[JobSpec], config: DispatcherConfig) -> Sequence[JobRecord]:
    """Execute or submit every job; one record per job, input order preserved.

    `jobs` may be any sized iterable. All configuration files must already
    be on disk (rendering and writing happen before any dispatch). Batch
    scripts and capture files are written over any file at their paths:
    `sweeprun.run.plan` checks for conflicts before `run.materialize` writes
    and `run.dispatch` calls this. Local jobs run on a pool of max_parallel
    threads, each waiting on one shell at a time; job failures are recorded,
    never raised. A dry dispatch (kind "dry", or dry_run with the local kind)
    executes nothing and returns a view that makes each record from `jobs`
    as it is read, reporting a repeated sim_id then; every other dispatch
    reads `jobs` once, checks the sim_ids first and returns a list.
    """
    if config.kind == "dry" or (config.kind == "local" and config.dry_run):
        return _DryRecords(jobs)
    jobs = list(jobs)
    ids = [j.sim_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate sim_ids in job list")
    if config.kind in ("slurm", "pbs"):
        return _dispatch_scheduler(jobs, config)
    import subprocess
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=config.resolved_max_parallel) as pool:
        futures = [pool.submit(_run_local_job, job, config, subprocess.run) for job in jobs]
        return [f.result() for f in futures]
