"""Dispatcher behavior: local pool, batch scripts, scheduler submission, dry runs."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from stubmodel import read_high_water
from sweeprun.dispatch import (
    DispatcherConfig,
    JobRecord,
    JobSpec,
    batch_script_path,
    dispatch_all,
    render_batch_script,
)
from sweeprun.errors import OutputConflictError, SchedulerError


def _job(sim_id, command, workdir):
    return JobSpec(sim_id=sim_id, command=command, workdir=workdir)


class TestBatchScripts:
    def test_slurm_script_bytes(self):
        job = _job("000", "./ocean 000", Path("."))
        script = render_batch_script(job, DispatcherConfig(kind="slurm", sweep_name="ocean"))
        assert script == (
            "#!/bin/sh\n"
            "#SBATCH --job-name=ocean_000\n"
            "#SBATCH --output=ocean_000.out\n"
            "\n"
            "./ocean 000\n"
        )

    def test_pbs_script_bytes(self):
        job = _job("000", "./ocean 000", Path("."))
        script = render_batch_script(job, DispatcherConfig(kind="pbs", sweep_name="ocean"))
        assert script == (
            "#!/bin/sh\n"
            "#PBS -N ocean_000\n"
            "#PBS -o ocean_000.out\n"
            "\n"
            "./ocean 000\n"
        )

    def test_extra_directive_after_output_line(self):
        job = _job("000", "./ocean 000", Path("."))
        config = DispatcherConfig(kind="slurm", scheduler_directives=("--time=00:10:00",), sweep_name="ocean")
        script = render_batch_script(job, config)
        lines = script.splitlines()
        assert lines[2] == "#SBATCH --output=ocean_000.out"
        assert lines[3] == "#SBATCH --time=00:10:00"
        assert lines[4] == ""

    def test_script_path_convention(self):
        assert batch_script_path(Path("/w"), "ocean", "007") == Path("/w/ocean_007.sh")


class TestDefaultParallelism:
    def test_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert DispatcherConfig().resolved_max_parallel == 1

    @pytest.mark.parametrize("count, expected", [(5, 5), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert DispatcherConfig().resolved_max_parallel == expected

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert DispatcherConfig(max_parallel=3).resolved_max_parallel == 3

class TestLocalDispatch:
    def test_exit_code_passthrough(self, workdir):
        records = dispatch_all([_job("0", "exit 3", workdir)], DispatcherConfig(kind="local"))
        assert records[0].status == "completed"
        assert records[0].exit_code == 3

    def test_one_record_per_job_in_order(self, workdir):
        jobs = [_job(str(i), "true", workdir) for i in range(5)]
        records = dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=3))
        assert [r.sim_id for r in records] == [str(i) for i in range(5)]
        assert all(r.succeeded for r in records)

    def test_failure_isolation(self, workdir):
        jobs = [
            _job("a", "touch ok_a", workdir),
            _job("b", "exit 1", workdir),
            _job("c", "touch ok_c", workdir),
        ]
        records = dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=1))
        assert len(records) == 3
        assert records[0].succeeded
        assert records[1].failed and records[1].exit_code == 1
        assert records[2].succeeded
        assert (workdir / "ok_a").exists() and (workdir / "ok_c").exists()

    def test_command_not_found_is_recorded_not_raised(self, workdir):
        records = dispatch_all(
            [_job("0", "definitely-not-a-command-xyz", workdir)],
            DispatcherConfig(kind="local"),
        )
        # under a shell, command-not-found comes back as exit 127
        assert records[0].status == "completed"
        assert records[0].exit_code == 127
        assert records[0].failed

    def test_pool_bound_and_wall_time(self, workdir, stub, monkeypatch):
        script, command = stub
        counter = workdir / "counter"
        counter.mkdir()
        monkeypatch.setenv("STUB_COUNTER_DIR", str(counter))
        for i in range(8):
            (workdir / f"params_{i}.nml").write_text(f"v = {i}\n", encoding="utf-8")
        jobs = [_job(str(i), command.replace("{sim_id}", str(i)), workdir) for i in range(8)]
        config = DispatcherConfig(kind="local", max_parallel=4)
        t0 = time.monotonic()
        records = dispatch_all(jobs, config)
        elapsed = time.monotonic() - t0
        assert all(r.succeeded for r in records)
        assert elapsed >= 0.4  # 8 jobs of 0.2 s through 4 slots needs 2 waves
        assert read_high_water(counter) <= 4

    def test_duration_and_timestamps_recorded(self, workdir):
        record = dispatch_all([_job("0", "sleep 0.05", workdir)], DispatcherConfig())[0]
        assert record.duration >= 0.05
        assert record.started_at and record.finished_at

    def test_capture_redirects_output(self, workdir):
        config = DispatcherConfig(kind="local", capture=True, sweep_name="cap")
        records = dispatch_all(
            [_job("0", "echo oot; echo err >&2", workdir)], config
        )
        assert records[0].succeeded
        assert (workdir / "cap_0.out").read_text() == "oot\n"
        assert (workdir / "cap_0.err").read_text() == "err\n"

    def test_duplicate_sim_ids_rejected(self, workdir):
        jobs = [_job("0", "true", workdir), _job("0", "true", workdir)]
        with pytest.raises(ValueError, match="duplicate"):
            dispatch_all(jobs, DispatcherConfig())


@pytest.fixture
def fake_scheduler(workdir):
    """A submit command that logs its invocations and prints a job ID."""
    log = workdir / "submissions.log"
    fake = workdir / "fake_sbatch.sh"
    fake.write_text(
        "#!/bin/sh\n"
        f'echo "$@" >> {log}\n'
        'echo "Submitted batch job 4242"\n',
        encoding="utf-8",
    )
    fake.chmod(0o755)
    return f"sh {fake}", log


class TestSchedulerDispatch:
    def test_submit_invoked_per_job_and_id_parsed(self, workdir, fake_scheduler):
        submit, log = fake_scheduler
        jobs = [_job(f"{i:03d}", f"./model {i:03d}", workdir) for i in range(3)]
        config = DispatcherConfig(kind="slurm", submit_command=submit, sweep_name="demo")
        records = dispatch_all(jobs, config)
        assert [r.status for r in records] == ["submitted"] * 3
        assert {r.scheduler_job_id for r in records} == {"4242"}
        assert len(log.read_text().splitlines()) == 3
        for i in range(3):
            script = workdir / f"demo_{i:03d}.sh"
            assert script.exists()
            assert script.read_text().endswith(f"./model {i:03d}\n")

    def test_failing_submit_aborts(self, workdir):
        jobs = [_job("000", "./model", workdir)]
        config = DispatcherConfig(kind="slurm", submit_command="exit 9", sweep_name="demo")
        with pytest.raises(SchedulerError, match="000") as failure:
            dispatch_all(jobs, config)
        assert failure.value.records == ()

    def test_failing_submit_carries_the_records_already_submitted(self, workdir):
        fake = workdir / "fake_sbatch.sh"
        fake.write_text(
            '#!/bin/sh\ncase "$1" in *_002.sh) exit 1;; esac\necho "Submitted batch job 4242"\n',
            encoding="utf-8",
        )
        jobs = [_job(f"{i:03d}", f"./model {i:03d}", workdir) for i in range(4)]
        config = DispatcherConfig(kind="slurm", submit_command=f"sh {fake}", sweep_name="demo")
        with pytest.raises(SchedulerError, match="002") as failure:
            dispatch_all(jobs, config)
        assert [(r.sim_id, r.status) for r in failure.value.records] == [
            ("000", "submitted"),
            ("001", "submitted"),
        ]
        assert not (workdir / "demo_003.sh").exists()

    def test_dry_run_writes_scripts_but_never_submits(self, workdir, fake_scheduler):
        submit, log = fake_scheduler
        jobs = [_job("000", "./model 000", workdir)]
        config = DispatcherConfig(
            kind="pbs", submit_command=submit, sweep_name="demo", dry_run=True
        )
        records = dispatch_all(jobs, config)
        assert records[0].status == "dry_run"
        assert (workdir / "demo_000.sh").exists()
        assert not log.exists()

    def test_existing_script_conflicts_without_overwrite(self, workdir, fake_scheduler):
        submit, _log = fake_scheduler
        (workdir / "demo_000.sh").write_text("old", encoding="utf-8")
        jobs = [_job("000", "./model 000", workdir)]
        config = DispatcherConfig(kind="slurm", submit_command=submit, sweep_name="demo")
        with pytest.raises(OutputConflictError):
            dispatch_all(jobs, config)
        records = dispatch_all(
            jobs,
            DispatcherConfig(
                kind="slurm", submit_command=submit, sweep_name="demo", overwrite=True
            ),
        )
        assert records[0].status == "submitted"


class TestDryDispatch:
    def test_dry_kind_touches_nothing(self, workdir):
        jobs = [_job("000", "./ocean 000", workdir)]
        records = dispatch_all(jobs, DispatcherConfig(kind="dry"))
        assert list(records) == [JobRecord(sim_id="000", command="./ocean 000", status="dry_run")]
        assert list(workdir.iterdir()) == []

    def test_dry_records_are_made_as_they_are_read(self, workdir):
        made = []

        class Jobs:  # sized and iterable, made on each pass, never indexed
            def __len__(self):
                return 3

            def __iter__(self):
                for k in range(3):
                    made.append(k)
                    yield _job(str(k), f"./ocean {k}", workdir)

        records = dispatch_all(Jobs(), DispatcherConfig(kind="dry"))
        assert len(records) == 3 and made == []
        assert [(r.sim_id, r.command, r.status) for r in records] == [
            ("0", "./ocean 0", "dry_run"), ("1", "./ocean 1", "dry_run"), ("2", "./ocean 2", "dry_run"),
        ]
        assert made == [0, 1, 2]

    def test_dry_duplicate_sim_id_is_reported_when_read(self, workdir):
        jobs = [_job("0", "true", workdir), _job("0", "true", workdir)]
        records = dispatch_all(jobs, DispatcherConfig(kind="dry"))
        with pytest.raises(ValueError, match="duplicate"):
            list(records)

    def test_local_dry_run_flag(self, workdir):
        jobs = [_job("0", "touch should_not_exist", workdir)]
        records = dispatch_all(jobs, DispatcherConfig(kind="local", dry_run=True))
        assert records[0].status == "dry_run"
        assert not (workdir / "should_not_exist").exists()


class TestRecordInvariants:
    def test_completed_needs_exit_code(self):
        with pytest.raises(ValueError):
            JobRecord(sim_id="0", command="x", status="completed")

    def test_submitted_needs_job_id(self):
        with pytest.raises(ValueError):
            JobRecord(sim_id="0", command="x", status="submitted")

    def test_to_dict_omits_empty_fields(self):
        record = JobRecord(sim_id="0", command="x", status="dry_run")
        assert record.to_dict() == {"sim_id": "0", "command": "x", "status": "dry_run"}
