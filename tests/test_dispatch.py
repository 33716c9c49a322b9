"""Dispatcher behavior: local jobs, batch scripts, scheduler submission, dry runs."""

from __future__ import annotations

import errno
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stubmodel import read_high_water
from sweeprun import dispatch
from sweeprun.dispatch import (
    DispatcherConfig,
    JobRecord,
    JobSpec,
    _parse_scheduler_job_id,
    batch_script_path,
    dispatch_all,
    render_batch_script,
)
from sweeprun.cli import main
from sweeprun.errors import SchedulerError
from sweeprun.mapping import sim_ids


def _job(sim_id, command, workdir):
    return JobSpec(sim_id=sim_id, command=command, workdir=workdir)


def _records(jobs, config) -> list[JobRecord]:
    """The records `dispatch_all` passes on, in the order it passes them."""
    records = []
    dispatch_all(jobs, config, records.append)
    return records


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
            'cd "${PBS_O_WORKDIR:-.}" || exit\n'
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

    def test_pbs_job_runs_beside_its_configs(self, workdir, tiny_setup, tmp_path_factory, capsys):
        """PBS Pro and Torque start a batch job in the user's home directory
        and name the directory qsub ran in in PBS_O_WORKDIR. Each script is
        run with sh as PBS starts it, and then as a plain script where it is."""
        run = [*tiny_setup, "--command", "cp conf_{sim_id}.txt r_{sim_id}.txt", "--dispatcher", "pbs", "--dry-run"]
        assert main(run) == 0
        home = tmp_path_factory.mktemp("home")
        env = {key: value for key, value in os.environ.items() if key != "PBS_O_WORKDIR"}
        as_pbs = subprocess.run(["sh", str(workdir / "tiny_0.sh")], cwd=home, capture_output=True, text=True,
                                env={**env, "HOME": str(home), "PBS_O_WORKDIR": str(workdir)})
        assert as_pbs.returncode == 0, as_pbs.stderr
        outside = subprocess.run(["sh", "tiny_1.sh"], cwd=workdir, capture_output=True, text=True, env=env)
        assert outside.returncode == 0, outside.stderr
        for sim_id in ("0", "1"):
            assert (workdir / f"r_{sim_id}.txt").read_bytes() == (workdir / f"conf_{sim_id}.txt").read_bytes()
        assert list(home.iterdir()) == []


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
        records = _records([_job("0", "exit 3", workdir)], DispatcherConfig(kind="local"))
        assert records[0].status == "completed"
        assert records[0].exit_code == 3

    def test_one_record_per_job_in_order(self, workdir):
        jobs = [_job(str(i), "true", workdir) for i in range(5)]
        records = _records(jobs, DispatcherConfig(kind="local", max_parallel=3))
        assert [r.sim_id for r in records] == [str(i) for i in range(5)]
        assert all(r.succeeded for r in records)

    def test_failure_isolation(self, workdir):
        jobs = [
            _job("a", "touch ok_a", workdir),
            _job("b", "exit 1", workdir),
            _job("c", "touch ok_c", workdir),
        ]
        records = _records(jobs, DispatcherConfig(kind="local", max_parallel=1))
        assert len(records) == 3
        assert records[0].succeeded
        assert records[1].failed and records[1].exit_code == 1
        assert records[2].succeeded
        assert (workdir / "ok_a").exists() and (workdir / "ok_c").exists()

    def test_command_not_found_is_recorded_not_raised(self, workdir):
        records = _records(
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
        records = _records(jobs, config)
        elapsed = time.monotonic() - t0
        assert all(r.succeeded for r in records)
        assert elapsed >= 0.4  # 8 jobs of 0.2 s through 4 slots needs 2 waves
        assert read_high_water(counter) <= 4

    def test_duration_and_timestamps_recorded(self, workdir):
        record = _records([_job("0", "sleep 0.05", workdir)], DispatcherConfig())[0]
        assert record.duration >= 0.05
        assert record.started_at and record.finished_at

    def test_capture_redirects_output(self, workdir):
        config = DispatcherConfig(kind="local", capture=True, sweep_name="cap")
        records = _records(
            [_job("0", "echo oot; echo err >&2", workdir)], config
        )
        assert records[0].succeeded
        assert (workdir / "cap_0.out").read_text() == "oot\n"
        assert (workdir / "cap_0.err").read_text() == "err\n"

    def test_duplicate_sim_ids_rejected(self, workdir):
        jobs = [_job("0", "true", workdir), _job("0", "true", workdir)]
        with pytest.raises(ValueError, match="duplicate"):
            _records(jobs, DispatcherConfig())

    def test_every_job_runs_once_under_thread_switches(self, workdir):
        """More slots than CPUs and a thread switch every microsecond: each
        job still runs once and its record lands at its own index."""
        jobs = [_job(str(i), f"echo {i} >> ran", workdir) for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = _records(jobs, DispatcherConfig(kind="local", max_parallel=8))
        finally:
            sys.setswitchinterval(interval)
        assert [r.sim_id for r in records] == [str(i) for i in range(200)]
        assert all(r.succeeded for r in records)
        assert sorted(map(int, (workdir / "ran").read_text().split())) == list(range(200))

    def test_a_record_that_ends_early_waits_for_the_earlier_ones(self, workdir):
        """Jobs 1-5 end while job 0 still runs: their records are held, then
        passed on in order after job 0's, by the helper that ended job 0."""
        jobs = [_job("0", "sleep 0.5", workdir)] + [_job(str(k), "true", workdir) for k in range(1, 6)]
        passed = []

        def record(job_record):
            passed.append((job_record.sim_id, threading.current_thread()))

        dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=2), record)
        assert [sim_id for sim_id, _ in passed] == [str(k) for k in range(6)]
        threads = {thread for _, thread in passed}
        assert len(threads) == 1 and threading.main_thread() not in threads

    def test_one_slot_starts_no_thread(self, workdir, monkeypatch):
        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", start)
        jobs = [_job(str(i), "true", workdir) for i in range(3)]
        records = _records(jobs, DispatcherConfig(kind="local", max_parallel=1))
        assert [r.succeeded for r in records] == [True] * 3

    @pytest.mark.parametrize("given", [list, iter], ids=["list", "generator"])
    def test_a_helper_starts_only_when_a_job_is_handed_out(self, workdir, monkeypatch, given):
        """3 jobs at 16 slots start at most 4 helpers: one per job, and one that finds none."""
        start = threading.Thread.start
        started = []

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        jobs = [_job(str(i), "true", workdir) for i in range(3)]
        records = _records(given(jobs), DispatcherConfig(kind="local", max_parallel=16))
        assert [r.succeeded for r in records] == [True] * 3
        assert 1 <= len(started) <= 4

    def test_an_error_on_a_helper_thread_reaches_the_caller(self, workdir, monkeypatch):
        """A job that raises something other than OSError (here a NUL in its
        command) stops the dispatch."""
        run_local_job = dispatch._run_local_job
        raised_on = []

        def run(job, config, launch):
            try:
                return run_local_job(job, config, launch)
            except ValueError:
                raised_on.append(threading.current_thread())
                raise

        monkeypatch.setattr(dispatch, "_run_local_job", run)
        jobs = [_job(str(i), "true", workdir) for i in range(9)] + [_job("9", "true \0", workdir)]
        with pytest.raises(ValueError, match="null byte"):
            _records(jobs, DispatcherConfig(kind="local", max_parallel=2))
        assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()

    def test_jobs_run_on_helpers_under_the_callers_sigint_handler(self, workdir, monkeypatch):
        """At two slots the calling thread only waits, so no job runs on it and
        the dispatch installs no SIGINT handler of its own."""
        run_local_job = dispatch._run_local_job
        seen = []

        def run(job, config, launch):
            seen.append((signal.getsignal(signal.SIGINT), threading.current_thread() is threading.main_thread()))
            return run_local_job(job, config, launch)

        monkeypatch.setattr(dispatch, "_run_local_job", run)
        jobs = [_job(str(i), "true", workdir) for i in range(6)]
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            records = _records(jobs, DispatcherConfig(max_parallel=2))
        finally:
            signal.signal(signal.SIGINT, previous)
        assert [r.succeeded for r in records] == [True] * 6
        assert seen == [(signal.default_int_handler, False)] * 6

    def test_memory_held_per_job(self, workdir, monkeypatch):
        """A local dispatch holds about a job and a record per simulation."""
        monkeypatch.setenv("PWD", str(workdir))  # each job inherits the environment, as a user's run does
        config = DispatcherConfig(kind="local", max_parallel=2)

        def peak(count: int) -> int:
            jobs = [_job(str(i), "/bin/true", workdir) for i in range(count)]
            passed = []
            tracemalloc.start()
            try:
                dispatch_all(jobs, config, lambda record: passed.append(record.sim_id))
                assert passed == [job.sim_id for job in jobs]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # imports and first-use caches
        per_job = (peak(1000) - peak(100)) / 900
        assert per_job < 1024, f"{per_job:.0f} B per job"


@pytest.mark.parametrize("kind, slots", [("local", 1), ("local", 2), ("slurm", 1)])
def test_a_record_that_raises_stops_the_dispatch(workdir, kind, slots):
    """What `record` raises reaches the caller once every job that was
    running has ended, and no job starts, and no record is passed, after it."""
    jobs = [_job(str(k), f"echo {k} >> ran", workdir) for k in range(8)]
    (workdir / "submit.sh").write_text('sh "$1"; echo "Submitted batch job 7"\n', encoding="utf-8")
    config = DispatcherConfig(kind=kind, max_parallel=slots, submit_command="sh submit.sh")
    passed = []

    def record(job_record):
        passed.append(job_record.sim_id)
        if len(passed) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        dispatch_all(jobs, config, record)
    assert passed == ["0", "1"]
    ran = sorted(map(int, (workdir / "ran").read_text(encoding="utf-8").split()))
    assert ran == list(range(len(ran))) and len(ran) <= 2 + slots - 1


@pytest.mark.parametrize("kind, slots", [("local", 2), ("slurm", 1)])
def test_dispatch_holds_nothing_per_job(workdir, monkeypatch, kind, slots):
    """Local jobs at two slots, and submits, with a launch that starts no
    process and batch scripts written nowhere: what a dispatch holds at its
    peak does not grow with the number of jobs, of which it reads each once."""
    done = subprocess.CompletedProcess((), 0)
    monkeypatch.setattr(dispatch, "_launcher", lambda: lambda command, cwd, **kwargs: done)
    monkeypatch.setattr(dispatch.files, "rewrite", lambda path, text: None)
    config = DispatcherConfig(kind=kind, max_parallel=slots, submit_command="true")

    def peak(count: int) -> int:
        jobs = (_job(sim_id, "true", workdir) for sim_id in sim_ids(count))
        passed = itertools.count()
        tracemalloc.start()
        try:
            dispatch_all(jobs, config, lambda record: next(passed))
            assert next(passed) == count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # imports and first-use caches
    # pathlib interns each batch script's name, and the interpreter's one table of interned text is
    # made anew now and then as names come and go; names held from here on keep that table out of it
    held = [sys.intern(f"sweep_{sim_id}.sh") for sim_id in sim_ids(10_000)]
    per_job = (peak(10_000) - peak(2_000)) / 8_000
    assert per_job < 0.05 * 1024, f"{per_job:.1f} B per job"


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
        records = _records(jobs, config)
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
        records = []
        with pytest.raises(SchedulerError, match="000"):
            dispatch_all(jobs, config, records.append)
        assert records == []

    def test_failing_submit_carries_the_records_already_submitted(self, workdir):
        fake = workdir / "fake_sbatch.sh"
        fake.write_text(
            '#!/bin/sh\ncase "$1" in *_002.sh) exit 1;; esac\necho "Submitted batch job 4242"\n',
            encoding="utf-8",
        )
        jobs = [_job(f"{i:03d}", f"./model {i:03d}", workdir) for i in range(4)]
        config = DispatcherConfig(kind="slurm", submit_command=f"sh {fake}", sweep_name="demo")
        records = []
        with pytest.raises(SchedulerError, match="002"):
            dispatch_all(jobs, config, records.append)
        assert [(r.sim_id, r.status) for r in records] == [
            ("000", "submitted"),
            ("001", "submitted"),
        ]
        assert not (workdir / "demo_003.sh").exists()

    def test_a_script_path_with_a_space_is_one_argument(self, workdir):
        home = workdir / "a b"
        home.mkdir()
        (home / "fake.sh").write_text('echo "Submitted batch job 7$#"; test -f "$1"\n', encoding="utf-8")
        config = DispatcherConfig(kind="slurm", submit_command="sh fake.sh", sweep_name="demo")
        records = _records([_job("000", "./model", home)], config)
        assert [(r.status, r.scheduler_job_id) for r in records] == [("submitted", "71")]

    @pytest.mark.parametrize(
        "output",
        [
            "Submitted batch job 42\\r\\nfile d\\047attente: été\\n",
            "n°42 soumis\\r\\nSubmitted batch job 42\\r\\n",
        ],
        ids=["ascii-first", "non-ascii-first"],
    )
    def test_submit_output_reads_as_text_mode_reads_it(self, workdir, output):
        (workdir / "submit.sh").write_text(f"printf '{output}'\n", encoding="utf-8")
        config = DispatcherConfig(kind="slurm", submit_command="sh submit.sh", sweep_name="demo")
        [record] = _records([_job("000", "./model", workdir)], config)
        piped = subprocess.run(["sh", "submit.sh", "demo_000.sh"], cwd=workdir, capture_output=True, text=True)
        assert record.scheduler_job_id == _parse_scheduler_job_id(piped.stdout)
        assert sorted(path.name for path in workdir.iterdir()) == ["demo_000.sh", "submit.sh"]

    @pytest.mark.parametrize(
        "script",
        [
            "printf 'ok\\n'; printf 'queue full é\\r\\n  retry\\r' >&2; exit 3",
            "printf '\\r\\nrejected: n°5\\r\\n'; exit 1",
            "exit 2",
        ],
        ids=["stderr", "stdout-only", "no-output"],
    )
    def test_failing_submit_message_reads_as_text_mode_reads_it(self, workdir, script):
        (workdir / "submit.sh").write_text(script + "\n", encoding="utf-8")
        config = DispatcherConfig(kind="slurm", submit_command="sh submit.sh", sweep_name="demo")
        with pytest.raises(SchedulerError) as failure:
            _records([_job("000", "./model", workdir)], config)
        piped = subprocess.run(["sh", "submit.sh", "demo_000.sh"], cwd=workdir, capture_output=True, text=True)
        detail = piped.stderr.strip() or piped.stdout.strip() or "no output"
        assert str(failure.value) == str(
            SchedulerError("000", f"'sh submit.sh' exited with {piped.returncode}: {detail}")
        )

    def test_each_submit_reads_only_its_own_output(self, workdir):
        (workdir / "submit.sh").write_text(
            'case "$1" in *_000.sh) echo "Submitted batch job 1234567 on a long line";; *) echo queued;; esac\n',
            encoding="utf-8",
        )
        config = DispatcherConfig(kind="slurm", submit_command="sh submit.sh", sweep_name="demo")
        records = _records([_job("000", "./model", workdir), _job("001", "./model", workdir)], config)
        assert [r.scheduler_job_id for r in records] == ["1234567", "unknown"]

    def test_dry_run_writes_scripts_but_never_submits(self, workdir, fake_scheduler):
        submit, log = fake_scheduler
        jobs = [_job("000", "./model 000", workdir)]
        config = DispatcherConfig(
            kind="pbs", submit_command=submit, sweep_name="demo", dry_run=True
        )
        written = []  # whether the script is there as its record is passed on
        dispatch_all(jobs, config, lambda record: written.append((record.status, (workdir / "demo_000.sh").exists())))
        assert written == [("dry_run", True)]
        assert not log.exists()


class TestDryDispatch:
    def test_dry_kind_touches_nothing(self, workdir):
        jobs = [_job("000", "./ocean 000", workdir)]
        records = _records(jobs, DispatcherConfig(kind="dry"))
        assert records == [JobRecord(sim_id="000", command="./ocean 000", status="dry_run")]
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

        records = []  # each record, with the jobs made when it was passed on
        dispatch_all(Jobs(), DispatcherConfig(kind="dry"), lambda r: records.append((list(made), r)))
        assert [(made, r.sim_id, r.command, r.status) for made, r in records] == [
            ([0], "0", "./ocean 0", "dry_run"), ([0, 1], "1", "./ocean 1", "dry_run"),
            ([0, 1, 2], "2", "./ocean 2", "dry_run"),
        ]
        assert made == [0, 1, 2]

    def test_dry_duplicate_sim_id_is_reported_when_read(self, workdir):
        jobs = [_job("0", "true", workdir), _job("0", "true", workdir)]
        records = []
        with pytest.raises(ValueError, match="duplicate"):
            dispatch_all(jobs, DispatcherConfig(kind="dry"), records.append)
        assert [r.sim_id for r in records] == ["0"]

    def test_dry_repeat_check_of_sim_ids_that_are_not_text(self, workdir):
        jobs, records = [_job(k, "true", workdir) for k in (0, 1, 0)], []
        with pytest.raises(ValueError, match="duplicate"):
            dispatch_all(jobs, DispatcherConfig(kind="dry"), records.append)
        assert [r.sim_id for r in records] == [0, 1]

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(0, 1_100),
        st.lists(st.sampled_from(["0", "1", "2", "9", "10", "00", "01", "0000", "0999", "1000", "1001", "x", "٣", ""])),
    )
    def test_dry_repeat_check_agrees_with_a_set(self, formula_count, tail):
        """Formula IDs (kept by none) and then any IDs: a repeat is reported where a set finds it."""
        width = len(str(max(formula_count - 1, 0)))
        ids = [f"{k:0{width}d}" for k in range(formula_count)] + tail
        seen, repeat = set(), None
        for k, sim_id in enumerate(ids):
            if sim_id in seen:
                repeat = k
                break
            seen.add(sim_id)
        jobs = (_job(sim_id, "true", Path(".")) for sim_id in ids)
        read = []
        if repeat is None:
            dispatch_all(jobs, DispatcherConfig(kind="dry"), lambda record: read.append(record.sim_id))
        else:
            with pytest.raises(ValueError, match="duplicate"):
                dispatch_all(jobs, DispatcherConfig(kind="dry"), lambda record: read.append(record.sim_id))
        assert read == ids[:repeat]

    def test_local_dry_run_flag(self, workdir):
        jobs = [_job("0", "touch should_not_exist", workdir)]
        records = _records(jobs, DispatcherConfig(kind="local", dry_run=True))
        assert records[0].status == "dry_run"
        assert not (workdir / "should_not_exist").exists()


@pytest.mark.parametrize("kind, dry_run", [("dry", False), ("local", True), ("slurm", True), ("pbs", True)])
def test_run_dispatch_of_nothing_is_an_iterator_in_mapping_order(workdir, monkeypatch, kind, dry_run):
    """Each record is passed on as soon as its job is made, before the next
    job is made, as a generator of the records would yield it."""
    from sweeprun import run
    from sweeprun.sweeps import CartesianSweep

    (workdir / "t.txt").write_text("a={a}\n", encoding="utf-8")
    config = DispatcherConfig(kind=kind, dry_run=dry_run, sweep_name="it")
    plan = run.plan(
        CartesianSweep({"a": list(range(12))}), config, "echo {sim_id}", [("c_{sim_id}.txt", "t.txt")],
        Path("it_mapping.json"), overwrite=False, strict=True, warn=print,
    )
    run.materialize(plan)
    made = []
    monkeypatch.setattr(run, "JobSpec", lambda **fields: made.append(fields["sim_id"]) or JobSpec(**fields))
    records = []
    run.dispatch(plan, lambda r: records.append((list(made), r.sim_id, r.status)))
    ids = [sim_id for sim_id, _ in plan.mapping.items()]
    assert records == [(ids[: k + 1], sim_id, "dry_run") for k, sim_id in enumerate(ids)]


class TestRecordInvariants:
    def test_completed_needs_exit_code(self):
        with pytest.raises(ValueError):
            JobRecord(sim_id="0", command="x", status="completed")

    def test_submitted_needs_job_id(self):
        with pytest.raises(ValueError):
            JobRecord(sim_id="0", command="x", status="submitted")
