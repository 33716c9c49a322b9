"""A SIGINT stops a local run from starting jobs.

``sweeprun run`` runs in a fresh interpreter, as a user starts it, and gets
SIGINT while its jobs run. What the run then records and how it exits are
not settled yet, so only the jobs' own start times are checked here.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from conftest import SOURCE_ROOT

JOBS = 10
JOB_S = 0.3
# each job writes its start time, then becomes the sleep, so killing it leaves no process behind
STUB = f'date +%s.%N > "started_$1"\nexec sleep {JOB_S}\n'


@pytest.mark.parametrize("max_parallel", [1, 2])
def test_no_job_starts_after_sigint(workdir, max_parallel):
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": list(range(JOBS))}}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("a={a}\n", encoding="utf-8")
    (workdir / "stub.sh").write_text(STUB, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_ROOT), env.get("PYTHONPATH")]))
    argv = [
        "run", "--command", "sh stub.sh {sim_id}", "--config", "conf_{sim_id}.txt",
        "--template", "template.txt", "--sweep-file", "sweep.json", "--name", "int",
        "--max-parallel", str(max_parallel),
    ]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sweeprun.cli", *argv],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # the signal comes halfway through the third round of jobs (about 1 s in), so it falls
        # where no job starts or ends and a job started after it cannot be one that began before
        third_round = workdir / f"started_{2 * max_parallel}"
        deadline = time.monotonic() + 20
        while not third_round.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(JOB_S / 2)
        signalled = time.time()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    started = sorted(float(path.read_text()) for path in workdir.glob("started_*"))
    assert started, "no job started before the signal"
    late = [round(t - signalled, 3) for t in started if t > signalled]
    assert late == [], f"{len(late)} of {JOBS} jobs started after the signal (seconds after it: {late})"
