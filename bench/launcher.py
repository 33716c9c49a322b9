"""Start and time the benchmark's commands from a small process.

Linux reports a child's peak RSS as at least the peak RSS of the process
that forked it, so the benchmark, which holds every expected output in
memory, cannot fork the command itself. It starts this process first, while
it is still small, and sends it one JSON request per line:
``{"argv": [...], "cwd": "...", "timeout": seconds}``.
For each, this process writes the command's output to ``cwd/cli.stdout`` and
``cwd/cli.stderr``, reaps it with ``os.wait4`` and answers with one JSON line
of exit code, wall time, CPU time and peak RSS. A command still running after
``timeout`` seconds is killed. The environment is inherited.

Every thread of the command is moved to the next allowed CPU every 50 ms,
all to the same one. On the 2-CPU virtual machine this benchmark was built
on, each CPU's speed swung by up to 1.5x within tens of seconds,
independently of the other; a single-threaded command that stays on one CPU
inherits that swing, one that alternates sees the average. A CPU-bound
command's spread over ten runs fell from 0.37 to 0.07 of its median this way;
the price is that it no longer stays on whichever CPU is faster at the time,
which made collect_grid read about 20% slower. Processes the command starts
inherit the CPU of the thread that starts them, so a job stream of short
shells runs on one CPU at a time as well: local dispatch with one slot spread
0.19 of its median over six runs in a noisy period this way, against 0.36
with its jobs left to the kernel's scheduler and 0.43 with two slots.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
import time


ALTERNATE_S = 0.05


def alternate_cpus(pid: int, done: threading.Event) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    for k in itertools.count(1):
        if done.wait(ALTERNATE_S):
            return
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:  # the command has exited
            return
        for tid in threads:
            try:
                os.sched_setaffinity(int(tid), {cpus[k % len(cpus)]})
            except OSError:  # the thread has exited
                pass


def run(argv: list[str], cwd: str, timeout: float) -> dict:
    with open(os.path.join(cwd, "cli.stdout"), "wb") as out, open(os.path.join(cwd, "cli.stderr"), "wb") as err:
        started_epoch, started_perf = time.time(), time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        done = threading.Event()
        mover = threading.Thread(target=alternate_cpus, args=(proc.pid, done), daemon=True)
        mover.start()
        try:
            # wait without reaping, so the pid cannot be reused while the mover runs
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            done.set()
            watchdog.cancel()
        mover.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started_perf
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "started_epoch": started_epoch,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
