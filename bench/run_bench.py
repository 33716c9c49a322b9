"""Benchmark of the sweeprun CLI: end-to-end cost on fixed workloads, and a
traced per-layer breakdown.

Usage (from the repository root):

    python3 bench/run_bench.py --workload grid_dry --seed 1 --seconds 10 --trace 0
    python3 bench/run_bench.py                       # every workload, once each
    python3 bench/run_bench.py --workload all --pin  # re-pin golden.json digests

Each iteration builds the workload's inputs in one directory under
``.bench_work/`` (set-up, timed as ``setup_s``), runs ``python -m
sweeprun.cli`` in a fresh process (timed), checks every output against the
oracle in ``workloads.py`` and empties every output (untimed); the directory
is kept for the whole run, and the next iteration re-runs the command in it.
Iterations repeat until ``--seconds`` have passed; each metric is the median
over the iterations. Process figures come from ``os.wait4`` on the CLI child.

With ``--trace 1`` each iteration runs the command twice, untraced and then
through ``trace_cli.py``, and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is the result as JSON; the lines
before it list every metric by name with its unit, the environment, and the
figures that are not part of the result (``fail_frac``, ``first_dispatch_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from workloads import WORKLOADS, Expected, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
# set up at least this many times, and until set-up has taken this long
SETUP_SAMPLES = 5
SETUP_SECONDS = 0.5
LAUNCH_TIMEOUT_S = 150  # a hung command is killed and its outputs fail the oracle

# per-layer metrics read from trace counters rather than from span times
COUNTERS = (
    "cli.config_write.bytes",
    "cli.summary_write.bytes",
    "mapping.serialize.bytes",
    "dispatch.jobs",
    "collect.issues",
)


@dataclass
class Launch:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    started_epoch: float


@dataclass
class RunStats:
    setup_s: list[float] = field(default_factory=list)
    launches: list[Launch] = field(default_factory=list)
    sims_per_s: list[float] = field(default_factory=list)
    first_dispatch_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] | None = None


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs commands through ``launcher.py`` and returns their figures."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=cli_env(), start_new_session=True,
        )

    def run(self, argv: list[str], cwd: Path) -> Launch:
        request = {"argv": argv, "cwd": str(cwd), "timeout": LAUNCH_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return Launch(**json.loads(reply))

    def close(self) -> None:
        """Stop the launcher; on an error path, with whatever it started."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=LAUNCH_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.returncode is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.close()


def first_dispatch_s(workdir: Path, workload: Workload, run: Launch) -> float | None:
    """Launch to the first job's started_at in the summary (jobs that start only)."""
    if workload.mode not in ("local", "slurm"):
        return None
    try:
        jobs = json.loads((workdir / f"{workload.sweep_name}_summary.json").read_text())["jobs"]
        first = min(datetime.fromisoformat(job["started_at"]).timestamp() for job in jobs)
    except (OSError, ValueError, KeyError):
        return None
    return first - run.started_epoch


class Runner:
    def __init__(self, workload: Workload, seed: int, golden: dict | None, launcher: Launcher):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.launcher = launcher
        self.run_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
        self.workdir = self.run_dir / "work"
        self.stats = RunStats()
        self._setups = 0

    def set_up(self) -> tuple[Path, Expected]:
        self._setups += 1
        self.workdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        expected = self.workload.setup(self.workdir, self.seed, tag=f"{self.seed}.{self._setups}")
        self.stats.setup_s.append(time.perf_counter() - start)
        return self.workdir, expected

    def checked_launch(self, argv: list[str]) -> tuple[Path, Expected, Launch, int]:
        """Set up, run and check once; return the directory, the expected
        outputs, the launch and the number of simulations it attempted."""
        workdir, expected = self.set_up()
        run = self.launcher.run(argv, workdir)
        check = self.workload.check(workdir, run.exit_code, expected, self.golden)
        self.stats.attempted += check.attempted
        self.stats.failed += check.failed
        self.stats.problems += check.problems
        if self.stats.digests is None:
            self.stats.digests = check.digests
        return workdir, expected, run, check.attempted

    def iteration(self, traced: bool) -> None:
        cli = [sys.executable, "-m", "sweeprun.cli", *self.workload.argv()]
        workdir, expected, run, attempted = self.checked_launch(cli)
        self.stats.launches.append(run)
        self.stats.sims_per_s.append(self.workload.harvested(attempted) / run.wall_s)
        first = first_dispatch_s(workdir, self.workload, run)
        if first is not None:
            self.stats.first_dispatch_s.append(first)
        self.workload.clear(workdir, expected)
        if not traced:
            return
        trace_out = self.run_dir / "trace.json"
        trace_out.unlink(missing_ok=True)
        tracer = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_out), "--", *self.workload.argv()]
        workdir, expected, run, _attempted = self.checked_launch(tracer)
        self.workload.clear(workdir, expected)
        try:
            trace = json.loads(trace_out.read_text())
        except (OSError, ValueError):
            self.stats.problems.append("traced run wrote no trace")
            return
        # the trace is summarised after the command returns; leave that out
        self.stats.traced_walls.append(
            run.wall_s - (trace["summarised"] - trace["main_end"])
        )
        self.stats.traces.append(trace)

    def run(self, seconds: float, traced: bool) -> RunStats:
        start = time.perf_counter()
        try:
            while True:
                self.iteration(traced)
                if time.perf_counter() - start >= seconds:
                    break
            setups = self.stats.setup_s
            while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS:
                self.workload.clear(*self.set_up())
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        return self.stats


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(stats: RunStats) -> dict[str, float]:
    return {
        "sims_per_s": median(stats.sims_per_s),
        "cpu_s": median(run.cpu_s for run in stats.launches),
        "peak_rss_mb": median(run.peak_rss_mb for run in stats.launches),
        "setup_s": median(stats.setup_s),
    }


def layer_metrics(trace: dict, names: list[str]) -> dict[str, float]:
    """One traced command's value of each named per-layer metric."""
    layers, counters = trace["layers"], trace["counters"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    jobs = sorted(trace["job_seconds"]) or [0.0]
    slot_time = counters.get("dispatch.slots", 0.0) * get("dispatch.dispatch_all", "total_s")
    derived = {
        "templates.render.us_per_call": 1e6 * ratio(get("templates.render", "self_s"), get("templates.render", "calls")),
        "filters.keep_ratio": ratio(counters.get("filters.kept", 0.0), get("filters.evaluate", "calls")),
        "dispatch.job_p50_ms": 1e3 * statistics.median(jobs),
        "dispatch.job_p99_ms": 1e3 * jobs[int(0.99 * (len(jobs) - 1))],
        "dispatch.overhead_us_per_job": 1e6 * ratio(slot_time - sum(jobs), counters.get("dispatch.jobs", 0.0)),
        "dispatch.slot_busy_frac": ratio(sum(jobs), slot_time),
    }
    out = {}
    for name in names:
        layer, _, key = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif key in ("calls", "self_s"):
            out[name] = get(layer, key)
        elif name in COUNTERS:
            out[name] = counters.get(name, 0.0)
    return out


def per_layer_metrics(stats: RunStats, names: list[str]) -> dict[str, float]:
    samples = [layer_metrics(trace, names) for trace in stats.traces]
    untraced = median(run.wall_s for run in stats.launches)
    run_level = {
        "dispatch.first_start_s": median(stats.first_dispatch_s),
        "trace.overhead_frac": median(stats.traced_walls) / untraced - 1,
    }
    out = {}
    for name in names:
        if name in run_level:
            out[name] = run_level[name]
        elif all(name in sample for sample in samples):
            out[name] = median(sample[name] for sample in samples)
        else:
            raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, which nothing computes")
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def prepare() -> str:
    """Compile sweeprun's bytecode and return its version (untimed)."""
    proc = subprocess.run(
        [sys.executable, "-m", "sweeprun.cli", "--version"],
        cwd=ROOT, env=cli_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sweeprun does not start: {proc.stderr.strip()}")
    return proc.stdout.split()[-1]


def filesystem_type(path: Path) -> str:
    proc = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(workload: Workload, args, golden: dict | None, launcher: Launcher, units: dict[str, str]):
    stats = Runner(workload, args.seed, golden, launcher).run(args.seconds, traced=bool(args.trace))
    if args.trace:
        metrics = per_layer_metrics(stats, list(units))
    else:
        metrics = end_to_end_metrics(stats)
        if set(metrics) != set(units):
            raise KeyError(f"BENCHMARK.json end-to-end metrics {sorted(units)} differ from {sorted(metrics)}")
    fail_frac = stats.failed / stats.attempted if stats.attempted else 1.0
    print(f"workload {workload.name}: {len(stats.launches)} iteration(s), "
          f"{stats.attempted} simulation(s) checked, {stats.failed} failed")
    for problem in dict.fromkeys(stats.problems):
        print(f"  oracle: {problem}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} ratio")
    if workload.mode in ("local", "slurm") and not args.trace:
        print(f"  {'first_dispatch_s':34s} {median(stats.first_dispatch_s):14.6g} s")
    absent = sorted({a for trace in stats.traces for a in trace["absent"]})
    if absent:
        print(f"  absent layers: {', '.join(absent)}")
    return stats, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0, help="measure at least this long (default: one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record this run's digests in golden.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sweeprun" / "cli.py").is_file():
        print(f"error: no sweeprun sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        version = prepare()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    WORK_ROOT.mkdir(exist_ok=True)
    env_info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "sweeprun_version": version,
        "filesystem": filesystem_type(WORK_ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"environment": env_info}))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        with Launcher() as launcher:
            for name in names:
                golden = None if args.pin else pinned.get(name, {})
                stats, values = run_workload(WORKLOADS[name], args, golden, launcher, units)
                attempted += stats.attempted
                failed += stats.failed
                prefix = f"{name}." if len(names) > 1 else ""
                metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
                if args.pin:
                    pinned[name] = stats.digests
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if args.pin:
        GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"pinned digests of {', '.join(names)} in {GOLDEN.name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
