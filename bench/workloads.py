"""The benchmark's workloads: the inputs each one builds and the oracle that
checks every output of a run.

Everything here is computed without sweeprun, so neither the set-up time nor
the oracle moves with sweeprun's code. The parameter grids are fixed, which
lets the mapping, summary, batch scripts, stub results and collect report be
compared with digests pinned in ``golden.json`` from the seed commit. The
seed and a set-up counter go into a comment line of the template, so every
run writes configs no earlier run wrote; those, and the CSV rows built from
the seeded model outputs that ``collect_grid`` harvests, are compared file by
file and row by row with what this module renders.

The summary is compared with its timestamps, durations and scheduler job IDs
left out, which is what "the same summary" means for this project.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def template(tag: str) -> str:
    """22 lines: 17 comment lines, the first naming the set-up, plus the
    README's namelist block."""
    return (
        f"! benchmark namelist, set-up {tag}\n"
        + "".join(f"! comment line {i:02d} of 17, carried verbatim\n" for i in range(2, 18))
        + "&params\nbeta = {beta},\nsigma = {sigma},\nrho = {rho}\n/\n"
    )


# The model a user would run: sums the numeric values of its config into
# results_<sim_id>.txt, as the repository's sh stub model does.
STUB_MODEL = r"""#!/bin/sh
cfg="params_$1.nml"
[ -f "$cfg" ] || { echo "missing config $cfg" >&2; exit 1; }
awk -F= '
    NF >= 2 {
        v = $2
        gsub(/[ \t\r,]/, "", v)
        if (v ~ /^-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$/) total += v
    }
    END {
        if (total == int(total)) printf "%.1f\n", total
        else printf "%.17g\n", total
    }
' "$cfg" > "results_$1.txt"
"""

# Stands in for sbatch: prints a job ID derived from the script name.
FAKE_SBATCH = r"""#!/bin/sh
n="${1##*_}"
echo "Submitted batch job 7${n%.sh}"
"""

SUMMARY_VOLATILE = ("started_at", "finished_at", "duration", "scheduler_job_id")
MISSING_EVERY = 100  # collect_grid: every 100th output is absent
OUTPUT_POOL = 1000  # collect_grid: distinct output files behind its output paths


def linspace(start: float, stop: float, count: int) -> list[float]:
    step = (float(stop) - float(start)) / (count - 1)
    values = [float(start) + i * step for i in range(count)]
    values[-1] = float(stop)
    return values


def sim_ids(total: int) -> list[str]:
    width = len(str(total - 1))
    return [f"{i:0{width}d}" for i in range(total)]


def render_config(source: str, beta: float, sigma: float, rho: float) -> str:
    return (
        source.replace("{beta}", repr(beta))
        .replace("{sigma}", repr(sigma))
        .replace("{rho}", repr(rho))
    )


def stub_result(values: tuple[float, ...]) -> str:
    total = 0.0
    for v in values:
        total += v
    return f"{total:.1f}\n" if total == int(total) else f"{total:.17g}\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalize_summary(doc: dict) -> dict:
    jobs = [{k: v for k, v in job.items() if k not in SUMMARY_VOLATILE} for job in doc["jobs"]]
    return {**doc, "jobs": jobs}


def summary_digest(doc: dict) -> str:
    return sha256(json.dumps(normalize_summary(doc), sort_keys=True).encode())


@dataclass(frozen=True)
class CheckResult:
    attempted: int
    failed: int
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Expected:
    """What a correct run leaves behind, computed during set-up."""

    ids: list[str]
    # per simulation: (pinned digest it feeds or None, file name, exact bytes)
    outputs: list[list[tuple[str, str, bytes]]]
    jobs: list[dict] | None = None  # summary entries without volatile keys
    csv_rows: list[str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "dry", "local", "slurm" or "collect"
    axes: dict[str, tuple[float, float, int]]  # name -> linspace arguments
    sweep_name: str
    filter_source: str | None = None
    keep: Callable[[float, float, float], bool] | None = None  # the filter, in Python

    def parameter_sets(self) -> list[tuple[float, ...]]:
        grid = itertools.product(*(linspace(*args) for args in self.axes.values()))
        if self.keep is None:
            return list(grid)
        return [values for values in grid if self.keep(*values)]

    @property
    def expected_exit(self) -> int:
        return 4 if self.mode == "collect" else 0

    def command(self) -> str:
        return "sh stub_model.sh {sim_id}" if self.mode == "local" else "sh model.sh {sim_id}"

    # -- inputs -----------------------------------------------------------

    def output_names(self, expected: Expected) -> list[str]:
        """Every file a run of the command writes."""
        if self.mode == "collect":
            return [f"{self.sweep_name}_results.csv", f"{self.sweep_name}_collect_report.json"]
        names = [f"{self.sweep_name}_mapping.json", f"{self.sweep_name}_summary.json"]
        names += [name for _stream, name, _data in itertools.chain.from_iterable(expected.outputs)]
        return names

    def clear(self, workdir: Path, expected: Expected) -> None:
        """Empty every output of a run, outside the timed region, so that no
        file left by an earlier iteration can pass the oracle.

        Every iteration of a run re-runs the command in one directory
        (sweeps with ``--overwrite``) rather than in a fresh one: on the ext4
        disk of the 2-vCPU VM this was sized on, creating a file cost
        150-400 us with 3x swings from run to run, and creating and deleting
        thousands per iteration made later runs slower still, which left the
        figures mostly disk noise (local_stub spread 0.15 of its median
        between iterations in fresh directories, 0.08 re-run). The price is
        that no workload times the conflict check, which ``--overwrite``
        skips. Outputs are emptied rather than left: a grid_dry re-run over
        configs still holding data waited 0.5-3 s beyond its 3-4 s of CPU
        time as their blocks were freed; over emptied configs, 0.1-0.6 s."""
        for name in self.output_names(expected):
            (workdir / name).write_bytes(b"")

    def setup(self, workdir: Path, seed: int, tag: str) -> Expected:
        """Write the workload's inputs into its directory, with ``tag`` in the
        template, and return the outputs a correct run produces from them."""
        first_setup = not any(workdir.iterdir())
        sets = self.parameter_sets()
        ids = sim_ids(len(sets))
        if self.mode == "collect":
            expected = self._setup_collect(workdir, seed, sets, ids, first_setup)
        else:
            expected = self._setup_sweep(workdir, tag, sets, ids)
        if first_setup:
            self.clear(workdir, expected)  # creates the files the runs overwrite
        return expected

    def _setup_sweep(self, workdir: Path, tag: str, sets, ids) -> Expected:
        source = template(tag)
        (workdir / "template.txt").write_text(source, encoding="utf-8")
        spec = {
            "type": "cartesian",
            "parameters": {name: {"linspace": list(args)} for name, args in self.axes.items()},
        }
        if self.filter_source is not None:
            spec["filter"] = self.filter_source
        (workdir / "sweep.json").write_text(json.dumps(spec), encoding="utf-8")
        if self.mode == "local":
            (workdir / "stub_model.sh").write_text(STUB_MODEL, encoding="utf-8")
        if self.mode == "slurm":
            (workdir / "fake_sbatch.sh").write_text(FAKE_SBATCH, encoding="utf-8")

        status = {"dry": "dry_run", "local": "completed", "slurm": "submitted"}[self.mode]
        outputs, jobs = [], []
        for sim_id, values in zip(ids, sets):
            command = self.command().replace("{sim_id}", sim_id)
            files = [(None, f"params_{sim_id}.nml", render_config(source, *values).encode())]
            job = {"sim_id": sim_id, "command": command, "status": status}
            if self.mode == "local":
                files.append(("results", f"results_{sim_id}.txt", stub_result(values).encode()))
                job["exit_code"] = 0
            elif self.mode == "slurm":
                tag = f"{self.sweep_name}_{sim_id}"
                script = f"#!/bin/sh\n#SBATCH --job-name={tag}\n#SBATCH --output={tag}.out\n\n{command}\n"
                files.append(("scripts", f"{tag}.sh", script.encode()))
            outputs.append(files)
            jobs.append(job)
        return Expected(ids, outputs, jobs=jobs)

    def _setup_collect(self, workdir: Path, seed: int, sets, ids, first_setup: bool) -> Expected:
        """The mapping and model outputs are written on the first set-up of a
        run only; collect reads them and writes nothing else."""
        coords = {name: linspace(*args) for name, args in self.axes.items()}
        doc = {
            "schema": "sweep-mapping/1",
            "kind": "cartesian",
            "sweep_name": self.sweep_name,
            "dims": list(coords),
            "coords": coords,
            "shape": [len(v) for v in coords.values()],
            "sim_ids": ids,
        }
        if first_setup:
            (workdir / f"{self.sweep_name}_mapping.json").write_text(
                json.dumps(doc, indent=2) + "\n", encoding="utf-8"
            )
        # Each output path is a hard link into a pool of distinct files: on the
        # ext4 disk this was sized on, every new inode cost 150-400 us with 3x
        # swings between runs, which would leave setup_s mostly noise, while a
        # link costs about 10 us. collect still opens and parses every path.
        rng = random.Random(seed)
        pool = [repr(rng.uniform(-1e3, 1e3)) for _ in range(min(OUTPUT_POOL, len(ids)))]
        if first_setup:
            (workdir / "outputs").mkdir()
            for k, value in enumerate(pool):
                (workdir / "outputs" / f"{k}.txt").write_text(value + "\n", encoding="utf-8")
        rows = [",".join([*self.axes, "value"])]
        for i, (sim_id, values) in enumerate(zip(ids, sets)):
            value = ""
            if i % MISSING_EVERY != MISSING_EVERY - 1:
                k = rng.randrange(len(pool))
                value = pool[k]
                if first_setup:
                    os.link(workdir / "outputs" / f"{k}.txt", workdir / f"results_{sim_id}.txt")
            rows.append(",".join([*map(repr, values), value]))
        return Expected(ids, [[] for _ in ids], csv_rows=rows)

    def argv(self) -> list[str]:
        """Arguments of the timed ``sweeprun`` command."""
        if self.mode == "collect":
            return ["collect", f"{self.sweep_name}_mapping.json", "--output-pattern", "results_{sim_id}.txt"]
        args = [
            "run",
            "--command", self.command(),
            "--config", "params_{sim_id}.nml",
            "--template", "template.txt",
            "--sweep-file", "sweep.json",
            "--name", self.sweep_name,
        ]
        if self.mode == "dry":
            args += ["--dispatcher", "dry"]
        elif self.mode == "local":
            # one slot: see launcher.py for why jobs run on one CPU at a time
            args += ["--max-parallel", "1"]
        elif self.mode == "slurm":
            args += ["--dispatcher", "slurm", "--submit-command", "sh fake_sbatch.sh"]
        return args + ["--overwrite"]

    def harvested(self, attempted: int) -> int:
        """Simulations a run handles; for collect, the values it harvests."""
        if self.mode == "collect":
            return attempted - attempted // MISSING_EVERY
        return attempted

    # -- oracle -----------------------------------------------------------

    def check(self, workdir: Path, exit_code: int, expected: Expected, golden: dict | None) -> CheckResult:
        """Compare a run's outputs with the oracle.

        A simulation fails when any of its own outputs differs; every
        simulation fails when a shared artifact (exit code, mapping, summary,
        CSV or report) differs or a pinned digest does not match. ``golden``
        None skips the digest comparison.
        """
        ids = expected.ids
        problems: list[str] = []
        bad: set[int] = set()
        if exit_code != self.expected_exit:
            problems.append(f"exit code {exit_code}, expected {self.expected_exit}")
        streams = {}
        for i, files in enumerate(expected.outputs):
            for stream, name, want in files:
                data = _read(workdir / name)
                if stream is not None:
                    streams.setdefault(stream, hashlib.sha256()).update(data or b"")
                if data != want:
                    bad.add(i)
        digests = {stream: h.hexdigest() for stream, h in streams.items()}
        if self.mode == "collect":
            self._check_collect(workdir, expected, bad, problems)
            digests["report"] = sha256(_read(workdir / f"{self.sweep_name}_collect_report.json") or b"")
        else:
            digests["mapping"] = sha256(_read(workdir / f"{self.sweep_name}_mapping.json") or b"")
            self._check_summary(workdir, expected, bad, problems, digests)
        if golden is not None:
            for key, digest in digests.items():
                if golden.get(key) != digest:
                    problems.append(f"{key} digest differs from the pinned one")
        failed = len(ids) if problems else len(bad)
        if bad:
            problems.append(f"{len(bad)} simulation(s) with wrong outputs, first {ids[min(bad)]}")
        return CheckResult(len(ids), failed, digests, problems)

    def _check_summary(self, workdir, expected, bad, problems, digests):
        try:
            summary = json.loads(_read(workdir / f"{self.sweep_name}_summary.json") or b"null")
            jobs = normalize_summary(summary)["jobs"]
        except (ValueError, TypeError, KeyError):
            problems.append("summary missing or unreadable")
            return
        digests["summary"] = summary_digest(summary)
        if len(jobs) != len(expected.jobs):
            problems.append(f"summary has {len(jobs)} jobs, expected {len(expected.jobs)}")
            return
        bad.update(i for i, (job, want) in enumerate(zip(jobs, expected.jobs)) if job != want)

    def _check_collect(self, workdir, expected, bad, problems):
        csv = (_read(workdir / f"{self.sweep_name}_results.csv") or b"").decode(errors="replace")
        rows = csv.split("\n")
        if rows[0] != expected.csv_rows[0] or len(rows) != len(expected.csv_rows) + 1 or rows[-1]:
            problems.append("CSV missing, or wrong header or row count")
            return
        bad.update(i for i, (row, want) in enumerate(zip(rows[1:], expected.csv_rows[1:])) if row != want)


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


# BENCHMARK.json records why each workload is in the benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_dry",
            mode="dry",
            axes={"beta": (2, 4, 10), "sigma": (2, 20, 100), "rho": (2, 30, 10)},
            sweep_name="g",
        ),
        Workload(
            name="local_stub",
            mode="local",
            axes={"beta": (2, 4, 2), "sigma": (2, 20, 10), "rho": (2, 30, 50)},
            sweep_name="l",
        ),
        Workload(
            name="collect_grid",
            mode="collect",
            axes={"beta": (2, 4, 10), "sigma": (2, 20, 100), "rho": (2, 30, 20)},
            sweep_name="c",
        ),
        Workload(
            name="filtered_slurm",
            mode="slurm",
            axes={"beta": (2, 4, 10), "sigma": (2, 20, 100), "rho": (2, 30, 50)},
            sweep_name="f",
            filter_source="sigma * beta > rho * 2 and rho > 27",
            keep=lambda beta, sigma, rho: sigma * beta > rho * 2 and rho > 27,
        ),
    )
}
