"""`run` and `preview` stream: memory that does not grow with the number of
simulations, and a summary written entry by entry that is byte-identical to
``json.dumps(summary, indent=2)``."""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from sweeprun import filters
from sweeprun.cli import SUMMARY_SCHEMA, _write_summary, main
from sweeprun.dispatch import JobRecord
from sweeprun.naming import NamerConfig, SequentialNamer


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def traced_peak(call) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def reference_summary(name: str, kind: str, records) -> str:
    """The summary as one json.dumps of the whole document."""
    summary = {
        "schema": SUMMARY_SCHEMA,
        "sweep_name": name,
        "dispatcher": kind,
        "counts": {
            "total": len(records),
            "succeeded": sum(r.succeeded for r in records),
            "failed": sum(r.failed for r in records),
            "submitted": sum(r.status == "submitted" for r in records),
            "dry_run": sum(r.status == "dry_run" for r in records),
        },
        "jobs": [r.to_dict() for r in records],
    }
    return json.dumps(summary, indent=2) + "\n"


ODD_TEXT = 'é ☃ 𝄞 "quoted" back\\slash \x00\x01\x1f\x7f \n\r\t\b\f \ud800 end'

RECORDS = [
    JobRecord(sim_id="0", command="./model 0", status="dry_run"),
    JobRecord(
        sim_id="1",
        command=f"printf %s {ODD_TEXT}",
        status="completed",
        exit_code=-9,
        scheduler_job_id="4242.head",
        reason=ODD_TEXT,
        started_at="2026-01-02T03:04:05.678+00:00",
        finished_at="2026-01-02T03:04:06.001+00:00",
        duration=0.32299999999999995,
    ),
    JobRecord(sim_id="2", command="true", status="completed", exit_code=0, duration=1e-07),
    JobRecord(sim_id="3", command="true", status="submitted", scheduler_job_id="77", duration=12345.5),
    JobRecord(sim_id="4", command="", status="spawn_failed", reason="No such file", duration=3.0),
]


class TestSummaryWriter:
    @pytest.mark.parametrize("count", [0, 1, 2, len(RECORDS)])
    @pytest.mark.parametrize("name", ["sweep", 'q"é ☃'])
    def test_streamed_summary_equals_one_dump(self, workdir, count, name):
        records = RECORDS[:count]
        _counts, path = _write_summary(name, "local", iter(records))
        assert path.read_bytes() == reference_summary(name, "local", records).encode("utf-8")

    def test_failed_first_submission_writes_an_empty_job_list(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--submit-command", "exit 3"]) == 2
        text = (workdir / "tiny_summary.json").read_text(encoding="utf-8")
        assert text == reference_summary("tiny", "slurm", [])
        assert '"jobs": []' in text

    @pytest.mark.parametrize("dispatcher", ["dry", "local"])
    def test_run_summary_is_laid_out_as_one_dump(self, workdir, tiny_setup, dispatcher):
        assert main(tiny_setup + ["--dispatcher", dispatcher]) == 0
        text = (workdir / "tiny_summary.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _dry_run(directory: Path, cells: int) -> list[str]:
    """Inputs for a dry run of a Cartesian grid of `cells` simulations."""
    directory.mkdir()
    write_json(
        directory / "sweep.json",
        {
            "type": "cartesian",
            "parameters": {
                "x": list(range(cells // 10)),
                "y": [k + 0.25 for k in range(5)],
                "mode": ["fast", "slow"],
            },
        },
    )
    (directory / "template.txt").write_text("x = {x}\ny = {y}\nmode = {mode}\n", encoding="utf-8")
    return [
        "run",
        "--command", "./model {sim_id} {mode}",
        "--config", "c_{sim_id}.txt",
        "--template", "template.txt",
        "--sweep-file", "sweep.json",
        "--name", "slope",
        "--dispatcher", "dry",
    ]


def test_dry_run_memory_is_flat_in_the_number_of_simulations(workdir, monkeypatch, capsys):
    real_write_text = Path.write_text

    def write_text(path, data, *args, **kwargs):
        if path.name.startswith("c_"):  # configs go to a sink, not to thousands of files
            return len(data)
        return real_write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    peaks = {}
    for cells in (100, 1_000, 6_000):  # the first run fills one-time caches
        directory = workdir / str(cells)
        argv = _dry_run(directory, cells)
        monkeypatch.chdir(directory)
        # pathlib interns each path part in the interpreter's one table of
        # interned strings, which grows at points set by everything the process
        # interned before; holding the config names keeps that table still
        names = [sys.intern(f"c_{sim_id}.txt") for sim_id in SequentialNamer(NamerConfig(), cells)]
        code, peaks[cells] = traced_peak(lambda: main(argv))
        del names
        assert code == 0
        summary = json.loads((directory / "slope_summary.json").read_text(encoding="utf-8"))
        assert summary["counts"]["dry_run"] == cells
    capsys.readouterr()
    per_simulation = (peaks[6_000] - peaks[1_000]) / (6_000 - 1_000)
    assert per_simulation < 512, f"{per_simulation:.0f} B per simulation"


class TestPreview:
    def test_a_million_cells_plans_only_what_it_shows(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {
                "type": "cartesian",
                "parameters": {
                    "a": list(range(100)),
                    "b": list(range(100)),
                    "c": [k + 0.5 for k in range(100)],
                },
            },
        )
        code, peak = traced_peak(lambda: main(["preview", "--sweep-file", "sweep.json", "--limit", "3"]))
        assert code == 0
        assert capsys.readouterr().out == (
            "cartesian, 3 parameter(s) (a, b, c), 1000000 simulation(s)\n"
            "  000000: a=0, b=0, c=0.5\n"
            "  000001: a=0, b=0, c=1.5\n"
            "  000002: a=0, b=0, c=2.5\n"
            "  ... 999997 more\n"
        )
        assert peak < 1_000_000

    def test_filtered_sweep_counts_without_keeping(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {
                "type": "cartesian",
                "parameters": {"a": list(range(200)), "b": list(range(200))},
                "filter": "a >= 50 and b != 7",
            },
        )
        code, peak = traced_peak(lambda: main(["preview", "--sweep-file", "sweep.json", "--limit", "2"]))
        assert code == 0
        assert capsys.readouterr().out == (
            "filtered-cartesian, 2 parameter(s) (a, b), 29850 simulation(s)\n"
            "  00000: a=50, b=0\n"
            "  00001: a=50, b=1\n"
            "  ... 29848 more\n"
        )
        assert peak < 1_000_000

    def test_filter_runs_once_per_candidate(self, workdir, monkeypatch, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": list(range(10)), "b": list(range(10))}, "filter": "a == 3 and b == 4"},
        )
        calls = []
        real_evaluate = filters.evaluate
        monkeypatch.setattr(filters, "evaluate", lambda *args: calls.append(1) or real_evaluate(*args))
        assert main(["preview", "--sweep-file", "sweep.json"]) == 0
        assert "1 simulation(s)" in capsys.readouterr().out
        assert len(calls) == 100

    def test_filter_that_keeps_nothing_is_an_error(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": [1, 2], "b": [1, 2]}, "filter": "a > 9"},
        )
        assert main(["preview", "--sweep-file", "sweep.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: filter rejected all 4 parameter sets; nothing to run\n"
