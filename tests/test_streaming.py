"""`run`, `preview` and `collect` stream: memory that does not grow with the
number of simulations, a summary written entry by entry that is
byte-identical to ``json.dumps(summary, indent=2)``, and a CSV written row by
row that is byte-identical to ``export_csv``."""

from __future__ import annotations

import errno
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from sweeprun import filters
from sweeprun.cli import REPORT_SCHEMA, SUMMARY_SCHEMA, _write_summary, main
from sweeprun.collect import collect_scalars, export_csv
from sweeprun.dispatch import JobRecord
from sweeprun.mapping import build_mapping, read_mapping, serialize
from sweeprun.naming import NamerConfig, SequentialNamer
from sweeprun.sweeps import CartesianSweep, SetSweep


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



TEXT_VALUES = ["plain", "a,b", 'say "hi"', "two\nlines", "résumé ☃ 𝄞"]

# one of each kind of output, in turn; None leaves the output missing
OUTPUTS = [
    b"0.5\n",
    None,
    b"",
    b"  \n\t",
    b"not-a-number 1.0\n",
    b"nan\n",
    b"-inf\n",
    b"1e999",
    b"\xff\xfe 2.0\n",
    b"3.0 \xe9t\xe9",
    "-1.25e-07\u00a0tail".encode("utf-8"),
    b"12",
]


@pytest.mark.parametrize(
    "sweep",
    [
        CartesianSweep({"n": [-3, 12], "x": [1e-07, 2.0, 1e16], "s": TEXT_VALUES}),
        SetSweep([{"s": s, "x": k * 0.5} for k, s in enumerate(TEXT_VALUES * 3)]),
    ],
    ids=["cartesian", "association"],
)
def test_collect_files_equal_the_library_documents(workdir, sweep, capsys):
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    (workdir / "m.json").write_text(
        serialize(build_mapping(sweep, sets, ids, sweep_name="odd")), encoding="utf-8"
    )
    for k, sim_id in enumerate(ids):
        output = OUTPUTS[k % len(OUTPUTS)]
        if output is not None:
            (workdir / f"out_{sim_id}.txt").write_bytes(output)
    assert main(["collect", "m.json", "--output-pattern", "out_{sim_id}.txt"]) == 4
    capsys.readouterr()

    collected = collect_scalars(read_mapping("m.json"), "out_{sim_id}.txt")
    assert len(collected.issues) > len(ids) / 2
    assert (workdir / "odd_results.csv").read_bytes() == export_csv(collected).encode("utf-8")
    report = {
        "schema": REPORT_SCHEMA,
        "sweep_name": "odd",
        "total": len(collected.values),
        "collected": sum(v is not None for v in collected.values.values()),
        "missing": [
            {"sim_id": issue.sim_id, "path": issue.path, "reason": issue.reason}
            for issue in collected.issues
        ],
    }
    expected = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    assert (workdir / "odd_collect_report.json").read_bytes() == expected


def test_collect_memory_is_flat_in_the_number_of_simulations(workdir, monkeypatch, capsys):
    real_read_text = Path.read_text

    def read_text(path, *args, **kwargs):
        if path.name.startswith("out_"):  # outputs come from memory, not from thousands of files
            k = int(path.stem[4:])
            if k % 100 == 0:
                raise FileNotFoundError(errno.ENOENT, "No such file or directory", str(path))
            return f"{k * 0.5} after\n"
        return real_read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    peaks = {}
    for cells in (200, 2_000, 20_000):  # the first run fills one-time caches
        directory = workdir / str(cells)
        directory.mkdir()
        sweep = CartesianSweep({"x": list(range(cells // 10)), "y": [k + 0.25 for k in range(10)]})
        ids = list(SequentialNamer(NamerConfig(), cells))
        mapping = build_mapping(sweep, sweep.generate(), ids, sweep_name="slope")
        (directory / "m.json").write_text(serialize(mapping), encoding="utf-8")
        del mapping
        monkeypatch.chdir(directory)
        # see the dry-run test above: pathlib interns every output name
        names = [sys.intern(f"out_{sim_id}.txt") for sim_id in ids]
        del ids
        code, peaks[cells] = traced_peak(
            lambda: main(["collect", "m.json", "--output-pattern", "out_{sim_id}.txt"])
        )
        del names
        assert code == 4
        report = json.loads((directory / "slope_collect_report.json").read_text(encoding="utf-8"))
        assert (report["total"], report["collected"]) == (cells, cells - cells // 100)
        with open(directory / "slope_results.csv", encoding="utf-8") as csv_file:
            assert sum(1 for _ in csv_file) == cells + 1
    capsys.readouterr()
    per_simulation = (peaks[20_000] - peaks[2_000]) / (20_000 - 2_000)
    assert per_simulation < 128, f"{per_simulation:.0f} B per simulation"


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
