"""`run`, `preview` and `collect` stream: memory that does not grow with the
number of simulations, a summary and a collect report written entry by
entry that are byte-identical to ``json.dumps(document, indent=2)``, and a
CSV written row by row that is byte-identical to the one ``csv.writer``
writes of what ``harvest`` yields."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweeprun import files, filters
from sweeprun.cli import main
from sweeprun.collect import REPORT_SCHEMA, harvest, write_results
from sweeprun.dispatch import DispatcherConfig, JobRecord
from sweeprun.mapping import build_mapping, read_mapping, serialize, sim_ids
from sweeprun.run import SUMMARY_SCHEMA, Plan, record
from sweeprun.sweeps import CartesianSweep, SetSweep
from sweeprun.templates import format_value


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


def write_summary(name: str, kind: str, records) -> tuple[Path, dict, list]:
    """`run.record` of `records`, passed on one at a time, for sweep `name`:
    (summary path, counts, failed records)."""
    path = Path(f"{name}_summary.json")
    config = DispatcherConfig(kind=kind, sweep_name=name)
    outcome = record(Plan(None, config, "", [], Path(f"{name}_mapping.json"), path), lambda add: [*map(add, records)])
    return path, outcome.counts, outcome.failed


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
        "jobs": [{k: v for k, v in dataclasses.asdict(r).items() if v is not None} for r in records],
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


# control characters, non-ASCII characters and lone surrogates
SUMMARY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12) | st.sampled_from(["", ODD_TEXT])
# a sweep name becomes part of the summary's file name
SWEEP_NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\0"), min_size=1, max_size=12)
EXIT_CODES = st.integers() | st.sampled_from([0, 1, -9, 127, 255, 2**31 - 1, -(2**63), 2**80])
DURATIONS = st.floats() | st.sampled_from([0.0, 1e-07, 12345.5, 5e-324, 2.2250738585072014e-309, 1e16, 1e22])


@st.composite
def job_records(draw) -> JobRecord:
    """A JobRecord of any status, each optional field drawn or left out."""
    status = draw(st.sampled_from(["completed", "submitted", "dry_run", "spawn_failed"]))
    return JobRecord(
        sim_id=draw(SUMMARY_TEXT),
        command=draw(SUMMARY_TEXT),
        status=status,
        exit_code=draw(EXIT_CODES if status == "completed" else st.none() | EXIT_CODES),
        scheduler_job_id=draw(SUMMARY_TEXT if status == "submitted" else st.none() | SUMMARY_TEXT),
        reason=draw(st.none() | SUMMARY_TEXT),
        started_at=draw(st.none() | SUMMARY_TEXT),
        finished_at=draw(st.none() | SUMMARY_TEXT),
        duration=draw(st.none() | DURATIONS),
    )


class TestSummaryWriter:
    @pytest.mark.parametrize("count", [0, 1, 2, len(RECORDS)])
    @pytest.mark.parametrize("name", ["sweep", 'q"é ☃'])
    def test_streamed_summary_equals_one_dump(self, workdir, count, name):
        records = RECORDS[:count]
        path, _, _ = write_summary(name, "local", records)
        assert path.read_bytes() == reference_summary(name, "local", records).encode("utf-8")

    def test_failed_first_submission_writes_an_empty_job_list(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--submit-command", "exit 3"]) == 2
        text = (workdir / "tiny_summary.json").read_text(encoding="utf-8")
        assert text == reference_summary("tiny", "slurm", [])
        assert '"jobs": []' in text

    @settings(deadline=None, max_examples=200)
    @given(
        name=SWEEP_NAMES,
        kind=st.sampled_from(["dry", "local", "slurm", "pbs"]),
        records=st.lists(job_records(), max_size=5),
    )
    def test_summary_of_drawn_records_equals_one_dump(self, name, kind, records):
        with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
            path, counts, failed = write_summary(name, kind, records)
            assert path.read_bytes() == reference_summary(name, kind, records).encode("utf-8")
        assert counts == json.loads(reference_summary(name, kind, records))["counts"]
        assert failed == [r for r in records if r.failed]

    @settings(deadline=None, max_examples=100)
    @given(
        kind=st.sampled_from(["dry", "local", "slurm", "pbs"]),
        records=st.lists(job_records(), max_size=1) | st.lists(job_records(), min_size=12, max_size=40),
    )
    def test_summary_of_many_drawn_records_equals_one_dump(self, kind, records):
        """Zero, one or many records, often more than ten of them failed: the
        summary lists every record, and the outcome keeps the first ten failed."""
        with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
            path, counts, failed = write_summary("many", kind, records)
            assert path.read_bytes() == reference_summary("many", kind, records).encode("utf-8")
        assert counts == json.loads(reference_summary("many", kind, records))["counts"]
        assert failed == [r for r in records if r.failed][:10]

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
    # configs go to a sink, not to thousands of files
    monkeypatch.setattr(files, "rewrite", lambda path, text: None)
    peaks = {}
    for cells in (100, 1_000, 6_000):  # the first run fills one-time caches
        directory = workdir / str(cells)
        argv = _dry_run(directory, cells)
        monkeypatch.chdir(directory)
        # pathlib interns each path part in the interpreter's one table of
        # interned strings, which grows at points set by everything the process
        # interned before; holding the config names keeps that table still
        names = [sys.intern(f"c_{sim_id}.txt") for sim_id in sim_ids(cells)]
        code, peaks[cells] = traced_peak(lambda: main(argv))
        del names
        assert code == 0
        summary = json.loads((directory / "slope_summary.json").read_text(encoding="utf-8"))
        assert summary["counts"]["dry_run"] == cells
    capsys.readouterr()
    per_simulation = (peaks[6_000] - peaks[1_000]) / (6_000 - 1_000)
    assert per_simulation < 512, f"{per_simulation:.0f} B per simulation"



def test_conflict_check_counts_existing_files_past_the_tenth(workdir, monkeypatch, capsys):
    """10^5 configs from an earlier sweep are in the way: the error lists ten
    and counts the rest, and the check holds none of the others."""
    grid = {"a": list(range(1000)), "b": list(range(100))}
    write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": grid})
    (workdir / "template.txt").write_text("a={a} b={b}\n", encoding="utf-8")
    argv = [
        "run", "--command", "true {sim_id}", "--config", "c_{sim_id}.txt", "--template", "template.txt",
        "--sweep-file", "sweep.json", "--name", "q", "--dispatcher", "dry",
    ]

    def exists(path):  # every config exists, and none is made; memory is traced from the first
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return True

    monkeypatch.setattr(os.path, "exists", exists)
    try:
        assert main(argv) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: refusing to overwrite existing files: c_00000.txt, c_00001.txt, ")
    assert err.endswith(", c_00009.txt (and 99990 more); pass --overwrite to replace them\n")
    assert peak < 200_000, f"{peak} B"


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
    ids = list(sim_ids(sweep.length()))
    (workdir / "m.json").write_text(serialize(build_mapping(sweep, sweep_name="odd")), encoding="utf-8")
    for k, sim_id in enumerate(ids):
        output = OUTPUTS[k % len(OUTPUTS)]
        if output is not None:
            (workdir / f"out_{sim_id}.txt").write_bytes(output)
    assert main(["collect", "m.json", "--output-pattern", "out_{sim_id}.txt"]) == 4
    capsys.readouterr()

    mapping = read_mapping("m.json")
    harvested = list(harvest(mapping, "out_{sim_id}.txt"))
    issues = [issue for _, _, _, issue in harvested if issue is not None]
    assert len(issues) > len(ids) / 2
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow([*mapping.parameter_names, "value"])
    writer.writerows([*cell.values(), "" if value is None else format_value(value)] for _, cell, value, _ in harvested)
    assert (workdir / "odd_results.csv").read_bytes() == rows.getvalue().encode("utf-8")
    report = {
        "schema": REPORT_SCHEMA,
        "sweep_name": "odd",
        "total": len(harvested),
        "collected": sum(value is not None for _, _, value, _ in harvested),
        "missing": [
            {"sim_id": issue.sim_id, "path": issue.path, "reason": issue.reason}
            for issue in issues
        ],
    }
    expected = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    assert (workdir / "odd_collect_report.json").read_bytes() == expected


# output path text: non-ASCII, quotes, a backslash, blanks and bytes that are not UTF-8
PATH_TEXT = st.text(st.sampled_from(["a", "é", "☃", '"', "'", "\\", " ", "\t", "\udcff", "\udc80"]), max_size=4)
OUTPUT_BYTES = st.none() | st.binary(max_size=6) | st.sampled_from(
    [b"1.5\n", b"nan", b"-inf", b"\xff\xfe 2", b"", b"  \n", b"1_000", "\u0663".encode("utf-8")]
)


@settings(deadline=None, max_examples=100)
@given(name=SWEEP_NAMES, prefix=PATH_TEXT, outputs=st.lists(OUTPUT_BYTES, min_size=1, max_size=30))
def test_report_of_drawn_issues_equals_one_dump(name, prefix, outputs):
    """The report `write_results` streams is the one json.dumps wrote of the
    whole issue list, and its result keeps the first ten issues."""
    mapping = build_mapping(SetSweep([{"k": k} for k in range(len(outputs))]), sweep_name=name)
    pattern = prefix + "{sim_id}.txt"
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        for sim_id, output in zip(sim_ids(len(outputs)), outputs):
            if output is not None:
                Path(pattern.replace("{sim_id}", sim_id)).write_bytes(output)
        results = write_results(mapping, Path("m.json"), pattern, "r.csv", "report.json")
        report = Path("report.json").read_bytes()
        issues = [issue for _, _, _, issue in harvest(mapping, pattern) if issue is not None]
    old = {"schema": REPORT_SCHEMA, "sweep_name": name, "total": len(outputs), "collected": len(outputs) - len(issues)}
    old["missing"] = [dataclasses.asdict(issue) for issue in issues]
    assert report == (json.dumps(old, indent=2) + "\n").encode("utf-8")
    assert results.counts == {"total": len(outputs), "collected": len(outputs) - len(issues), "missing": len(issues)}
    assert results.issues == issues[:10]


def test_collect_with_no_readable_output_holds_no_issue(workdir):
    """A 10^5-cell grid whose outputs are all absent, in a directory that is
    too, so no file is made: the report lists every issue, and
    `write_results` holds under 2 MB beyond the mapping."""
    mapping = build_mapping(CartesianSweep({"a": list(range(100)), "b": list(range(1000))}), sweep_name="q")
    results, peak = traced_peak(lambda: write_results(mapping, Path("m.json"), "absent/out_{sim_id}.txt"))
    assert peak < 2_000_000, f"{peak} B"
    assert results.counts == {"total": 100_000, "collected": 0, "missing": 100_000}
    assert [issue.sim_id for issue in results.issues] == [f"{k:05d}" for k in range(10)]
    assert sorted(os.listdir()) == ["q_collect_report.json", "q_results.csv"]
    report = Path("q_collect_report.json").read_text(encoding="utf-8")
    assert report.count('"sim_id"') == 100_000
    assert report.endswith(
        '      "sim_id": "99999",\n      "path": "absent/out_99999.txt",\n'
        '      "reason": "cannot read output: No such file or directory"\n    }\n  ]\n}\n'
    )


def test_collect_memory_is_flat_in_the_number_of_simulations(workdir, monkeypatch, capsys):
    def read_bytes(path):  # outputs come from memory, not from thousands of files
        k = int(path.removeprefix("out_").removesuffix(".txt"))
        if k % 100 == 0:
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", path)
        return f"{k * 0.5} after\n".encode("utf-8")

    monkeypatch.setattr(files, "read_bytes", read_bytes)
    peaks = {}
    for cells in (200, 2_000, 20_000):  # the first run fills one-time caches
        directory = workdir / str(cells)
        directory.mkdir()
        sweep = CartesianSweep({"x": list(range(cells // 10)), "y": [k + 0.25 for k in range(10)]})
        mapping = build_mapping(sweep, sweep_name="slope")
        (directory / "m.json").write_text(serialize(mapping), encoding="utf-8")
        del mapping
        monkeypatch.chdir(directory)
        code, peaks[cells] = traced_peak(
            lambda: main(["collect", "m.json", "--output-pattern", "out_{sim_id}.txt"])
        )
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
        assert len(calls) == 20  # each conjunct once per value of its one parameter

    def test_filter_that_keeps_nothing_is_an_error(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": [1, 2], "b": [1, 2]}, "filter": "a > 9"},
        )
        assert main(["preview", "--sweep-file", "sweep.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: filter rejected all 4 parameter sets; nothing to run\n"
