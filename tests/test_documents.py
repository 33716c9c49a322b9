"""One rule for where a document may be written: every document a command
writes (the mapping, the summary, the CSV and the report) goes through
`files.write_atomic`, and each path it is given was checked first by
`files.require_documents`. A new document that skips the check fails here."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from sweeprun import files
from sweeprun.cli import main

SUBMIT = ["--submit-command", "echo Submitted batch job 7 for"]


@pytest.fixture
def documents(monkeypatch) -> tuple[list[str], list[str]]:
    """(every path checked, every path written), each resolved; a write of a
    path not checked before fails the command's test."""
    checked: list[str] = []
    written: list[str] = []
    require_documents, write_atomic = files.require_documents, files.write_atomic

    def checking(documents, **options):
        checked.extend(os.path.realpath(path) for path in documents.values())
        return require_documents(documents, **options)

    def writing(path, content):
        assert os.path.realpath(path) in checked, f"{path} is written but was never checked"
        written.append(os.path.realpath(path))
        return write_atomic(path, content)

    monkeypatch.setattr(files, "require_documents", checking)
    monkeypatch.setattr(files, "write_atomic", writing)
    return checked, written


@pytest.mark.parametrize(
    "options, code",
    [
        (["--dispatcher", "dry"], 0),
        ([], 0),
        (["--dry-run"], 0),
        (["--dispatcher", "slurm", *SUBMIT], 0),
        (["--dispatcher", "pbs", *SUBMIT], 0),
        (["--dispatcher", "slurm", "--submit-command", "false"], 2),
    ],
    ids=["dry", "local", "local-dry-run", "slurm", "pbs", "slurm-failed-submit"],
)
def test_run_writes_no_document_it_did_not_check(workdir, tiny_setup, documents, options, code, capsys):
    checked, written = documents
    assert main(tiny_setup + options) == code
    here = workdir.resolve()
    mapping, summary = (str(here / name) for name in ("tiny_mapping.json", "tiny_summary.json"))
    assert written == [mapping, summary]
    assert set(checked) == {mapping, summary, str(here / "template.txt")}  # the template is checked, not written


def test_collect_writes_no_document_it_did_not_check(workdir, tiny_setup, documents, capsys):
    checked, written = documents
    assert main(tiny_setup) == 0
    checked.clear(), written.clear()
    assert main(["collect", "tiny_mapping.json"]) == 4  # the outputs are absent
    here = workdir.resolve()
    assert written == [str(here / "tiny_results.csv"), str(here / "tiny_collect_report.json")]
    assert set(checked) == {str(here / "tiny_mapping.json"), *written}


def fitting_name(directory, suffix: str) -> str:
    """A name that ends with `suffix` and fits in `directory`, but whose
    temporary sibling (`.tmp.<8 hex>.` before it) does not."""
    return "n" * (os.pathconf(directory, "PC_NAME_MAX") - len(suffix) - 5) + suffix


@pytest.mark.parametrize("mapping_out", [["--mapping-out", "m.json"], []], ids=["mapping-out", "default-mapping"])
def test_run_refuses_a_name_whose_temporary_file_is_too_long(workdir, tiny_setup, mapping_out, capsys):
    name = fitting_name(workdir, "_summary.json").removesuffix("_summary.json")
    assert main([*tiny_setup, "--name", name, *mapping_out]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: --name: {name}_summary.json is too long a name to write")
    assert sorted(os.listdir()) == ["sweep.json", "template.txt"]  # nothing was written


def test_collect_refuses_a_report_whose_temporary_file_is_too_long(workdir, tiny_setup, capsys):
    assert main(tiny_setup) == 0
    report = fitting_name(workdir, ".json")
    before = sorted(os.listdir())
    assert main(["collect", "tiny_mapping.json", "--report-out", report]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: --report-out: {report} is too long a name to write")
    assert sorted(os.listdir()) == before


def test_a_long_name_is_checked_where_the_document_is_written(workdir, tiny_setup, capsys):
    """A link is written through, so the temporary file goes beside its
    target; a special file is written in place, with no temporary file; a
    mapping `collect` only reads makes none."""
    assert main(tiny_setup) == 0
    long_mapping = fitting_name(workdir, ".json")
    os.rename("tiny_mapping.json", long_mapping)
    long_link, long_device = fitting_name(workdir, ".csv"), fitting_name(workdir, ".txt")
    os.symlink("short.csv", long_link)
    os.symlink("/dev/null", long_device)
    assert main(["collect", long_mapping, "--csv-out", long_link, "--report-out", long_device]) == 4
    assert Path("short.csv").read_text(encoding="utf-8") == "a,b,value\n1,10,\n2,10,\n"
    os.symlink(long_link.replace("n", "t", 1), "m.json")  # a short link to a target with a long name
    capsys.readouterr()
    assert main([*tiny_setup, "--mapping-out", "m.json", "--overwrite"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --mapping-out: m.json is too long a name to write")
