"""One rule for where a document may be written: every document a command
writes (the mapping, the summary, the CSV and the report) goes through
`files.write_atomic`, and each path it is given was checked first by
`files.require_documents`. A new document that skips the check fails here."""

from __future__ import annotations

import os

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

    def checking(documents):
        checked.extend(os.path.realpath(path) for path in documents.values())
        return require_documents(documents)

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
    mapping, summary = (str(workdir.resolve() / name) for name in ("tiny_mapping.json", "tiny_summary.json"))
    assert written == [mapping, summary]
    assert set(checked) == {mapping, summary}


def test_collect_writes_no_document_it_did_not_check(workdir, tiny_setup, documents, capsys):
    checked, written = documents
    assert main(tiny_setup) == 0
    checked.clear(), written.clear()
    assert main(["collect", "tiny_mapping.json"]) == 4  # the outputs are absent
    here = workdir.resolve()
    assert written == [str(here / "tiny_results.csv"), str(here / "tiny_collect_report.json")]
    assert set(checked) == {str(here / "tiny_mapping.json"), *written}
