"""Text encodings are explicit: no command falls back to Python's implicit
default encoding, and a submit command's output is decoded as
``subprocess.run(..., text=True)`` decodes it, also under the C locale,
where Python's UTF-8 mode is on."""

from __future__ import annotations

import json
import os

import pytest

from conftest import run_python
from sweeprun.cli import main
from sweeprun.errors import MappingFormatError
from sweeprun.mapping import read_mapping

STRICT = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "sweeprun.cli"]
RUN = [
    "run", "--command", "sh model.sh {sim_id}", "--config", "conf_{sim_id}.txt", "--template", "template.txt",
    "--sweep-file", "sweep.json", "--overwrite",
]
# a fake sbatch that prints a job ID with a non-ASCII letter, as UTF-8
FAKE_SBATCH = "#!/bin/sh\nprintf 'Submitted batch job j\\303\\266b-7\\n'\n"


@pytest.fixture
def sweep_files(workdir):
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": [1, 2, 3]}, "filter": "a > 1"}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("a={a}\n", encoding="utf-8")
    (workdir / "model.sh").write_text('echo 1.5 > "results_$1.txt"\necho done\n', encoding="utf-8")
    (workdir / "fake_sbatch.sh").write_text(FAKE_SBATCH, encoding="utf-8")
    return workdir


@pytest.mark.parametrize(
    "argv, code",
    [
        ([*RUN, "--name", "slurm", "--dispatcher", "slurm", "--submit-command", "sh fake_sbatch.sh"], 0),
        ([*RUN, "--name", "local", "--capture"], 0),
        ([*RUN, "--name", "dry", "--dispatcher", "dry"], 0),
        (["collect", "local_mapping.json"], 0),
        (["preview", "--sweep-file", "sweep.json"], 0),
    ],
    ids=["slurm", "local-capture", "dry", "collect", "preview"],
)
def test_no_command_uses_the_default_encoding(sweep_files, argv, code):
    if argv[0] == "collect":
        assert run_python([*STRICT, *RUN, "--name", "local"], sweep_files).returncode == 0
    proc = run_python([*STRICT, *argv], sweep_files)
    assert proc.returncode == code, proc.stderr
    assert "EncodingWarning" not in proc.stderr


def test_submit_output_is_decoded_as_text_mode_decodes_it(sweep_files, monkeypatch):
    for name in os.environ:
        if name.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING")):
            monkeypatch.delenv(name)
    monkeypatch.setenv("LC_ALL", "C")  # Python's UTF-8 mode is on, but the locale's own encoding is ASCII
    text_mode = (
        "import subprocess\n"
        "print(ascii(subprocess.run(['sh', 'fake_sbatch.sh'], capture_output=True, text=True).stdout))"
    )
    assert run_python(["-c", text_mode], sweep_files).stdout == "'Submitted batch job j\\xf6b-7\\n'\n"
    argv = [*RUN, "--name", "slurm", "--dispatcher", "slurm", "--submit-command", "sh fake_sbatch.sh"]
    proc = run_python(["-m", "sweeprun.cli", *argv], sweep_files)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((sweep_files / "slurm_summary.json").read_text(encoding="utf-8"))
    assert [job["scheduler_job_id"] for job in summary["jobs"]] == ["j\xf6b-7", "j\xf6b-7"]


def test_tiny_setup_runs_under_strict_encoding_warnings(tiny_setup, workdir):
    """run (local jobs at two slots), preview and collect each end as they
    should with EncodingWarning an error."""
    for argv, code in [
        ([*tiny_setup, "--max-parallel", "2"], 0),
        (["preview", "--sweep-file", "sweep.json"], 0),
        (["collect", "tiny_mapping.json"], 4),  # `true` writes no output
    ]:
        proc = run_python([*STRICT, *argv], workdir)
        assert proc.returncode == code, proc.stderr
        assert "Warning" not in proc.stderr


def write_sets(workdir, values: list[str]):
    """A set sweep over `values` of one parameter `s`, and a template that does not use it."""
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "set", "sets": [{"s": value} for value in values]}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("{sim_id}\n", encoding="utf-8")


def test_preview_writes_a_value_its_output_cannot_encode_as_its_escape(workdir, monkeypatch):
    write_sets(workdir, ["a", "\ud800"])
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
    proc = run_python(["-m", "sweeprun.cli", "preview", "--sweep-file", "sweep.json"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert [line.strip() for line in proc.stdout.splitlines()[1:]] == ["0: s=a", "1: s=\\ud800"]


@pytest.mark.parametrize("outputs, code", [(3, 0), (2, 4)])
def test_collect_writes_a_value_utf8_cannot_encode_as_its_escape(workdir, outputs, code):
    """The CSV escapes the lone surrogate and holds the other values as
    UTF-8, and the exit code follows from the outputs."""
    write_sets(workdir, ["a", "\ud800", "é"])
    run = ["run", "--command", "true {sim_id}", "--config", "c_{sim_id}.txt", "--template", "template.txt"]
    dry = run_python(["-m", "sweeprun.cli", *run, "--sweep-file", "sweep.json", "--dispatcher", "dry"], workdir)
    assert dry.returncode == 0, dry.stderr
    for k in range(outputs):
        (workdir / f"results_{k}.txt").write_text(f"{k}.5\n", encoding="utf-8")
    proc = run_python(["-m", "sweeprun.cli", "collect", "sweep_mapping.json"], workdir)
    assert proc.returncode == code, proc.stderr
    last = "2.5" if outputs == 3 else ""
    expected = f"s,value\na,0.5\n\\ud800,1.5\né,{last}\n".encode()
    assert (workdir / "sweep_results.csv").read_bytes() == expected


@pytest.mark.parametrize("option", ["--template", "--sweep-file"])
def test_run_names_an_input_that_is_not_utf8(tiny_setup, workdir, option, capsys):
    path = workdir / tiny_setup[tiny_setup.index(option) + 1]
    data = path.read_bytes()
    path.write_bytes(data[:2] + b"\xff" + data[2:])
    before = sorted(workdir.iterdir())
    assert main(tiny_setup) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{option} {path.name} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
    assert sorted(workdir.iterdir()) == before


def test_collect_names_a_mapping_that_is_not_utf8(tiny_setup, workdir, capsys):
    assert main(tiny_setup) == 0
    mapping = workdir / "tiny_mapping.json"
    mapping.write_bytes(mapping.read_bytes().replace(b"tiny", b"t\xffny"))
    capsys.readouterr()
    assert main(["collect", str(mapping)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAPPING {mapping} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
    with pytest.raises(MappingFormatError, match="is not UTF-8 text"):
        read_mapping(mapping)
