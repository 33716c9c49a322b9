"""Each distinct value of a Cartesian grid is formatted once per pass:
`collect` and a dry `run` build every cell from per-axis formatted values
instead of formatting each value again in every cell it appears in. Each
simulation ID is made once per run: every pass of `run` reads it from the
mapping."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from sweeprun import templates
from sweeprun.cli import main
from sweeprun.mapping import build_mapping, serialize
from sweeprun.naming import NamerConfig, SequentialNamer
from sweeprun.sweeps import CartesianSweep

# 20 x 30 x 10 = 6,000 cells from 60 distinct values
PARAMETERS = {
    "n": list(range(20)),
    "x": [k + 0.125 for k in range(29)] + [1e-07],
    "mode": [f"m{k}" for k in range(10)],
}
CELLS = 6_000
DISTINCT = 60


@pytest.fixture
def number_formats(monkeypatch) -> list:
    """Every format_value call with a number, wherever sweeprun binds the name
    (text passes through format_value unchanged, so it is not counted)."""
    real = templates.format_value
    calls: list = []

    def counting(value):
        if not isinstance(value, str):
            calls.append(value)
        return real(value)

    patched = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("sweeprun") and getattr(module, "format_value", None) is real:
            monkeypatch.setattr(module, "format_value", counting)
            patched.append(name)
    assert {"sweeprun.templates", "sweeprun.cli"} <= set(patched)
    return calls


def test_collect_formats_each_grid_value_once_per_pass(workdir, number_formats, capsys):
    sweep = CartesianSweep(PARAMETERS)
    ids = list(SequentialNamer(NamerConfig(), CELLS))
    mapping = build_mapping(sweep, sweep.generate(), ids, sweep_name="grid")
    (workdir / "grid_mapping.json").write_text(serialize(mapping), encoding="utf-8")
    harvested = 0
    for k, sim_id in enumerate(ids):
        if k % 2 == 0:  # every other output is missing
            (workdir / f"out_{sim_id}.txt").write_text(f"{k}.5\n", encoding="utf-8")
            harvested += 1

    code = main(["collect", "grid_mapping.json", "--output-pattern", "out_{sim_id}.txt"])
    assert code == 4
    rows = (workdir / "grid_results.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == CELLS + 1 and rows[1] == "0,0.125,m0,0.5"
    # one pass to read the outputs, one to write the CSV, plus the value column
    assert len(number_formats) <= 2 * DISTINCT + harvested, len(number_formats)


def dry_grid_run(workdir: Path, monkeypatch) -> list[str]:
    """Arguments for a dry run of the grid whose configs go to a sink."""
    real_write_text = Path.write_text

    def write_text(path, data, *args, **kwargs):
        if path.name.startswith("c_"):  # configs go to a sink, not to thousands of files
            return len(data)
        return real_write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": PARAMETERS}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("n = {n}\nx = {x}\nmode = {mode}\n", encoding="utf-8")
    return [
        "run",
        "--command", "./model {sim_id} {n} {x} {mode}",
        "--config", "c_{sim_id}.txt",
        "--template", "template.txt",
        "--sweep-file", "sweep.json",
        "--name", "grid",
        "--dispatcher", "dry",
        "--overwrite",  # without it the conflict check is one more pass
    ]


def test_dry_run_formats_each_grid_value_once_per_pass(workdir, monkeypatch, number_formats, capsys):
    assert main(dry_grid_run(workdir, monkeypatch)) == 0
    summary = json.loads((workdir / "grid_summary.json").read_text(encoding="utf-8"))
    assert summary["counts"]["dry_run"] == CELLS
    assert summary["jobs"][1]["command"] == "./model 0001 0 0.125 m1"
    # one pass writes the configs, one renders the commands
    assert len(number_formats) <= 2 * DISTINCT, len(number_formats)


def test_dry_run_names_each_simulation_once(workdir, monkeypatch, capsys):
    real = SequentialNamer.next_id
    calls: list[SequentialNamer] = []
    monkeypatch.setattr(SequentialNamer, "next_id", lambda namer: calls.append(namer) or real(namer))
    assert main(dry_grid_run(workdir, monkeypatch)) == 0
    assert len(calls) == CELLS, len(calls) / CELLS
