"""Each distinct value of a Cartesian grid is formatted once per pass:
`collect` and a dry `run` build every cell from per-axis formatted values
instead of formatting each value again in every cell it appears in. The
command pass quotes each distinct value for the shell once, too. A grid's
mapping holds no simulation ID: each pass of `run` that names simulations
makes each ID once from `mapping.SimIds`, and `preview` makes only the IDs
it lists. Under --overwrite, checking the output paths renders none of them."""

from __future__ import annotations

import json
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from sweeprun import files, mapping, templates
from sweeprun.cli import main
from sweeprun.mapping import build_mapping, read_mapping, serialize, sim_ids
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


@pytest.fixture
def renders(monkeypatch) -> list[str]:
    """The source of every render call, wherever sweeprun binds the name."""
    real = templates.render
    sources: list[str] = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("sweeprun") and getattr(module, "render", None) is real:
            monkeypatch.setattr(module, "render", lambda *args: sources.append(args[0]) or real(*args))
    return sources


@pytest.fixture
def id_draws(monkeypatch) -> list[str]:
    """Every ID read from an iterator over `mapping.SimIds`, the computed IDs
    that `sim_ids` returns and a grid's mapping keeps."""
    real = mapping.SimIds.__iter__
    drawn: list[str] = []

    def counting(self):
        for sim_id in real(self):
            drawn.append(sim_id)
            yield sim_id

    monkeypatch.setattr(mapping.SimIds, "__iter__", counting)
    return drawn


def test_collect_formats_each_grid_value_once_per_pass(workdir, number_formats, capsys):
    (workdir / "grid_mapping.json").write_text(
        serialize(build_mapping(CartesianSweep(PARAMETERS), sweep_name="grid")), encoding="utf-8"
    )
    harvested = 0
    for k, sim_id in enumerate(sim_ids(CELLS)):
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
    monkeypatch.setattr(files, "rewrite", lambda path, text: None)
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


def test_dry_run_names_each_simulation_once(workdir, monkeypatch, id_draws, capsys):
    """A dry --overwrite run makes each ID once in each pass that names
    simulations, the configs pass and the commands pass, and in no other:
    the mapping's text joins the IDs a thousand at a time, and the repeat
    check reads each job's ID from its digits."""
    assert main(dry_grid_run(workdir, monkeypatch)) == 0
    ids = [f"{k:04d}" for k in range(CELLS)]
    assert id_draws == ids + ids, len(id_draws) / CELLS


def test_preview_makes_only_the_ids_it_lists(workdir, id_draws, capsys):
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": list(range(100)), "b": list(range(10_000))}}),
        encoding="utf-8",
    )
    assert main(["preview", "--sweep-file", "sweep.json", "--limit", "3"]) == 0
    assert "1000000 simulation(s)" in capsys.readouterr().out
    assert id_draws == ["000000", "000001", "000002"]


def test_dry_run_quotes_each_grid_value_once_per_pass(workdir, monkeypatch, renders, capsys):
    real = shlex.quote
    quoted: list[str] = []
    monkeypatch.setattr(shlex, "quote", lambda text: quoted.append(text) or real(text))
    assert main(dry_grid_run(workdir, monkeypatch)) == 0
    summary = json.loads((workdir / "grid_summary.json").read_text(encoding="utf-8"))
    assert summary["jobs"][-1]["command"] == "./model 5999 19 1e-07 m9"
    # the command pass is the only one that quotes
    assert len(quoted) <= DISTINCT, len(quoted)
    # one config path, one config and one command per simulation: a config
    # pattern that cannot name the mapping or the summary is not rendered again
    assert len(renders) == 3 * CELLS, len(renders) / CELLS


@pytest.mark.parametrize(
    "dispatch", [["--dispatcher", "slurm", "--dry-run"], ["--capture"]], ids=["slurm", "capture"]
)
def test_overwrite_run_renders_no_path_to_check_it(workdir, renders, dispatch, capsys):
    """Under --overwrite, the batch scripts or capture files are proved apart
    from the configs, the mapping and the summary without rendering a path,
    though grid_{sim_id}.sh and grid_mapping.json share their text up to the
    placeholder: only their ends tell them apart."""
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"n": [1, 2], "mode": ["a", "b", "c"]}}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("n = {n}\nmode = {mode}\n", encoding="utf-8")
    argv = [
        "run", "--command", "true {sim_id}", "--config", "params_{sim_id}.nml", "--template", "template.txt",
        "--sweep-file", "sweep.json", "--name", "grid", "--overwrite", *dispatch,
    ]
    assert main(argv) == 0
    # one config path, one config and one command per simulation
    assert sorted(Counter(renders).values()) == [6, 6, 6], Counter(renders)


ODD_WORDS = ["a b", "", "''", "x;y", "$HOME", "é"]


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "cartesian", "parameters": {"w": ODD_WORDS, "n": [1, 2]}},
        {"type": "set", "sets": [{"w": w, "n": k} for k, w in enumerate(ODD_WORDS)]},
        {
            "type": "random", "count": 12, "seed": 5,
            "distributions": {"w": {"choice": ODD_WORDS}, "n": {"uniform": [0, 1]}},
        },
        {"type": "cartesian", "parameters": {"w": ODD_WORDS, "n": [1, 2, 3]}, "filter": "n != 2"},
    ],
    ids=["cartesian", "set", "random", "filtered"],
)
def test_commands_equal_quoting_each_cell(workdir, spec, capsys):
    (workdir / "sweep.json").write_text(json.dumps(spec), encoding="utf-8")
    (workdir / "template.txt").write_text("n = {n}\n", encoding="utf-8")
    command = "./model {sim_id} --w {w} --n={n} '{w}'"
    argv = [
        "run", "--command", command, "--config", "c_{sim_id}.txt", "--template", "template.txt",
        "--sweep-file", "sweep.json", "--name", "q", "--dispatcher", "dry",
    ]
    assert main(argv) == 0
    mapping = read_mapping(workdir / "q_mapping.json")
    def quoted(params):  # each value quoted in each cell
        return {name: shlex.quote(templates.format_value(value)) for name, value in params.items()}

    expected = [templates.render(command, quoted(params), sim_id) for sim_id, params in mapping.items()]
    summary = json.loads((workdir / "q_summary.json").read_text(encoding="utf-8"))
    assert [job["command"] for job in summary["jobs"]] == expected
    assert len(expected) == len(mapping) >= len(ODD_WORDS)
