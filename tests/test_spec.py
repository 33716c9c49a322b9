"""A sweep spec file that cannot be read is one `error:` line and exit 1,
before any file is written."""

from __future__ import annotations

import json

import pytest

from sweeprun.cli import main

RUN = ["run", "--command", "true {sim_id}", "--config", "c_{sim_id}.txt", "--template", "template.txt",
       "--sweep-file", "sweep.json"]
PREVIEW = ["preview", "--sweep-file", "sweep.json"]
GRID = {"type": "cartesian", "parameters": {"a": [1, 2]}}


def _random(distributions) -> dict:
    return {"type": "random", "seed": 1, "count": 2, "distributions": distributions}


@pytest.mark.parametrize(
    "spec, argv, line",
    [
        ("{", RUN, "sweep spec: invalid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
        ([], RUN, "sweep spec: top level must be an object"),
        ({**GRID, "filter": 1}, RUN, "sweep spec: 'filter' must be text"),
        ({"type": "cartesian", "parameters": {"a": {"values": 1}}}, RUN,
         "sweep spec: parameter 'a': values must be a list"),
        ({"type": "cartesian", "parameters": {"a": 1}}, RUN,
         "sweep spec: parameter 'a': expected a value list, 'values', or 'linspace'"),
        (_random({"a": {"uniform": [0, 1], "normal": [0, 1]}}), RUN,
         """sweep spec: parameter 'a': a distribution is a one-key object like {"uniform": [0, 1]}"""),
        (_random({"a": {"choice": []}}), RUN, "sweep spec: parameter 'a': choice needs a non-empty option list"),
        (_random({}), RUN, "sweep spec: random sweeps need a non-empty 'distributions' object"),
        ({"type": "cartesian", "parameters": {"a": {"linspace": [0, 1, 3.5]}}}, RUN,
         "linspace count must be an integer >= 2, got 3.5"),
        (GRID, [*PREVIEW, "--limit", "-1"], "--limit must be >= 0, got -1"),
    ],
    ids=["invalid-json", "not-an-object", "filter-not-text", "values-not-a-list", "unknown-parameter-spec",
         "distribution-not-one-key", "empty-choice", "empty-distributions", "linspace-count-3.5", "limit-negative"],
)
def test_a_bad_spec_is_one_error_line_and_writes_nothing(workdir, capsys, spec, argv, line):
    (workdir / "sweep.json").write_text(spec if isinstance(spec, str) else json.dumps(spec), encoding="utf-8")
    (workdir / "template.txt").write_text("a={a}\n", encoding="utf-8")
    before = sorted(workdir.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")
    assert sorted(workdir.iterdir()) == before


def test_a_linspace_count_of_3_0_is_a_count_of_3(workdir, capsys):
    shown = []
    for count in ("3", "3.0"):
        (workdir / "sweep.json").write_text(
            f'{{"type": "cartesian", "parameters": {{"a": {{"linspace": [0, 1, {count}]}}}}}}', encoding="utf-8"
        )
        assert main(PREVIEW) == 0
        shown.append(capsys.readouterr().out)
    assert shown[0] == shown[1]
    assert "3 simulation(s)" in shown[0] and "  2: a=1.0\n" in shown[0]
