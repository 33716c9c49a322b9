"""Output harvesting (`harvest`) and the CSV `write_results` writes."""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

import pytest

from sweeprun.collect import CollectIssue, harvest, write_results
from sweeprun.dispatch import DispatcherConfig, JobSpec, dispatch_all
from sweeprun.mapping import AssociationMapping, CartesianMapping, build_mapping, sim_ids
from sweeprun.sweeps import (
    CartesianSweep,
    FilteredCartesianSweep,
    RandomSweep,
    SetSweep,
    Uniform,
)
from sweeprun.templates import format_value, render


@pytest.fixture
def grid_mapping(workdir):
    return build_mapping(CartesianSweep({"a": [1, 2], "b": [10]}), sweep_name="demo")


def harvested(mapping, pattern) -> tuple[dict[str, float | None], list[CollectIssue]]:
    """Each simulation's value by sim_id, and the issues in mapping order, as `harvest` yields them."""
    values, issues = {}, []
    for sim_id, _cell, value, issue in harvest(mapping, pattern):
        values[sim_id] = value
        if issue is not None:
            issues.append(issue)
    return values, issues


def csv_text(mapping, pattern) -> str:
    """The CSV `write_results` writes in the current directory."""
    return write_results(mapping, Path("m.json"), pattern).csv_path.read_text(encoding="utf-8")


def test_reads_first_token_per_file(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("-0.25 trailing junk\n", encoding="utf-8")
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert not issues
    assert values == {"0": 0.5, "1": -0.25}


def test_csv_golden(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("-0.25\n", encoding="utf-8")
    assert csv_text(grid_mapping, "results_{sim_id}.txt") == "a,b,value\n1,10,0.5\n2,10,-0.25\n"


def test_csv_matches_a_per_cell_reference(workdir):
    sweep = CartesianSweep(
        {
            "n": [-3, 0, 12],
            "x": [1e-07, 1e16, 2.0, -0.5, 0.1],
            "s": ["plain", "a,b", 'say "hi"', "résumé ∂"],
        }
    )
    sets = list(sweep.iter_sets())
    ids = list(sim_ids(len(sets)))
    mapping = build_mapping(sweep, sweep_name="kinds")
    for k, sim_id in enumerate(ids):
        if k % 4:  # every fourth output is missing
            (workdir / f"out_{sim_id}.txt").write_text(f"{k * 0.25}\n", encoding="utf-8")

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["n", "x", "s", "value"])
    for k, (sim_id, params) in enumerate(zip(ids, sets)):
        row = [format_value(params[name]) for name in ("n", "x", "s")]
        row.append(format_value(k * 0.25) if k % 4 else "")
        writer.writerow(row)
    text = csv_text(mapping, "out_{sim_id}.txt")
    assert text == expected.getvalue()
    assert '1e-07,"say ""hi""",' in text and ',1e+16,"a,b",' in text and "résumé ∂" in text


def test_missing_file_reported_not_fatal(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert issues
    assert values["0"] == 0.5
    assert values["1"] is None
    assert [issue.sim_id for issue in issues] == ["1"]
    assert csv_text(grid_mapping, "results_{sim_id}.txt") == "a,b,value\n1,10,0.5\n2,10,\n"


def test_unparseable_token_reported(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("not-a-number\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("", encoding="utf-8")
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": None, "1": None}
    reasons = [issue.reason for issue in issues]
    assert any("not a number" in r for r in reasons)
    assert any("empty" in r for r in reasons)



@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_token_reported(workdir, grid_mapping, token):
    (workdir / "results_0.txt").write_text(f"{token}\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("0.5\n", encoding="utf-8")
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": None, "1": 0.5}
    assert [issue.sim_id for issue in issues] == ["0"]
    assert "not a finite number" in issues[0].reason
    assert csv_text(grid_mapping, "results_{sim_id}.txt") == "a,b,value\n1,10,\n2,10,0.5\n"

@pytest.mark.parametrize("token", ["1_000", "\u0663", "\uff11.5", "1_0.5e1_0"])
def test_only_ascii_decimal_tokens_are_numbers(workdir, grid_mapping, token):
    # float() reads digit separators and non-ASCII digits; a collected value must not
    (workdir / "results_0.txt").write_text(f"{token}\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("+1.5e3\n", encoding="utf-8")
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": None, "1": 1500.0}
    assert [issue.sim_id for issue in issues] == ["0"]
    assert "is not a number" in issues[0].reason



def test_undecodable_bytes_are_an_issue_not_an_abort(workdir, grid_mapping):
    (workdir / "results_0.txt").write_bytes(b"\xff\xfe 2.0\n")
    (workdir / "results_1.txt").write_bytes(b"3.0 \xe9t\xe9")  # a number, then Latin-1 text
    values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": None, "1": 3.0}
    [issue] = issues
    assert (issue.sim_id, issue.path) == ("0", "results_0.txt")
    assert issue.reason == "first token '\\udcff\\udcfe' is not a number"
    assert issue.reason.isascii()


def test_valid_utf8_is_split_on_unicode_whitespace(workdir, grid_mapping):
    # a no-break space (U+00A0) and an ideographic space (U+3000) separate tokens
    (workdir / "results_0.txt").write_bytes("\u00a03.5\u3000x".encode("utf-8"))
    (workdir / "results_1.txt").write_bytes("-1.25\u00a0é".encode("utf-8"))
    values, _issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": 3.5, "1": -1.25}


def test_output_longer_than_one_read_is_collected(workdir, grid_mapping):
    (workdir / "results_0.txt").write_bytes(b"2.5 " + b"x" * 70_000 + b"\n")
    (workdir / "results_1.txt").write_bytes(b"\n" * 70_000 + b"-1.0")
    values, _issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert values == {"0": 2.5, "1": -1.0}


@pytest.mark.parametrize("pattern", ["results_{sim_id}.txt/", "results_{sim_id}.txt/./", "./results_{sim_id}.txt"])
def test_output_pattern_is_read_as_path_spells_it(workdir, grid_mapping, pattern):
    # a trailing '/' or '/.' names the file before it, as Path(...) does
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    values, issues = harvested(grid_mapping, pattern)
    assert values == {"0": 0.5, "1": None}
    # an issue keeps the path as the pattern renders it
    assert [(issue.path, issue.reason) for issue in issues] == [
        (pattern.format(sim_id=1), "cannot read output: No such file or directory")
    ]


def test_unreadable_output_reasons(workdir, grid_mapping):
    (workdir / "results_0.txt").mkdir()
    _values, issues = harvested(grid_mapping, "results_{sim_id}.txt")
    assert [(issue.sim_id, issue.reason) for issue in issues] == [
        ("0", "cannot read output: Is a directory"),
        ("1", "cannot read output: No such file or directory"),
    ]


def test_order_independence(workdir, grid_mapping):
    # values keyed by ID: writing files in any order changes nothing
    for order in ([0, 1], [1, 0]):
        for i in order:
            (workdir / f"results_{i}.txt").write_text(f"{i}.75\n", encoding="utf-8")
        values, _issues = harvested(grid_mapping, "results_{sim_id}.txt")
        assert values == {"0": 0.75, "1": 1.75}


def test_grid_cell_by_multi_index(workdir):
    # a grid cell's value: the harvested values keyed by the sim_id at the cell's flat index
    sweep = CartesianSweep({"a": [1, 2, 3], "b": [10, 20]})
    mapping = build_mapping(sweep, sweep_name="demo")
    rng = random.Random(1)
    expected = {}
    for sim_id, params in mapping.items():
        value = round(rng.uniform(-5, 5), 6)
        expected[params["a"], params["b"]] = value
        (workdir / f"results_{sim_id}.txt").write_text(f"{value}\n", encoding="utf-8")
    values = {sim_id: value for sim_id, _, value, _ in harvest(mapping, "results_{sim_id}.txt")}
    assert isinstance(mapping, CartesianMapping)
    for i, a in enumerate([1, 2, 3]):
        for j, b in enumerate([10, 20]):
            assert values[mapping.sim_ids[mapping.flat_index((i, j))]] == expected[a, b]


def test_association_mapping_collection(workdir):
    mapping = AssociationMapping(
        sweep_name="demo", assignments={"0": {"x": 2, "y": 1}, "1": {"x": 3, "y": 1}}
    )
    (workdir / "results_0.txt").write_text("1.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("2.5\n", encoding="utf-8")
    assert csv_text(mapping, "results_{sim_id}.txt") == "x,y,value\n2,1,1.5\n3,1,2.5\n"


def test_pattern_must_contain_sim_id(grid_mapping):
    with pytest.raises(ValueError, match="sim_id"):
        next(harvest(grid_mapping, "results.txt"))


@pytest.mark.parametrize(
    "sweep_factory",
    [
        lambda: CartesianSweep({"a": [1.5, 2.5], "b": [0.25, 0.5, 0.75]}),
        lambda: FilteredCartesianSweep({"a": [1.0, 2.0], "b": [1.0, 2.0]}, filter="a >= b"),
        lambda: SetSweep([{"a": 1.25, "b": 2.0}, {"a": -0.5, "b": 4.0}]),
        lambda: RandomSweep(
            count=6, distributions={"a": Uniform(0, 5), "b": Uniform(-2, 2)}, seed=9
        ),
    ],
)
def test_stub_end_to_end_identity_for_every_sweep_type(workdir, stub, sweep_factory):
    # oracle: the stub writes a + b, recomputed here from the generated sets
    _script, command = stub
    sweep = sweep_factory()
    sets = list(sweep.iter_sets())
    ids = list(sim_ids(len(sets)))
    mapping = build_mapping(sweep, sweep_name="e2e")
    for params, sim_id in zip(sets, ids):
        (workdir / f"params_{sim_id}.nml").write_text(
            render("a = {a},\nb = {b}\n", params, sim_id), encoding="utf-8"
        )
    jobs = [
        JobSpec(sim_id=i, command=command.replace("{sim_id}", i), workdir=workdir) for i in ids
    ]
    records = []
    dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=4), records.append)
    assert len(records) == len(ids) and all(r.succeeded for r in records)
    values, issues = harvested(mapping, "results_{sim_id}.txt")
    assert not issues
    for params, sim_id in zip(sets, ids):
        assert values[sim_id] == params["a"] + params["b"]


def test_collect_refuses_a_mapping_that_repeats_a_sim_id(workdir, capsys):
    """A hand-edited association mapping that lists simulation 0 twice: json
    would keep the second set, and 0's output would be paired with it."""
    from sweeprun.cli import main

    (workdir / "m.json").write_text(
        '{"schema": "sweep-mapping/1", "kind": "association", "sweep_name": "h", "parameter_names": ["a"], '
        '"assignments": {"0": {"a": 1}, "1": {"a": 2}, "0": {"a": 3}}}\n',
        encoding="utf-8",
    )
    (workdir / "results_0.txt").write_text("5\n", encoding="utf-8")
    assert main(["collect", "m.json"]) == 1
    assert capsys.readouterr().err == "error: an object repeats the key '0'\n"
    assert sorted(path.name for path in workdir.iterdir()) == ["m.json", "results_0.txt"]
