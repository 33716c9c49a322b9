"""Output harvesting and CSV export."""

from __future__ import annotations

import csv
import io
import random

import pytest

from sweeprun.collect import collect_scalars, export_csv
from sweeprun.dispatch import DispatcherConfig, JobSpec, dispatch_all
from sweeprun.mapping import AssociationMapping, CartesianMapping, build_mapping
from sweeprun.naming import NamerConfig, SequentialNamer
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
    sweep = CartesianSweep({"a": [1, 2], "b": [10]})
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    return build_mapping(sweep, sets, ids, sweep_name="demo")


def test_reads_first_token_per_file(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("-0.25 trailing junk\n", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.complete
    assert collected.values == {"0": 0.5, "1": -0.25}


def test_csv_golden(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("-0.25\n", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert export_csv(collected) == "a,b,value\n1,10,0.5\n2,10,-0.25\n"


def test_csv_matches_a_per_cell_reference(workdir):
    sweep = CartesianSweep(
        {
            "n": [-3, 0, 12],
            "x": [1e-07, 1e16, 2.0, -0.5, 0.1],
            "s": ["plain", "a,b", 'say "hi"', "résumé ∂"],
        }
    )
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    mapping = build_mapping(sweep, sets, ids, sweep_name="kinds")
    for k, sim_id in enumerate(ids):
        if k % 4:  # every fourth output is missing
            (workdir / f"out_{sim_id}.txt").write_text(f"{k * 0.25}\n", encoding="utf-8")
    collected = collect_scalars(mapping, "out_{sim_id}.txt")

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["n", "x", "s", "value"])
    for k, (sim_id, params) in enumerate(zip(ids, sets)):
        row = [format_value(params[name]) for name in ("n", "x", "s")]
        row.append(format_value(k * 0.25) if k % 4 else "")
        writer.writerow(row)
    text = export_csv(collected)
    assert text == expected.getvalue()
    assert '1e-07,"say ""hi""",' in text and ',1e+16,"a,b",' in text and "résumé ∂" in text


def test_missing_file_reported_not_fatal(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("0.5\n", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert not collected.complete
    assert collected.values["0"] == 0.5
    assert collected.values["1"] is None
    assert [issue.sim_id for issue in collected.issues] == ["1"]
    assert export_csv(collected) == "a,b,value\n1,10,0.5\n2,10,\n"


def test_unparseable_token_reported(workdir, grid_mapping):
    (workdir / "results_0.txt").write_text("not-a-number\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.values == {"0": None, "1": None}
    reasons = [issue.reason for issue in collected.issues]
    assert any("not a number" in r for r in reasons)
    assert any("empty" in r for r in reasons)



@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_token_reported(workdir, grid_mapping, token):
    (workdir / "results_0.txt").write_text(f"{token}\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("0.5\n", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.values == {"0": None, "1": 0.5}
    assert [issue.sim_id for issue in collected.issues] == ["0"]
    assert "not a finite number" in collected.issues[0].reason
    assert export_csv(collected) == "a,b,value\n1,10,\n2,10,0.5\n"

@pytest.mark.parametrize("token", ["1_000", "\u0663", "\uff11.5", "1_0.5e1_0"])
def test_only_ascii_decimal_tokens_are_numbers(workdir, grid_mapping, token):
    # float() reads digit separators and non-ASCII digits; a collected value must not
    (workdir / "results_0.txt").write_text(f"{token}\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("+1.5e3\n", encoding="utf-8")
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.values == {"0": None, "1": 1500.0}
    assert [issue.sim_id for issue in collected.issues] == ["0"]
    assert "is not a number" in collected.issues[0].reason



def test_undecodable_bytes_are_an_issue_not_an_abort(workdir, grid_mapping):
    (workdir / "results_0.txt").write_bytes(b"\xff\xfe 2.0\n")
    (workdir / "results_1.txt").write_bytes(b"3.0 \xe9t\xe9")  # a number, then Latin-1 text
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.values == {"0": None, "1": 3.0}
    [issue] = collected.issues
    assert (issue.sim_id, issue.path) == ("0", "results_0.txt")
    assert issue.reason == "first token '\\udcff\\udcfe' is not a number"
    assert issue.reason.isascii()


def test_valid_utf8_is_split_on_unicode_whitespace(workdir, grid_mapping):
    # a no-break space (U+00A0) and an ideographic space (U+3000) separate tokens
    (workdir / "results_0.txt").write_bytes("\u00a03.5\u3000x".encode("utf-8"))
    (workdir / "results_1.txt").write_bytes("-1.25\u00a0é".encode("utf-8"))
    collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
    assert collected.values == {"0": 3.5, "1": -1.25}


def test_order_independence(workdir, grid_mapping):
    # values keyed by ID: writing files in any order changes nothing
    for order in ([0, 1], [1, 0]):
        for i in order:
            (workdir / f"results_{i}.txt").write_text(f"{i}.75\n", encoding="utf-8")
        collected = collect_scalars(grid_mapping, "results_{sim_id}.txt")
        assert collected.values == {"0": 0.75, "1": 1.75}


def test_value_at_grid_indexing(workdir):
    sweep = CartesianSweep({"a": [1, 2, 3], "b": [10, 20]})
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    mapping = build_mapping(sweep, sets, ids, sweep_name="demo")
    rng = random.Random(1)
    expected = {}
    for sim_id, params in mapping.items():
        value = round(rng.uniform(-5, 5), 6)
        expected[sim_id] = value
        (workdir / f"results_{sim_id}.txt").write_text(f"{value}\n", encoding="utf-8")
    collected = collect_scalars(mapping, "results_{sim_id}.txt")
    assert isinstance(mapping, CartesianMapping)
    for i in range(3):
        for j in range(2):
            flat = mapping.flat_index((i, j))
            assert collected.value_at(i, j) == expected[mapping.sim_ids[flat]]


def test_association_mapping_collection(workdir):
    mapping = AssociationMapping(
        sweep_name="demo", assignments={"0": {"x": 2, "y": 1}, "1": {"x": 3, "y": 1}}
    )
    (workdir / "results_0.txt").write_text("1.5\n", encoding="utf-8")
    (workdir / "results_1.txt").write_text("2.5\n", encoding="utf-8")
    collected = collect_scalars(mapping, "results_{sim_id}.txt")
    assert export_csv(collected) == "x,y,value\n2,1,1.5\n3,1,2.5\n"
    with pytest.raises(TypeError):
        collected.value_at(0)


def test_pattern_must_contain_sim_id(grid_mapping):
    with pytest.raises(ValueError, match="sim_id"):
        collect_scalars(grid_mapping, "results.txt")


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
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    mapping = build_mapping(sweep, sets, ids, sweep_name="e2e")
    for params, sim_id in zip(sets, ids):
        (workdir / f"params_{sim_id}.nml").write_text(
            render("a = {a},\nb = {b}\n", params, sim_id), encoding="utf-8"
        )
    jobs = [
        JobSpec(sim_id=i, command=command.replace("{sim_id}", i), workdir=workdir) for i in ids
    ]
    records = dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=4))
    assert all(r.succeeded for r in records)
    collected = collect_scalars(mapping, "results_{sim_id}.txt")
    assert collected.complete
    for params, sim_id in zip(sets, ids):
        assert collected.value_for(sim_id) == params["a"] + params["b"]
