"""Acceptance gate: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from conftest import NAMELIST_ORIGINAL, NAMELIST_TEMPLATE, REFERENCE_GRID_SPEC
from stubmodel import read_high_water, stub_command, write_stub_model
from sweeprun.cli import main
from sweeprun.dispatch import DispatcherConfig, JobSpec, dispatch_all
from sweeprun.errors import EmptySweepError
from sweeprun.collect import harvest
from sweeprun.mapping import (
    CartesianMapping,
    build_mapping,
    deserialize,
    read_mapping,
    serialize,
)
from sweeprun.sweeps import (
    CartesianSweep,
    Choice,
    FilteredCartesianSweep,
    IntegerUniform,
    LogUniform,
    Normal,
    RandomSweep,
    SetSweep,
    Uniform,
    linspace,
    values_equal,
)
from sweeprun.templates import render


def criterion(num: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# criteria 1 and 4 share one reference run


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Run the 3x10x10 reference grid against the stub model once."""
    bench = tmp_path_factory.mktemp("reference_run")
    previous = os.getcwd()
    os.chdir(bench)
    try:
        script = write_stub_model(bench)
        (bench / "sweep.json").write_text(json.dumps(REFERENCE_GRID_SPEC), encoding="utf-8")
        (bench / "template.txt").write_text(NAMELIST_TEMPLATE, encoding="utf-8")
        started = time.monotonic()
        exit_code = main(
            [
                "run",
                "--command", stub_command(script),
                "--config", "params_{sim_id}.nml",
                "--template", "template.txt",
                "--sweep-file", "sweep.json",
                "--name", "bench",
                "--max-parallel", "4",
            ]
        )
        elapsed = time.monotonic() - started
    finally:
        os.chdir(previous)
    return {"dir": bench, "exit_code": exit_code, "elapsed": elapsed}


@criterion(1, "reference grid end to end: 300 configs, 300 results, shape [3,10,10], under 60 s")
def test_criterion_1_reference_grid_desk_scale(reference_run):
    bench = reference_run["dir"]
    assert reference_run["exit_code"] == 0
    assert reference_run["elapsed"] < 60.0
    assert len(list(bench.glob("params_*.nml"))) == 300
    assert len(list(bench.glob("results_*.txt"))) == 300
    mapping = read_mapping(bench / "bench_mapping.json")
    assert isinstance(mapping, CartesianMapping)
    assert mapping.dims == ("beta", "sigma", "rho")
    assert mapping.shape == (3, 10, 10)
    assert len(mapping.sim_ids) == 300


@criterion(2, "namelist template golden render is byte-for-byte")
def test_criterion_2_template_golden():
    rendered = render(NAMELIST_TEMPLATE, {"beta": 2.67, "sigma": 10, "rho": 28}, "000")
    assert rendered == NAMELIST_ORIGINAL
    assert rendered.encode("utf-8") == NAMELIST_ORIGINAL.encode("utf-8")


# ---------------------------------------------------------------------------
# criterion 3: filtered generation vs brute force


def _enumerate_grid(names, value_lists):
    """Independent row-major enumeration (no itertools)."""
    if not names:
        return [{}]
    out = []
    for value in value_lists[0]:
        for rest in _enumerate_grid(names[1:], value_lists[1:]):
            out.append({names[0]: value, **rest})
    return out


def _without_repeats(values):
    """The first of each value, compared by kind: Cartesian value lists may
    not repeat a value."""
    kept = {}
    for value in values:
        kept.setdefault((type(value), value), value)
    return list(kept.values())


def _random_filter_source(rng: random.Random, names):
    """Random boolean expression in the + - * comparison and/or/not subset.

    Fully parenthesized, so the text is simultaneously valid Python with
    identical semantics: the host interpreter serves as the oracle.
    """

    def arith(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return rng.choice(names)
        if roll < 0.6:
            return str(rng.randint(0, 5))
        if roll < 0.7:
            return repr(round(rng.uniform(-4, 4), 2))
        op = rng.choice(["+", "-", "*"])
        return f"({arith(depth - 1)} {op} {arith(depth - 1)})"

    def boolean(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.55:
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"({arith(depth)} {op} {arith(depth)})"
        if roll < 0.7:
            return f"(not {boolean(depth - 1)})"
        op = rng.choice(["and", "or"])
        return f"({boolean(depth - 1)} {op} {boolean(depth - 1)})"

    return boolean(2)


@criterion(3, "filtered generation equals brute-force enumerate-then-filter for 30 random filters")
def test_criterion_3_filtered_oracle_equivalence():
    rng = random.Random(30303)
    checked = 0
    while checked < 30:
        n_params = rng.randint(1, 3)
        names = ["x", "y", "z"][:n_params]
        drawn = {
            name: [
                rng.choice([rng.randint(-5, 5), round(rng.uniform(-5, 5), 2)])
                for _ in range(rng.randint(1, 5))
            ]
            for name in names
        }
        grid = {name: _without_repeats(values) for name, values in drawn.items()}
        source = _random_filter_source(rng, names)
        repeated = [name for name in names if len(grid[name]) < len(drawn[name])]
        if repeated:
            # a drawn repeat is rejected, naming the first such parameter;
            # the grid without repeats is then checked like any other
            with pytest.raises(ValueError, match=f"parameter '{repeated[0]}' lists"):
                FilteredCartesianSweep(drawn, filter=source)
        everything = _enumerate_grid(names, [grid[n] for n in names])
        expected = [s for s in everything if eval(source, {"__builtins__": {}}, dict(s))]
        sweep = FilteredCartesianSweep(grid, filter=source)
        if expected:
            assert list(sweep.iter_sets()) == expected
        else:
            with pytest.raises(EmptySweepError):
                list(sweep.iter_sets())
        checked += 1
    assert checked >= 20


@criterion(4, "harvested grid equals beta+sigma+rho at all 300 cells")
def test_criterion_4_harvest_identity(reference_run, monkeypatch):
    bench = reference_run["dir"]
    monkeypatch.chdir(bench)
    mapping = read_mapping(bench / "bench_mapping.json")
    harvested = list(harvest(mapping, "results_{sim_id}.txt"))
    assert [issue for _, _, _, issue in harvested] == [None] * 300
    values = {sim_id: value for sim_id, _, value, _ in harvested}
    betas = linspace(2, 4, 3)
    sigmas = linspace(2, 20, 10)
    rhos = linspace(2, 30, 10)
    assert mapping.coords == {"beta": tuple(betas), "sigma": tuple(sigmas), "rho": tuple(rhos)}
    for i, beta in enumerate(betas):
        for j, sigma in enumerate(sigmas):
            for k, rho in enumerate(rhos):
                expected = beta + sigma + rho  # oracle straight from the coordinates
                got = values[mapping.sim_ids[mapping.flat_index((i, j, k))]]
                assert got == expected, (i, j, k, got, expected)


# ---------------------------------------------------------------------------
# criterion 5: bijection and serialization round-trip


def _random_sweep(rng: random.Random):
    kind = rng.choice(["cartesian", "filtered", "set", "random"])
    if kind == "cartesian":
        return CartesianSweep(
            {
                name: rng.sample(range(40), rng.randint(1, 4))
                for name in ["x", "y", "z"][: rng.randint(1, 3)]
            }
        )
    if kind == "filtered":
        values = sorted(rng.sample(range(12), 3))
        return FilteredCartesianSweep({"x": values, "y": values}, filter="x >= y")
    if kind == "set":
        pairs = rng.sample(range(1000), rng.randint(1, 6))
        return SetSweep([{"a": p, "b": round(p * 0.125, 4)} for p in pairs])
    return RandomSweep(
        count=rng.randint(1, 8),
        distributions={
            "u": Uniform(-2, 7),
            "v": rng.choice([Normal(0, 2), LogUniform(0.01, 100)]),
            "k": IntegerUniform(0, 10**9),
            "c": Choice(["p", "q", "r"]),
        },
        seed=rng.randint(0, 2**63),
    )


@criterion(5, "lookup bijection and exact serialize/deserialize for 100 randomized sweeps")
def test_criterion_5_mapping_bijection_and_round_trip():
    rng = random.Random(50505)
    for _ in range(100):
        sweep = _random_sweep(rng)
        sets = list(sweep.iter_sets())
        mapping = build_mapping(sweep, sweep_name="prop")
        for params in sets:
            round_tripped = mapping.lookup_by_id(mapping.lookup_by_params(params))
            assert list(round_tripped) == list(params)
            assert all(values_equal(round_tripped[k], params[k]) for k in params)
        text = serialize(mapping)
        back = deserialize(text)
        assert back == mapping
        assert serialize(back) == text
        for (id_a, set_a), (id_b, set_b) in zip(mapping.items(), back.items()):
            assert id_a == id_b
            assert all(values_equal(set_a[k], set_b[k]) for k in set_a)


# ---------------------------------------------------------------------------
# criterion 6: concurrency bound


@criterion(6, "pool high-water <= max_parallel over 20 trials each of 1/2/4; serial wall >= 3.2 s")
def test_criterion_6_concurrency_bound(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    script = write_stub_model(tmp_path)
    command = stub_command(script)
    for i in range(16):
        (tmp_path / f"params_{i:02d}.nml").write_text(f"v = {i}\n", encoding="utf-8")
    jobs = [
        JobSpec(sim_id=f"{i:02d}", command=command.replace("{sim_id}", f"{i:02d}"), workdir=tmp_path)
        for i in range(16)
    ]
    monkeypatch.setenv("STUB_SLEEP", "0.2")
    for max_parallel in (1, 2, 4):
        for trial in range(20):
            counter = tmp_path / f"counter_{max_parallel}_{trial}"
            counter.mkdir()
            monkeypatch.setenv("STUB_COUNTER_DIR", str(counter))
            started = time.monotonic()
            records = []
            dispatch_all(jobs, DispatcherConfig(kind="local", max_parallel=max_parallel), records.append)
            elapsed = time.monotonic() - started
            assert all(r.succeeded for r in records)
            high = read_high_water(counter)
            assert high <= max_parallel, (max_parallel, trial, high)
            if max_parallel == 1:
                assert elapsed >= 3.2, (trial, elapsed)


# ---------------------------------------------------------------------------
# criterion 7: random-sweep statistics and reproducibility


@criterion(7, "uniform mean within 11 +/- 0.3; legal discrete values; byte-identical replay")
def test_criterion_7_random_sweep_statistics():
    sweep = RandomSweep(count=10_000, distributions={"x": Uniform(2, 20)}, seed=777)
    samples = [s["x"] for s in sweep.iter_sets()]
    mean = sum(samples) / len(samples)
    assert abs(mean - 11.0) < 0.3  # 5 standard errors of Uniform(2,20)/sqrt(10000)
    assert all(2 <= x < 20 for x in samples)

    discrete = RandomSweep(
        count=2_000,
        distributions={"n": IntegerUniform(-2, 3), "c": Choice(["a", "b", 4, 2.5])},
        seed=778,
    )
    sets = list(discrete.iter_sets())
    assert all(isinstance(s["n"], int) and -2 <= s["n"] <= 3 for s in sets)
    assert all(any(values_equal(s["c"], o) for o in ("a", "b", 4, 2.5)) for s in sets)

    def run_once():
        sweep = RandomSweep(
            count=200,
            distributions={
                "x": Uniform(2, 20),
                "n": IntegerUniform(1, 10),
                "m": Normal(0, 1),
                "s": Choice(["a", "b"]),
                "r": LogUniform(0.001, 1),
            },
            seed=20_26,
        )
        return serialize(build_mapping(sweep, sweep_name="replay"))

    assert run_once().encode("utf-8") == run_once().encode("utf-8")


# ---------------------------------------------------------------------------
# criterion 8: scheduler dry-run golden scripts


@criterion(8, "slurm/pbs dry-run scripts are byte-exact for 3 jobs and nothing is executed")
def test_criterion_8_scheduler_dry_run_golden(tmp_path):
    jobs = [
        JobSpec(sim_id=f"{i:03d}", command=f"./model {i:03d}", workdir=tmp_path)
        for i in range(3)
    ]
    marker = tmp_path / "submit_was_executed"
    booby_trap = f"touch {marker}"
    for kind, header in (("slurm", "#SBATCH"), ("pbs", "#PBS")):
        config = DispatcherConfig(
            kind=kind,
            submit_command=booby_trap,
            sweep_name="golden",
            dry_run=True,
            scheduler_directives=("--time=00:10:00",) if kind == "slurm" else (),
        )
        records = []
        dispatch_all(jobs, config, records.append)
        assert [r.status for r in records] == ["dry_run"] * 3
        for i in range(3):
            tag = f"golden_{i:03d}"
            script = (tmp_path / f"{tag}.sh").read_bytes()
            if kind == "slurm":
                expected = (
                    "#!/bin/sh\n"
                    f"#SBATCH --job-name={tag}\n"
                    f"#SBATCH --output={tag}.out\n"
                    "#SBATCH --time=00:10:00\n"
                    "\n"
                    f"./model {i:03d}\n"
                )
            else:
                expected = (
                    "#!/bin/sh\n"
                    f"#PBS -N {tag}\n"
                    f"#PBS -o {tag}.out\n"
                    "\n"
                    'cd "${PBS_O_WORKDIR:-.}" || exit\n'
                    f"./model {i:03d}\n"
                )
            assert script == expected.encode("utf-8")
    assert not marker.exists()  # the submit command never ran


# ---------------------------------------------------------------------------
# criterion 9: failure isolation through the CLI


@criterion(9, "middle job failing: 3 records, exit code 3, both successes present")
def test_criterion_9_failure_isolation(workdir):
    (workdir / "job.sh").write_text(
        "#!/bin/sh\n"
        'if [ "$2" -ne 0 ]; then exit "$2"; fi\n'
        'echo "0.5" > "results_$1.txt"\n',
        encoding="utf-8",
    )
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "set", "sets": [{"code": 0, "k": 1}, {"code": 1, "k": 2}, {"code": 0, "k": 3}]}),
        encoding="utf-8",
    )
    (workdir / "template.txt").write_text("code = {code}\nk = {k}\n", encoding="utf-8")
    exit_code = main(
        [
            "run",
            "--command", "sh job.sh {sim_id} {code}",
            "--config", "conf_{sim_id}.txt",
            "--template", "template.txt",
            "--sweep-file", "sweep.json",
            "--name", "isolate",
        ]
    )
    assert exit_code == 3
    summary = json.loads((workdir / "isolate_summary.json").read_text())
    assert summary["counts"]["total"] == 3
    assert summary["counts"]["succeeded"] == 2
    assert summary["counts"]["failed"] == 1
    assert [j["exit_code"] for j in summary["jobs"]] == [0, 1, 0]
    assert (workdir / "results_0.txt").read_text().strip() == "0.5"
    assert (workdir / "results_2.txt").read_text().strip() == "0.5"
    assert not (workdir / "results_1.txt").exists()
