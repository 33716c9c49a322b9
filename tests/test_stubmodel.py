"""The generated stub model behaves as the end-to-end tests assume."""

from __future__ import annotations

import subprocess

import pytest

from stubmodel import read_high_water, stub_command, write_stub_model


def _run(command, sim_id, **kwargs):
    return subprocess.run(command.replace("{sim_id}", sim_id), shell=True, **kwargs)


@pytest.mark.parametrize("flavor", ["sh", "py"])
def test_sums_numeric_config_values(workdir, flavor):
    script = write_stub_model(workdir, flavor=flavor)
    command = stub_command(script)
    (workdir / "params_000.nml").write_text(
        "&params\nbeta = 2.0,\nsigma = 2.0,\nrho = 2.0\n/\n", encoding="utf-8"
    )
    proc = _run(command, "000", cwd=workdir)
    assert proc.returncode == 0
    assert (workdir / "results_000.txt").read_text().strip() == "6.0"


@pytest.mark.parametrize("flavor", ["sh", "py"])
def test_non_numeric_values_skipped(workdir, flavor):
    script = write_stub_model(workdir, flavor=flavor)
    command = stub_command(script)
    (workdir / "params_001.nml").write_text(
        "name = fast,\nx = 1.25,\ny = -0.25\n", encoding="utf-8"
    )
    _run(command, "001", cwd=workdir, check=True)
    assert (workdir / "results_001.txt").read_text().strip() == "1.0"


@pytest.mark.parametrize("flavor", ["sh", "py"])
def test_missing_config_exits_one(workdir, flavor):
    script = write_stub_model(workdir, flavor=flavor)
    command = stub_command(script)
    proc = _run(command, "999", cwd=workdir, capture_output=True)
    assert proc.returncode == 1


def test_fractional_sum_round_trips_to_float(workdir, stub):
    _script, command = stub
    (workdir / "params_002.nml").write_text(
        "a = 2.67,\nb = 5.111111111111111\n", encoding="utf-8"
    )
    _run(command, "002", cwd=workdir, check=True)
    token = (workdir / "results_002.txt").read_text().split()[0]
    assert float(token) == 2.67 + 5.111111111111111


@pytest.mark.parametrize("flavor", ["sh", "py"])
def test_concurrency_counter_tracks_parallel_instances(workdir, flavor, monkeypatch):
    script = write_stub_model(workdir, flavor=flavor)
    command = stub_command(script)
    counter = workdir / "counter"
    counter.mkdir()
    monkeypatch.setenv("STUB_COUNTER_DIR", str(counter))
    monkeypatch.setenv("STUB_SLEEP", "0.3")
    for i in range(3):
        (workdir / f"params_{i}.nml").write_text(f"v = {i}\n", encoding="utf-8")
    procs = [
        subprocess.Popen(command.replace("{sim_id}", str(i)), shell=True, cwd=workdir)
        for i in range(3)
    ]
    for proc in procs:
        assert proc.wait() == 0
    assert read_high_water(counter) == 3
    assert (counter / "count").read_text().strip() == "0"
