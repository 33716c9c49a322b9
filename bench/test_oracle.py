"""The benchmark oracle catches a one-byte config change, a missing result
file, a wrong exit code and a digest that differs from the pinned one.

Run with: python3 -m pytest bench/test_oracle.py
"""

from __future__ import annotations

import sys

import pytest

from run_bench import Launcher
from workloads import Workload

TINY = Workload(
    name="tiny",
    mode="local",
    axes={"beta": (2, 4, 2), "sigma": (2, 20, 3), "rho": (2, 30, 4)},
    sweep_name="t",
)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    expected = TINY.setup(workdir, seed=1, tag="1.1")
    with Launcher() as launcher:
        run = launcher.run([sys.executable, "-m", "sweeprun.cli", *TINY.argv()], workdir)
    return workdir, expected, run.exit_code


def test_clean_run_passes(finished_run):
    workdir, expected, exit_code = finished_run
    result = TINY.check(workdir, exit_code, expected, golden=None)
    assert (result.attempted, result.failed, result.problems) == (24, 0, [])


def test_one_byte_config_change_fails_that_simulation(finished_run):
    workdir, expected, exit_code = finished_run
    config = workdir / "params_07.nml"
    original = config.read_bytes()
    config.write_bytes(original[:-2] + b"X" + original[-1:])
    try:
        result = TINY.check(workdir, exit_code, expected, golden=None)
    finally:
        config.write_bytes(original)
    assert result.failed == 1
    assert "first 07" in result.problems[-1]


def test_missing_result_file_fails_that_simulation(finished_run):
    workdir, expected, exit_code = finished_run
    results = workdir / "results_11.txt"
    original = results.read_bytes()
    results.unlink()
    try:
        result = TINY.check(workdir, exit_code, expected, golden=None)
    finally:
        results.write_bytes(original)
    assert result.failed == 1
    assert "first 11" in result.problems[-1]


def test_wrong_exit_code_fails_every_simulation(finished_run):
    workdir, expected, _exit_code = finished_run
    result = TINY.check(workdir, 3, expected, golden=None)
    assert result.failed == 24
    assert "exit code 3, expected 0" in result.problems


def test_digest_differing_from_pin_fails_every_simulation(finished_run):
    workdir, expected, exit_code = finished_run
    clean = TINY.check(workdir, exit_code, expected, golden=None)
    pinned = dict(clean.digests, mapping="0" * 64)
    result = TINY.check(workdir, exit_code, expected, golden=pinned)
    assert result.failed == 24
    assert result.problems == ["mapping digest differs from the pinned one"]
