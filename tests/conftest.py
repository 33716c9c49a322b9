"""Shared fixtures: an isolated working directory, the stub model, and a check that no test leaves a thread running."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sweeprun
from stubmodel import stub_command, write_stub_model

# the directory that holds the sweeprun package under test
SOURCE_ROOT = Path(sweeprun.__file__).resolve().parents[1]

# namelist-style template plus its hard-coded original, used by golden tests
NAMELIST_TEMPLATE = "&params\nbeta = {beta},\nsigma = {sigma},\nrho = {rho}\n/\n"
NAMELIST_ORIGINAL = "&params\nbeta = 2.67,\nsigma = 10,\nrho = 28\n/\n"

# the reference desk-scale grid: 3 x 10 x 10 = 300 simulations
REFERENCE_GRID_SPEC = {
    "type": "cartesian",
    "parameters": {
        "beta": {"linspace": [2, 4, 3]},
        "sigma": {"linspace": [2, 20, 10]},
        "rho": {"linspace": [2, 30, 10]},
    },
}


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test after which a thread it started is still alive."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def stub(workdir) -> tuple[Path, str]:
    """Stub model script in the working directory plus its command template."""
    script = write_stub_model(workdir)
    return script, stub_command(script)


@pytest.fixture
def tiny_setup(workdir):
    """A 2x1 grid with a template; returns the common run argv prefix."""
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": [1, 2], "b": [10]}}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("a={a} b={b} id={sim_id}\n", encoding="utf-8")
    return [
        "run",
        "--command", "true {sim_id}",
        "--config", "conf_{sim_id}.txt",
        "--template", "template.txt",
        "--sweep-file", "sweep.json",
        "--name", "tiny",
    ]


def run_python(args: list[str], cwd: Path, **kwargs) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh interpreter in `cwd` that imports the
    sweeprun under test; output is captured as text unless redirected."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_ROOT), env.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs
    )
