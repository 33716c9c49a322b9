"""`run` stops with a same-file error, before it writes anything, exactly when
two of the files it would write are one file: found here by brute force,
rendering every planned path of every simulation and comparing their
os.path.abspath strings."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sweeprun.cli import main

TOKENS = ["a", "_", ".sh", ".out", "/", "..", "{sim_id}", "{p}"]
P_VALUES = ["a", "q"]
N_VALUES = [1, 2]
SIM_IDS = "0123"  # one per cell of P_VALUES x N_VALUES, row-major
DEPTH = 3  # the run's directory lies this deep, out of reach of any pattern's '..'
DISPATCHERS = {
    "dry": ["--dispatcher", "dry"],
    "slurm": ["--dispatcher", "slurm", "--dry-run"],
    "capture": ["--capture", "--max-parallel", "1"],
}

# a pattern holds {sim_id} at least once, which a later '..' may cancel
parts = st.lists(st.sampled_from(TOKENS), max_size=DEPTH).map("".join)
patterns = st.tuples(parts, parts).map("{sim_id}".join).filter(lambda pattern: not pattern.startswith("/"))


def planned_paths(configs: list[str], name: str, mapping_out: str | None, dispatcher: str) -> list[str]:
    paths = []
    for sim_id, (p, _n) in zip(SIM_IDS, itertools.product(P_VALUES, N_VALUES)):
        paths += [config.replace("{sim_id}", sim_id).replace("{p}", p) for config in configs]
        if dispatcher == "slurm":
            paths += [f"{name}_{sim_id}.sh", f"{name}_{sim_id}.out"]
        if dispatcher == "capture":
            paths += [f"{name}_{sim_id}.out", f"{name}_{sim_id}.err"]
    return paths + [mapping_out or f"{name}_mapping.json", f"{name}_summary.json"]


@settings(deadline=None, max_examples=150)
@given(
    configs=st.lists(patterns, min_size=1, max_size=2),
    name=st.sampled_from(["q", "a", "a_"]),
    mapping_out=st.sampled_from([None, "a_0.sh", "q_1.out", "a_1", "a_summary.json", "x/../a_2"]),
    dispatcher=st.sampled_from(list(DISPATCHERS)),
    overwrite=st.booleans(),
)
def test_same_file_error_exactly_when_two_planned_paths_are_one_file(
    configs, name, mapping_out, dispatcher, overwrite
):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as base:
        inputs = Path(base)
        (inputs / "sweep.json").write_text(
            json.dumps({"type": "cartesian", "parameters": {"p": P_VALUES, "n": N_VALUES}}), encoding="utf-8"
        )
        (inputs / "template.txt").write_text("p={p} n={n}\n", encoding="utf-8")
        run_dir = inputs.joinpath(*["d"] * DEPTH)
        run_dir.mkdir(parents=True)
        argv = [
            "run", "--command", "true {sim_id}", "--sweep-file", str(inputs / "sweep.json"),
            "--name", name, *DISPATCHERS[dispatcher], *["--overwrite"] * overwrite,
        ]
        for config in configs:
            argv += ["--config", config, "--template", str(inputs / "template.txt")]
        if mapping_out:
            argv += ["--mapping-out", mapping_out]
        os.chdir(run_dir)
        try:
            paths = [os.path.abspath(path) for path in planned_paths(configs, name, mapping_out, dispatcher)]
            before = sorted(inputs.rglob("*"))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            after = sorted(inputs.rglob("*"))
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    clash = len(set(paths)) < len(paths)
    same_file = code == 1 and ("same file" in err or "is also the" in err)
    assert same_file == clash, (argv, err)
    if clash:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert after == before
