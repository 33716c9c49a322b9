"""Each command imports only the modules it runs, checked in a fresh
interpreter: every CLI call is a new process, so what it imports is paid on
every call."""

from __future__ import annotations

import json

import pytest

from conftest import run_python
from sweeprun.cli import main

# runs `main` on the arguments after "-c", then prints the loaded modules
MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from sweeprun.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)
# one dry `run_sweep` call on tiny_setup's files from `import sweeprun`, then the loaded modules
MODULES_AFTER_RUN_SWEEP = (
    "import json, sys, sweeprun\n"
    "config = sweeprun.DispatcherConfig(kind='dry', sweep_name='tiny')\n"
    "sweep = sweeprun.load_sweep_spec('sweep.json')\n"
    "outcome = sweeprun.run_sweep(sweep, 'true {sim_id}', [('conf_{sim_id}.txt', 'template.txt')], config)\n"
    "code = 0 if outcome.counts['dry_run'] == 2 else 1\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)

NEVER_ON_COLLECT = {
    "sweeprun.dispatch", "sweeprun.filters", "sweeprun.run", "subprocess", "concurrent.futures", "shlex"
}
NEVER_ON_DRY_RUN = {"sweeprun.collect", "sweeprun.filters", "subprocess", "concurrent.futures"}


def modules_after(argv: list[str], cwd, script: str = MODULES_AFTER_MAIN) -> tuple[int, set[str]]:
    proc = run_python(["-c", script, *argv], cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


def test_import_sweeprun_loads_no_submodule(workdir):
    proc = run_python(["-c", "import json, sys, sweeprun; print(json.dumps(sorted(sys.modules)))"], workdir)
    assert proc.returncode == 0, proc.stderr
    assert [name for name in json.loads(proc.stdout) if name.startswith("sweeprun.")] == []


def test_collect_loads_neither_dispatch_nor_filters(workdir, tiny_setup, capsys):
    assert main(tiny_setup) == 0
    code, modules = modules_after(["collect", "tiny_mapping.json"], workdir)
    assert code == 4  # the outputs are absent
    assert "sweeprun.collect" in modules
    assert modules & NEVER_ON_COLLECT == set()


@pytest.mark.parametrize(
    "options", [["--dispatcher", "dry"], ["--dry-run"], ["--dispatcher", "slurm", "--dry-run"], None],
    ids=["dry", "local-dry-run", "slurm-dry-run", "run_sweep"],
)
def test_dry_run_starts_no_process_machinery(workdir, tiny_setup, options):
    if options is None:
        code, modules = modules_after([], workdir, MODULES_AFTER_RUN_SWEEP)
    else:
        code, modules = modules_after([*tiny_setup, *options], workdir)
    assert code == 0
    assert "sweeprun.dispatch" in modules
    assert modules & NEVER_ON_DRY_RUN == set()


def test_filtered_spec_loads_filters(workdir, tiny_setup):
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": [1, 2], "b": [10]}, "filter": "a > 1"}),
        encoding="utf-8",
    )
    code, modules = modules_after([*tiny_setup, "--dispatcher", "dry"], workdir)
    assert code == 0
    assert "sweeprun.filters" in modules
    assert "subprocess" not in modules


def test_local_run_loads_the_process_machinery(workdir, tiny_setup):
    """The guard sees what it must: a run that starts jobs imports them. Its
    jobs run on plain threads, with no executor."""
    code, modules = modules_after(tiny_setup, workdir)
    assert code == 0
    assert "subprocess" in modules
    assert "concurrent.futures" not in modules
