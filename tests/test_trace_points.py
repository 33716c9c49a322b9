"""The benchmark tracer (`bench/trace_cli.py`) measures each layer by wrapping
named functions. A patch point that sweeprun moves or stops calling leaves
its layer reading 0 or absent while the benchmark still passes, so these
tests check the tracer's patch points against the package: each one still
resolves, and a traced run and collect open the spans they should."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from conftest import run_python

TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"

# patch points that are gone on purpose, spelled "module:attribute path" as
# the tracer's "absent" list spells them, with the reason
GONE = {
    "sweeprun.naming:SequentialNamer.next_id": "deleted: build_mapping numbers the simulations, "
    "so ID formatting is counted in mapping.build_mapping",
    "sweeprun.collect:collect_scalars": "deleted",
    "sweeprun.collect:export_csv": "deleted",
    "sweeprun.sweeps:FilteredCartesianSweep.generate": "inherited: the tracer's wrapper on "
    "CartesianSweep.generate times it",
    "sweeprun.sweeps:CartesianSweep.generate": "deleted: build_mapping reads iter_sets() once",
}


def load_trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    trace_cli = load_trace_cli()
    unresolved = {
        f"{module}:{path}"
        for module, path, _span in trace_cli.FUNCTION_SPANS
        if trace_cli._resolve(module, path) is None
    }
    assert unresolved == set(GONE)


def test_a_traced_run_and_collect_open_every_span(workdir):
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": [1, 2, 3], "b": [10, 20]}, "filter": "a > 1"}),
        encoding="utf-8",
    )
    (workdir / "template.txt").write_text("a={a} b={b}\n", encoding="utf-8")
    run = ["run", "--command", "true {sim_id}", "--config", "c_{sim_id}.txt", "--template", "template.txt",
           "--sweep-file", "sweep.json"]
    commands = {
        "run": [*run, "--name", "t", "--dispatcher", "dry"],
        "collect": ["collect", "t_mapping.json"],
        # a dry run that writes batch scripts as its records are read
        "slurm": [*run, "--name", "s", "--dispatcher", "slurm", "--dry-run", "--overwrite"],
        # local jobs that start without the shell, one process each
        "local": [*run, "--name", "l", "--command", "sh -c : {sim_id}", "--overwrite"],
    }
    opened: dict[str, int] = {}
    reports = {}
    for command, argv in commands.items():
        proc = run_python([str(TRACE_CLI), f"{command}.json", "--", *argv], workdir)
        report = reports[command] = json.loads((workdir / f"{command}.json").read_text(encoding="utf-8"))
        assert report["exit_code"] == {"run": 0, "collect": 4, "slurm": 0, "local": 0}[command], proc.stderr
        assert set(report["absent"]) == set(GONE)
        for span, layer in report["layers"].items():
            opened[span] = opened.get(span, 0) + layer["calls"]
    trace_cli = load_trace_cli()
    # a span must open while any of its patch points is left
    expected = {span for module, path, span in trace_cli.FUNCTION_SPANS if f"{module}:{path}" not in GONE}
    assert {span for span in expected if not opened.get(span)} == set()
    assert opened["cli.spec_load"] == 3
    assert opened["mapping.build_mapping"] == 3
    # the tracer reads len() of the jobs dispatch_all was given, after it returns
    for command in ("run", "slurm", "local"):
        assert reports[command]["counters"]["dispatch.jobs"] == 4
    # each job's process is one span: the bench's per-job figures are read from these
    assert reports["local"]["layers"]["dispatch.job"]["calls"] == 4
    assert len(reports["local"]["job_seconds"]) == 4
    assert sorted(path.name for path in workdir.glob("s_*.sh")) == [f"s_{k}.sh" for k in range(4)]
    # a dry dispatch makes its records, and renders its jobs' commands, inside dispatch_all
    for command in ("run", "slurm"):
        layer = reports[command]["layers"]["dispatch.dispatch_all"]
        assert layer["total_s"] > layer["self_s"], layer


def test_a_helper_threads_job_is_no_child_of_another_job(workdir):
    """At two slots every job runs on a helper thread while the calling
    thread waits in dispatch_all, so no job's span holds another's and each
    job's self time is its whole time."""
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": {"a": [1, 2, 3, 4]}}), encoding="utf-8"
    )
    (workdir / "template.txt").write_text("a={a}\n", encoding="utf-8")
    argv = ["run", "--command", "sh -c 'sleep 0.1' {sim_id}", "--config", "c_{sim_id}.txt", "--template",
            "template.txt", "--sweep-file", "sweep.json", "--max-parallel", "2"]
    proc = run_python([str(TRACE_CLI), "trace.json", "--", *argv], workdir)
    report = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))
    assert report["exit_code"] == 0, proc.stderr
    job = report["layers"]["dispatch.job"]
    assert job["calls"] == 4
    assert job["self_s"] == job["total_s"]
