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

# modules whose patch points are gone on purpose, with the reason
GONE = {
    "sweeprun.naming": "deleted: build_mapping numbers the simulations, "
    "so ID formatting is counted in mapping.build_mapping",
}

# spans that `sweeprun collect` does not open: it writes the CSV row by row
# through collect.write_results, not through collect_scalars and export_csv
NOT_ON_THE_CLI = {"collect.collect_scalars", "collect.export_csv"}


def load_trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    trace_cli = load_trace_cli()
    unresolved = {
        module for module, path, _span in trace_cli.FUNCTION_SPANS if trace_cli._resolve(module, path) is None
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
        assert {point.split(":")[0] for point in report["absent"]} == set(GONE)
        for span, layer in report["layers"].items():
            opened[span] = opened.get(span, 0) + layer["calls"]
    trace_cli = load_trace_cli()
    gone = {span for module, _path, span in trace_cli.FUNCTION_SPANS if module in GONE}
    expected = {span for _module, _path, span in trace_cli.FUNCTION_SPANS} - gone - NOT_ON_THE_CLI
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
