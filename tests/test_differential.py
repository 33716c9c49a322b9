"""`sweeprun run` and `sweeprun collect`, end to end, against a reference
that predicts what they leave behind: every file, the summary (apart from
its timestamps, durations and scheduler job IDs), the status lines and the
exit code. The reference imports nothing from sweeprun; it spells simulation
IDs, values, configs, the mapping, batch scripts, the summary, the CSV and
the collect report from their documented formats. Each drawn case runs
twice in one directory, the second time with or without --overwrite, so the
conflict check is compared as well; a case that left a mapping is then
collected. Cases draw --strict, a submit command that fails at a drawn job,
and a command that starts with or without the shell. A drawn flag sends a
case through one `run_sweep` call instead of `main`; its outcome, mapped to
an exit code as `main` maps it, and its files are checked against the same
reference, and its status lines are not. One fixed case always runs a local
`sh job.sh` command, which starts without the shell, on values that need
quoting, and another a local grid whose twelve jobs all fail, so standard
error lists the first five and counts the rest."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
import shlex
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweeprun import DispatcherConfig, load_sweep_spec, run_sweep
from sweeprun.cli import main
from sweeprun.errors import SchedulerError, SweepRunError

NAME = "q"
SUMMARY = f"{NAME}_summary.json"
SUBMIT = "echo Submitted batch job 7 for"  # the script path follows
PATTERNS = ["c_{sim_id}.txt", "d_{sim_id}/in.nml", "cfg/{n}_{sim_id}.txt", "{s}-{sim_id}.cfg"]
DISPATCHERS = {
    "dry": ["--dispatcher", "dry"],
    "local": ["--max-parallel", "2"],
    "local-dry": ["--dry-run"],
    "slurm": ["--dispatcher", "slurm", "--submit-command", SUBMIT],
    "slurm-dry": ["--dispatcher", "slurm", "--dry-run"],
    "slurm-fail": ["--dispatcher", "slurm", "--submit-command", "sh submit.sh"],
}
# the DispatcherConfig fields that each entry of DISPATCHERS sets
CONFIGS = {
    "dry": {"kind": "dry"},
    "local": {"max_parallel": 2},
    "local-dry": {"dry_run": True},
    "slurm": {"kind": "slurm", "submit_command": SUBMIT},
    "slurm-dry": {"kind": "slurm", "dry_run": True},
    "slurm-fail": {"kind": "slurm", "submit_command": "sh submit.sh"},
}
SUMMARY_VOLATILE = ("started_at", "finished_at", "duration", "scheduler_job_id")

REALS = [0.5, 2.0, -3.25, 1e-07, 1e16, 0.1]
TEXT = st.text("ab _-'\"$é", min_size=1, max_size=3)


# ---------------------------------------------------------------------------
# the reference


def spell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def sim_ids(total: int) -> list[str]:
    return [str(k).zfill(len(str(total - 1))) for k in range(total)]


def submit_script(sim_id: str) -> str:
    """A submit command's script that fails on the batch script of `sim_id`."""
    return f'case "$1" in */{NAME}_{sim_id}.sh) echo queue full >&2; exit 1;; esac\necho Submitted batch job 7\n'


def command_for(names: list[str], form: str) -> str:
    """Writes the values it is given to a file, prints the ID, and fails when n
    is odd: inline, or as `sh job.sh <values> <sim_id>`, which starts without
    the shell unless a value holds a "'"."""
    values = " ".join(f"{{{name}}}" for name in names)
    if form == "script":
        return f"sh job.sh {values} {{sim_id}}"
    return f"printf '%s\\n' {values} > r_{{sim_id}}.txt; echo {{sim_id}}; exit $(( {{n}} % 2 ))"


# job.sh for the "script" form; n is the first value, the sim_id the last argument
JOB_SH = """for id; do :; done
: > "r_$id.txt"
n=$1
while [ $# -gt 1 ]; do printf '%s\\n' "$1" >> "r_$id.txt"; shift; done
echo "$id"
exit $((n % 2))
"""


def render(pattern: str, params: dict, sim_id: str, text=str) -> str:
    for name, value in params.items():
        pattern = pattern.replace(f"{{{name}}}", text(spell(value)))
    return pattern.replace("{sim_id}", sim_id)


def template(k: int, used: list[str]) -> str:
    """The source of the k-th template, which fills the parameters in `used`."""
    fields = "".join(f"{name} = {{{name}}}\n" for name in used)
    return f"# template {k}\n{fields}id = {{sim_id}}\nliteral {{{{braces}}}}\n"


def config(source: str, params: dict, sim_id: str) -> str:
    return render(source, params, sim_id).replace("{{", "{").replace("}}", "}")


def expected_run(case, files: dict[str, bytes], overwrite: bool):
    """(exit code, files after the run but the summary, the summary normalized
    or None if it is not written, stdout, stderr)."""
    sets, coords = case["sets"], case["coords"]
    if not sets:
        grid = len(list(itertools.product(*coords.values())))
        return 1, files, None, "", f"error: filter rejected all {grid} parameter sets; nothing to run\n"
    names, kind = list(sets[0]), case["dispatcher"]
    ids = sim_ids(len(sets))
    mapping_path = case["mapping_out"] or f"{NAME}_mapping.json"
    err = ""
    unused = [name for name in names if not any(name in used for used in case["used"])]
    if unused and case["strict"]:
        return 1, files, None, "", f"error: parameter(s) not used by any template: {', '.join(unused)}\n"
    if unused:
        err += f"warning: parameter(s) not used by any template: {', '.join(unused)}\n"
    writes: dict[str, bytes] = {}
    per_sim: list[list[str]] = []  # each simulation's files in the order the conflict check lists them
    for sim_id, params in zip(ids, sets):
        mine = []
        for k, (pattern, used) in enumerate(zip(case["configs"], case["used"])):
            path = render(pattern, params, sim_id)
            writes[path] = config(template(k, used), params, sim_id).encode()
            mine.append(path)
        per_sim.append(mine)
    command = command_for(names, case["command"])
    fail_at = case["fail_at"] if kind == "slurm-fail" else len(ids)  # the job whose submit fails; those before it are submitted
    jobs = []
    for sim_id, params, mine in zip(ids, sets, per_sim):
        job = {"sim_id": sim_id, "command": render(command, params, sim_id, shlex.quote)}
        if kind.startswith("slurm"):
            script = f"#!/bin/sh\n#SBATCH --job-name={NAME}_{sim_id}\n#SBATCH --output={NAME}_{sim_id}.out\n\n"
            if len(jobs) <= fail_at:
                writes[f"{NAME}_{sim_id}.sh"] = f"{script}{job['command']}\n".encode()
            mine += [f"{NAME}_{sim_id}.sh", f"{NAME}_{sim_id}.out"]
        if kind == "local":
            writes[f"r_{sim_id}.txt"] = "".join(f"{spell(v)}\n" for v in params.values()).encode()
            job.update(status="completed", exit_code=params["n"] % 2)
            if case["capture"]:
                writes.update({f"{NAME}_{sim_id}.out": f"{sim_id}\n".encode(), f"{NAME}_{sim_id}.err": b""})
                mine += [f"{NAME}_{sim_id}.out", f"{NAME}_{sim_id}.err"]
        else:
            job["status"] = "dry_run" if kind.endswith("dry") else "submitted"
        jobs.append(job)
    jobs = jobs[:fail_at]
    fixed = [mapping_path, SUMMARY]
    existing = [path for path in itertools.chain(*per_sim, fixed) if path in files]
    if existing and not overwrite:
        more = f" (and {len(existing) - 10} more)" if len(existing) > 10 else ""
        listing = ", ".join(existing[:10])
        err += f"error: refusing to overwrite existing files: {listing}{more}; pass --overwrite to replace them\n"
        return 1, files, None, "", err

    writes[mapping_path] = mapping_text(case, ids).encode()
    failed = [job for job in jobs if job.get("exit_code")]
    counts = {
        "total": len(jobs),
        "succeeded": sum(job.get("exit_code") == 0 for job in jobs),
        "failed": len(failed),
        "submitted": sum(job["status"] == "submitted" for job in jobs),
        "dry_run": sum(job["status"] == "dry_run" for job in jobs),
    }
    summary = {"schema": "sweep-summary/1", "sweep_name": NAME, "dispatcher": kind.split("-")[0]}
    summary.update(counts=counts, jobs=jobs)
    out = f"wrote {len(ids) * len(case['configs'])} config file(s) and mapping {mapping_path}\n"
    if kind == "slurm-fail":
        err += f"summary of {len(jobs)} submitted job(s) written to {SUMMARY}\n"
        err += f"error: submission failed for simulation {ids[fail_at]!r}: 'sh submit.sh' exited with 1: queue full\n"
        return 2, {**files, **writes}, summary, out, err
    if counts["dry_run"]:
        out += f"dry run: {len(jobs)} job(s) not executed\n"
    elif counts["submitted"]:
        out += f"submitted {len(jobs)} job(s) via {SUBMIT}\n"
    else:
        out += f"ran {len(jobs)} job(s): {counts['succeeded']} succeeded, {len(failed)} failed\n"
        err += "".join(f"  failed: {job['sim_id']} (exit code {job['exit_code']})\n" for job in failed[:5])
        if len(failed) > 5:
            err += f"  ... and {len(failed) - 5} more, see {SUMMARY}\n"
    out += f"summary written to {SUMMARY}\n"
    return (3 if failed else 0), {**files, **writes}, summary, out, err


def expected_collect(case, files: dict[str, bytes]):
    """(exit code, files after `collect <mapping_path> --output-pattern
    r_{sim_id}.txt`, stdout, stderr). Each output holds the values of its
    simulation one a line, n first, when a local job wrote it."""
    sets = case["sets"]
    csv_text, report = io.StringIO(), {"schema": "sweep-collect-report/1", "sweep_name": NAME, "total": len(sets)}
    writer = csv.writer(csv_text, lineterminator="\n")
    writer.writerow([*sets[0], "value"])
    missing = []
    for sim_id, params in zip(sim_ids(len(sets)), sets):
        output = files.get(f"r_{sim_id}.txt")
        if output is None:
            missing.append({"sim_id": sim_id, "path": f"r_{sim_id}.txt", "reason": "cannot read output: No such file or directory"})
        writer.writerow([*map(spell, params.values()), "" if output is None else spell(float(output.split()[0]))])
    report.update(collected=len(sets) - len(missing), missing=missing)
    csv_path, report_path = f"{NAME}_results.csv", f"{NAME}_collect_report.json"
    files = {**files, csv_path: csv_text.getvalue().encode(), report_path: (json.dumps(report, indent=2) + "\n").encode()}
    out = f"collected {report['collected']}/{len(sets)} value(s) into {csv_path}\n"
    if not missing:
        return 0, files, out + f"report written to {report_path}\n", ""
    err = "".join(f"  missing {m['sim_id']}: {m['reason']} ({m['path']})\n" for m in missing[:5])
    if len(missing) > 5:
        err += f"  ... and {len(missing) - 5} more, see {report_path}\n"
    return 4, files, out, err + f"report written to {report_path}\n"


def mapping_text(case, ids: list[str]) -> str:
    if case["coords"] is not None and "filter" not in case["spec"]:
        coords = case["coords"]
        doc = {"schema": "sweep-mapping/1", "kind": "cartesian", "sweep_name": NAME, "dims": list(coords)}
        doc.update(coords=coords, shape=[len(v) for v in coords.values()], sim_ids=ids)
    else:
        doc = {"schema": "sweep-mapping/1", "kind": "association", "sweep_name": NAME}
        doc.update(parameter_names=list(case["sets"][0]), assignments=dict(zip(ids, case["sets"])))
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# drawn cases


@st.composite
def sweeps(draw) -> dict:
    """A sweep spec, the parameter sets it runs in order, and its grid if it has one."""
    kind = draw(st.sampled_from(["cartesian", "filtered", "set", "random"]))
    has_x, has_s = draw(st.booleans()), draw(st.booleans())
    if kind in ("cartesian", "filtered"):
        coords = {"n": draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))}
        if has_x:
            coords["x"] = draw(st.lists(st.sampled_from(REALS), min_size=1, max_size=3, unique=True))
        if has_s:
            coords["s"] = draw(st.lists(TEXT, min_size=1, max_size=2, unique=True))
        sets = [dict(zip(coords, cell)) for cell in itertools.product(*coords.values())]
        spec = {"type": "cartesian", "parameters": coords}
        if kind == "filtered":
            least = draw(st.integers(0, 10))
            spec["filter"] = f"n >= {least}"
            sets = [params for params in sets if params["n"] >= least]
        return {"spec": spec, "sets": sets, "coords": coords}
    if kind == "set":
        rows = draw(st.lists(st.tuples(st.integers(0, 9), st.sampled_from(REALS), TEXT), min_size=1, max_size=6, unique=True))
        sets = [{"n": n, **({"x": x} if has_x else {}), **({"s": s} if has_s else {})} for n, x, s in rows]
        sets = list({json.dumps(params): params for params in sets}.values())  # a set sweep repeats no set
        return {"spec": {"type": "set", "sets": sets}, "sets": sets, "coords": None}
    count, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**32))
    options = draw(st.lists(TEXT, min_size=1, max_size=3))
    distributions = {"n": {"int_uniform": [0, 9]}}
    if has_x:
        distributions["x"] = {"uniform": [-1, 1]}
    if has_s:
        distributions["s"] = {"choice": options}
    rng, sets = random.Random(seed), []
    for _ in range(count):
        # the documented transforms; none reaches its upper bound, as random() < 1
        params = {"n": int(rng.random() * 10)}
        if has_x:
            params["x"] = -1.0 + 2.0 * rng.random()
        if has_s:
            params["s"] = options[int(rng.random() * len(options))]
        sets.append(params)
    spec = {"type": "random", "count": count, "seed": seed, "distributions": distributions}
    return {"spec": spec, "sets": sets, "coords": None}


@st.composite
def cases(draw) -> dict:
    case = draw(sweeps())
    names = list(case["sets"][0] if case["sets"] else case["coords"])
    usable = [pattern for pattern in PATTERNS if "{s}" not in pattern or "s" in names]
    case["configs"] = draw(st.lists(st.sampled_from(usable), min_size=1, max_size=2, unique=True))
    case["used"] = [draw(st.lists(st.sampled_from(names), unique=True)) for _ in case["configs"]]
    case["dispatcher"] = draw(st.sampled_from(list(DISPATCHERS)))
    case["fail_at"] = draw(st.integers(0, max(len(case["sets"]) - 1, 0)))
    case["strict"] = draw(st.booleans())
    case["capture"] = draw(st.booleans())
    case["command"] = draw(st.sampled_from(["inline", "script"]))
    case["mapping_out"] = draw(st.sampled_from([None, "m.json", "out/m.json"]))
    case["second"] = draw(st.sampled_from(["again", "overwrite"]))
    case["through"] = draw(st.sampled_from(["main", "run_sweep"]))
    return case


def tree() -> dict[str, bytes]:
    return {path.as_posix(): path.read_bytes() for path in Path().rglob("*") if path.is_file()}


def normalized(summary: dict) -> dict:
    jobs = [{k: v for k, v in job.items() if k not in SUMMARY_VOLATILE} for job in summary["jobs"]]
    return {**summary, "jobs": jobs}


def run(argv: list[str]) -> tuple[int, str, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def through_run_sweep(case, command: str, overwrite: bool) -> int:
    """One `run_sweep` call on the files `main` reads; the exit code `main`
    maps its outcome to."""
    config = DispatcherConfig(sweep_name=NAME, capture=case["capture"], **CONFIGS[case["dispatcher"]])
    configs = [(pattern, f"t{k}.txt") for k, pattern in enumerate(case["configs"])]
    try:
        outcome = run_sweep(
            load_sweep_spec("sweep.json"), command, configs, config, mapping_out=case["mapping_out"],
            overwrite=overwrite, strict=case["strict"], warn=lambda message: None,
        )
    except SchedulerError:
        return 2
    except SweepRunError:
        return 1
    return 3 if outcome.failed else 0


# a local `sh job.sh` run, which starts without the shell, on values that need quoting
QUOTED_SETS = [{"n": 1, "s": "a b"}, {"n": 2, "s": '"$é'}]
QUOTED_SCRIPT_CASE = {
    "spec": {"type": "set", "sets": QUOTED_SETS}, "sets": QUOTED_SETS, "coords": None,
    "configs": ["c_{sim_id}.txt"], "used": [["n", "s"]], "dispatcher": "local", "fail_at": 0,
    "strict": False, "capture": True, "command": "script", "mapping_out": None, "second": "overwrite",
    "through": "main",
}
# a local grid whose 12 jobs all fail (n is odd), so stderr lists 5 and counts the rest
FAILED_GRID = {"n": [1, 3, 5, 7], "x": [0.5, 2.0, -3.25]}
FAILED_JOBS_CASE = {
    **QUOTED_SCRIPT_CASE, "spec": {"type": "cartesian", "parameters": FAILED_GRID}, "coords": FAILED_GRID,
    "sets": [dict(zip(FAILED_GRID, cell)) for cell in itertools.product(*FAILED_GRID.values())],
    "used": [["n", "x"]], "capture": False, "command": "inline",
}
# a submit command that fails at the second job, through `run_sweep`
FAILED_SUBMIT_CASE = {
    **QUOTED_SCRIPT_CASE, "configs": ["c_{sim_id}.txt", "cfg/{n}_{sim_id}.txt"], "used": [["n"], ["s"]],
    "dispatcher": "slurm-fail", "fail_at": 1, "command": "inline", "second": "again", "through": "run_sweep",
}


@settings(deadline=None, max_examples=100)
@given(case=cases())
@example(case=QUOTED_SCRIPT_CASE)
@example(case=FAILED_SUBMIT_CASE)
@example(case=FAILED_JOBS_CASE)
@example(case={**FAILED_JOBS_CASE, "through": "run_sweep"})
def test_run_leaves_what_the_reference_predicts(case):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            Path("out").mkdir()
            Path("sweep.json").write_text(json.dumps(case["spec"]), encoding="utf-8")
            names = list(case["sets"][0] if case["sets"] else case["coords"])
            command = command_for(names, case["command"])
            argv = ["run", "--command", command, "--sweep-file", "sweep.json", "--name", NAME]
            if case["command"] == "script":
                Path("job.sh").write_text(JOB_SH, encoding="utf-8")
            for k, (pattern, used) in enumerate(zip(case["configs"], case["used"])):
                Path(f"t{k}.txt").write_text(template(k, used), encoding="utf-8")
                argv += ["--config", pattern, "--template", f"t{k}.txt"]
            argv += DISPATCHERS[case["dispatcher"]] + ["--capture"] * case["capture"] + ["--strict"] * case["strict"]
            if case["dispatcher"] == "slurm-fail" and case["sets"]:
                Path("submit.sh").write_text(submit_script(sim_ids(len(case["sets"]))[case["fail_at"]]), encoding="utf-8")
            if case["mapping_out"]:
                argv += ["--mapping-out", case["mapping_out"]]

            files = tree()
            for overwrite in (False, case["second"] == "overwrite"):
                code, files, summary, out, err = expected_run(case, files, overwrite)
                if case["through"] == "main":
                    assert run(argv + ["--overwrite"] * overwrite) == (code, out, err)
                else:
                    assert through_run_sweep(case, command, overwrite) == code
                found = tree()
                if summary is not None:
                    assert normalized(json.loads(found[SUMMARY])) == summary
                    files[SUMMARY] = found[SUMMARY]
                assert found == files
            mapping_path = case["mapping_out"] or f"{NAME}_mapping.json"
            if mapping_path in files:
                code, files, out, err = expected_collect(case, files)
                assert run(["collect", mapping_path, "--output-pattern", "r_{sim_id}.txt"]) == (code, out, err)
                assert tree() == files
        finally:
            os.chdir(cwd)
