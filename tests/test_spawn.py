"""A local job that starts without the shell ends as it would under
``/bin/sh -c``: each command here runs once through `dispatch_all` and once
through ``subprocess.run(command, shell=True)``, and the exit code, standard
output and standard error must match. Which commands start directly is
checked too, as is the environment the job sees."""

from __future__ import annotations

import json
import subprocess

import pytest

from conftest import run_python
from sweeprun.dispatch import DispatcherConfig, JobSpec, _plain_argv, dispatch_all

ARGS_SH = 'for a in "$@"; do printf "[%s]" "$a"; done; echo\n'

# name: (command, how dispatch starts it: "direct", "shell", or "direct" then "shell")
COMMANDS = {
    "words": ("sh args.sh one two-2 x.y a=b k:v,w @%+", ["direct"]),
    "quoted": ("sh args.sh 'a b' '$HOME' '\"q\"' 'é' x'y z'", ["direct"]),
    "empty word": ("sh args.sh '' x ''", ["direct"]),
    "blanks": ("  sh\targs.sh   a \t", ["direct"]),
    "assignment": ("X=1 sh -c 'echo $X'", ["shell"]),
    "builtin": ("echo 'a\\nb'", ["shell"]),
    "quoted builtin": ("'printf' '%s\\n' x", ["shell"]),
    "list": ("sh args.sh a; sh args.sh b", ["shell"]),
    "redirection": ("sh args.sh a >&2", ["shell"]),
    "glob": ("sh args.sh *.sh", ["shell"]),
    "variable": ("sh args.sh $HOME", ["shell"]),
    "missing": ("no-such-command-xyz a", ["direct", "shell"]),
    "not executable": ("./data.txt a", ["direct", "shell"]),
    "no shebang": ("./plain.sh a 'b c'", ["direct", "shell"]),
    "exit code": ("sh -c 'exit 7'", ["direct"]),
    "SIGTERM": ("sh -c 'kill -TERM $$'", ["direct"]),
}


@pytest.fixture
def starts(workdir, monkeypatch) -> list[str]:
    """Scripts in the working directory; records how each process is started."""
    (workdir / "args.sh").write_text(ARGS_SH, encoding="utf-8")
    (workdir / "data.txt").write_text("not a program\n", encoding="utf-8")
    plain = workdir / "plain.sh"
    plain.write_text('echo "no shebang:" "$@"\necho to stderr >&2\n', encoding="utf-8")
    plain.chmod(0o755)
    seen: list[str] = []
    real_run = subprocess.run

    def run(args, **kwargs):
        seen.append("shell" if kwargs.get("shell") else "direct")
        return real_run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    return seen


def dispatched(command: str, workdir) -> tuple[int, str, str]:
    config, records = DispatcherConfig(capture=True, sweep_name="p"), []
    dispatch_all([JobSpec(sim_id="0", command=command, workdir=workdir)], config, records.append)
    [record] = records
    assert record.status == "completed"
    out, err = (workdir / "p_0.out").read_text(), (workdir / "p_0.err").read_text()
    return record.exit_code, out, err


def shelled(command: str, workdir) -> tuple[int, str, str]:
    proc = subprocess.run(command, shell=True, cwd=workdir, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_ends_as_under_the_shell(workdir, starts, name):
    command, path = COMMANDS[name]
    code, out, err = dispatched(command, workdir)
    assert starts == path
    expected_code, expected_out, expected_err = shelled(command, workdir)
    assert (code, out) == (expected_code, expected_out)
    if name == "SIGTERM":
        # the one difference: the shell's report of the death is not written
        assert (code, err, expected_err) == (143, "", "Terminated\n")
    else:
        assert err == expected_err


# in a fresh interpreter, as the CLI runs: an env dump through dispatch_all, and one through the shell
ENV_DUMPS = (
    "import json, subprocess\n"
    "from pathlib import Path\n"
    "from sweeprun.dispatch import DispatcherConfig, JobSpec, dispatch_all\n"
    "records = []\n"
    "dispatch_all([JobSpec('0', 'env', Path.cwd())], DispatcherConfig(capture=True, sweep_name='p'), records.append)\n"
    "[record] = records\n"
    "shell = subprocess.run('env', shell=True, capture_output=True, text=True).stdout\n"
    "print(json.dumps([record.exit_code, Path('p_0.out').read_text(), shell]))\n"
)


@pytest.mark.parametrize("pwd", [None, "link", "/"], ids=["unset", "through a symlink", "another directory"])
def test_the_environment_is_the_shells(workdir, monkeypatch, pwd):
    (workdir / "link").symlink_to(workdir, target_is_directory=True)
    if pwd is None:
        monkeypatch.delenv("PWD", raising=False)
    else:
        monkeypatch.setenv("PWD", str(workdir / pwd) if pwd == "link" else pwd)
    assert _plain_argv("env") == ["env"]
    proc = run_python(["-c", ENV_DUMPS], workdir)
    assert proc.returncode == 0, proc.stderr
    code, dispatched_env, shell_env = json.loads(proc.stdout)
    assert code == 0
    assert sorted(dispatched_env.splitlines()) == sorted(shell_env.splitlines())
    expected_pwd = workdir / "link" if pwd == "link" else workdir.resolve()
    assert f"PWD={expected_pwd}" in dispatched_env.splitlines()


@pytest.mark.parametrize("variable", ["BASH_FUNC_sh%%", "PATH"])
def test_an_environment_that_keeps_every_command_in_the_shell(workdir, starts, monkeypatch, variable):
    """An exported bash function, which bash as sh would import, or no PATH,
    which the shell replaces by a default list of its own."""
    if variable == "PATH":
        monkeypatch.delenv("PATH")
    else:
        monkeypatch.setenv(variable, "() { echo not sh; }")
    assert dispatched("sh args.sh a", workdir) == (0, "[a]\n", "")
    assert starts == ["shell"]


def test_a_submit_command_starts_directly(workdir, starts):
    (workdir / "submit.sh").write_text('echo "Submitted batch job 7$#"\n', encoding="utf-8")
    config, records = DispatcherConfig(kind="slurm", submit_command="sh submit.sh", sweep_name="p"), []
    dispatch_all([JobSpec(sim_id="0", command="true", workdir=workdir)], config, records.append)
    [record] = records
    assert (record.status, record.scheduler_job_id) == ("submitted", "71")
    assert starts == ["direct"]
