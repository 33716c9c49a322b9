"""CLI behavior: argument validation, run pipeline, preview, collect."""

from __future__ import annotations

import errno
import json
import os
import subprocess
from pathlib import Path

import pytest

from conftest import NAMELIST_TEMPLATE, REFERENCE_GRID_SPEC
from sweeprun.cli import main
from sweeprun.spec import load_sweep_spec
from sweeprun.sweeps import Choice, IntegerUniform, LogUniform, Normal, RandomSweep, Uniform


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSweepSpecLoading:
    def test_linspace_and_explicit_values(self, workdir):
        path = write_json(
            workdir / "s.json",
            {
                "type": "cartesian",
                "parameters": {
                    "a": {"linspace": [2, 4, 3]},
                    "b": {"values": [1, "x"]},
                    "c": [5, 6],
                },
            },
        )
        sweep = load_sweep_spec(path)
        assert sweep.parameters["a"] == (2.0, 3.0, 4.0)
        assert sweep.parameters["b"] == (1, "x")
        assert sweep.parameters["c"] == (5, 6)

    def test_filter_key_makes_filtered_sweep(self, workdir):
        path = write_json(
            workdir / "s.json",
            {"type": "cartesian", "parameters": {"x": [1, 2], "y": [1, 2]}, "filter": "x > y"},
        )
        sweep = load_sweep_spec(path)
        assert sweep.generate() == [{"x": 2, "y": 1}]

    def test_set_spec(self, workdir):
        path = write_json(workdir / "s.json", {"type": "set", "sets": [{"x": 1}, {"x": 2}]})
        assert load_sweep_spec(path).generate() == [{"x": 1}, {"x": 2}]

    def test_random_spec_all_distributions(self, workdir):
        path = write_json(
            workdir / "s.json",
            {
                "type": "random",
                "count": 4,
                "seed": 42,
                "distributions": {
                    "x": {"uniform": [0, 1]},
                    "n": {"int_uniform": [1, 10]},
                    "m": {"normal": [0, 1]},
                    "s": {"choice": ["a", "b"]},
                    "r": {"log_uniform": [0.001, 1]},
                },
            },
        )
        sweep = load_sweep_spec(path)
        assert isinstance(sweep, RandomSweep)
        assert isinstance(sweep.distributions["x"], Uniform)
        assert isinstance(sweep.distributions["n"], IntegerUniform)
        assert isinstance(sweep.distributions["m"], Normal)
        assert isinstance(sweep.distributions["s"], Choice)
        assert isinstance(sweep.distributions["r"], LogUniform)
        assert len(sweep.generate()) == 4

    def test_seed_override(self, workdir):
        doc = {
            "type": "random",
            "count": 3,
            "seed": 1,
            "distributions": {"x": {"uniform": [0, 1]}},
        }
        path = write_json(workdir / "s.json", doc)
        assert load_sweep_spec(path).generate() != load_sweep_spec(path, seed_override=2).generate()

    def test_missing_seed_needs_override(self, workdir):
        doc = {"type": "random", "count": 3, "distributions": {"x": {"uniform": [0, 1]}}}
        path = write_json(workdir / "s.json", doc)
        with pytest.raises(ValueError, match="seed"):
            load_sweep_spec(path)
        assert len(load_sweep_spec(path, seed_override=7).generate()) == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "mystery"},
            {"type": "cartesian"},
            {"type": "cartesian", "parameters": {}},
            {"type": "cartesian", "parameters": {"a": {"linspace": [1, 2]}}},
            {"type": "set", "sets": []},
            {"type": "random", "count": 1, "seed": 0, "distributions": {"x": {"gamma": [1]}}},
            {"type": "random", "count": 1, "seed": 0, "distributions": {"x": {"uniform": [1]}}},
            {"type": "filtered_cartesian", "parameters": {"x": [1, 2]}, "filter": "x > 1"},
            {"type": "filtered-cartesian", "parameters": {"x": [1, 2]}, "filter": "x > 1"},
        ],
    )
    def test_bad_specs_rejected(self, workdir, doc):
        path = write_json(workdir / "s.json", doc)
        with pytest.raises(ValueError):
            load_sweep_spec(path)

    @pytest.mark.parametrize(
        "sets, first, second",
        [
            ([{"v": 1}, {"v": 2}, {"v": 1}], 0, 2),
            ([{"v": "a", "w": 0.5}, {"v": "b", "w": 0.5}, {"v": "a", "w": 0.5}], 0, 2),
            ([{"v": 3}, {"v": 0.0}, {"v": -0.0}], 1, 2),
        ],
    )
    def test_repeated_set_rejected(self, workdir, sets, first, second):
        path = write_json(workdir / "s.json", {"type": "set", "sets": sets})
        with pytest.raises(ValueError, match=f"sets {first} and {second} are the same"):
            load_sweep_spec(path)

    def test_same_number_of_another_kind_is_not_a_repeated_set(self, workdir):
        path = write_json(workdir / "s.json", {"type": "set", "sets": [{"v": 1}, {"v": 1.0}]})
        assert load_sweep_spec(path).generate() == [{"v": 1}, {"v": 1.0}]


class TestPreview:
    def test_reference_grid(self, workdir, capsys):
        write_json(workdir / "sweep.json", REFERENCE_GRID_SPEC)
        assert main(["preview", "--sweep-file", "sweep.json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cartesian, 3 parameter(s) (beta, sigma, rho), 300 simulation(s)")
        assert "000: beta=2.0, sigma=2.0, rho=2.0" in out
        assert list(workdir.iterdir()) == [workdir / "sweep.json"]  # touches no files

    def test_filtered_count(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"x": [1, 2], "y": [1, 2]}, "filter": "x > y"},
        )
        assert main(["preview", "--sweep-file", "sweep.json"]) == 0
        out = capsys.readouterr().out
        assert "1 simulation(s)" in out
        assert "x=2, y=1" in out

    def test_set_sweep_listed_verbatim(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "set", "sets": [{"x": 1, "y": 2}, {"x": 3, "y": 4}]},
        )
        assert main(["preview", "--sweep-file", "sweep.json"]) == 0
        out = capsys.readouterr().out
        assert "set, 2 parameter(s) (x, y), 2 simulation(s)" in out
        assert "0: x=1, y=2" in out
        assert "1: x=3, y=4" in out

    def test_limit(self, workdir, capsys):
        write_json(workdir / "sweep.json", REFERENCE_GRID_SPEC)
        assert main(["preview", "--sweep-file", "sweep.json", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "... 298 more" in out

    def test_repeated_set_is_an_error(self, workdir, capsys):
        write_json(workdir / "sweep.json", {"type": "set", "sets": [{"v": 1}, {"v": 1}]})
        assert main(["preview", "--sweep-file", "sweep.json"]) == 1
        assert "sets 0 and 1 are the same" in capsys.readouterr().err


class TestRunValidation:
    def test_command_without_sim_id_is_usage_error(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "true"
        assert main(argv) == 1
        assert "sim_id" in capsys.readouterr().err
        assert not list(workdir.glob("conf_*"))  # nothing written

    def test_config_without_sim_id_is_usage_error(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = "conf.txt"
        assert main(argv) == 1
        assert not list(workdir.glob("conf*"))

    def test_config_template_count_mismatch(self, workdir, tiny_setup, capsys):
        argv = tiny_setup + ["--config", "other_{sim_id}.txt"]
        assert main(argv) == 1
        assert "--template" in capsys.readouterr().err

    def test_template_with_unknown_placeholder_blocks_everything(self, workdir, tiny_setup, capsys):
        (workdir / "template.txt").write_text("a={a} oops={gamma}\n", encoding="utf-8")
        assert main(tiny_setup) == 1
        assert "gamma" in capsys.readouterr().err
        assert not list(workdir.glob("conf_*"))
        assert not (workdir / "tiny_mapping.json").exists()

    def test_filter_error_blocks_everything(self, workdir, tiny_setup, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": [1], "b": [1]}, "filter": "a >"},
        )
        assert main(tiny_setup) == 1
        assert "syntax" in capsys.readouterr().err
        assert not list(workdir.glob("conf_*"))

    def test_too_deep_filter_is_a_clean_error(self, workdir, tiny_setup, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": [1], "b": [1]}, "filter": "not " * 2000 + "a > 0"},
        )
        assert main(tiny_setup) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "deeper than 64" in err
        assert "Traceback" not in err

    def test_duplicate_cartesian_value_is_an_error(self, workdir, tiny_setup, capsys):
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": [1, 2], "b": [3, 7, 3]}})
        assert main(tiny_setup) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'b'" in err and "3" in err and "more than once" in err
        assert sorted(p.name for p in workdir.iterdir()) == sorted(["sweep.json", "template.txt"])

    def test_empty_filtered_sweep_is_an_error(self, workdir, tiny_setup, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"a": [1], "b": [1]}, "filter": "a > 99"},
        )
        assert main(tiny_setup) == 1
        assert not list(workdir.glob("conf_*"))

    def test_unused_parameter_warns_by_default(self, workdir, tiny_setup, capsys):
        (workdir / "template.txt").write_text("only a={a} {sim_id}\n", encoding="utf-8")
        assert main(tiny_setup) == 0
        assert "warning" in capsys.readouterr().err

    def test_unused_parameter_fails_under_strict(self, workdir, tiny_setup, capsys):
        (workdir / "template.txt").write_text("only a={a} {sim_id}\n", encoding="utf-8")
        assert main(tiny_setup + ["--strict"]) == 1
        assert not list(workdir.glob("conf_*"))

    def test_missing_template_file(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--template") + 1] = "nope.txt"
        assert main(argv) == 1

    @pytest.mark.parametrize("again", ["conf_{sim_id}.txt", "./conf_{sim_id}.txt"])
    def test_same_config_pattern_twice_is_an_error(self, workdir, tiny_setup, capsys, again):
        (workdir / "b.txt").write_text("b={b} {sim_id}\n", encoding="utf-8")
        assert main(tiny_setup + ["--config", again, "--template", "b.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and again in err
        assert sorted(p.name for p in workdir.iterdir()) == ["b.txt", "sweep.json", "template.txt"]

    @pytest.mark.parametrize("kind", ["set", "cartesian"])
    @pytest.mark.parametrize("value", ["../outside", "a/b", ".", "..", "nul\0byte", ""])
    def test_value_in_a_config_path_stays_in_its_directory(
        self, workdir, monkeypatch, capsys, kind, value
    ):
        run_dir = workdir / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if kind == "set":
            spec = {"type": "set", "sets": [{"v": "ok", "n": 1}, {"v": value, "n": 2}]}
        else:
            spec = {"type": "cartesian", "parameters": {"v": ["ok", value], "n": [1]}}
        write_json(run_dir / "sweep.json", spec)
        (run_dir / "template.txt").write_text("v={v} n={n}\n", encoding="utf-8")
        argv = [
            "run", "--command", "true {sim_id}", "--config", "{v}_{sim_id}.txt",
            "--template", "template.txt", "--sweep-file", "sweep.json", "--dispatcher", "dry",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'v'" in err and "--config" in err
        assert sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("*")) == [
            "run", "run/sweep.json", "run/template.txt",
        ]

    def test_empty_value_cannot_make_a_config_path_absolute(self, workdir, monkeypatch, capsys):
        run_dir, outside = workdir / "run", workdir / "outside"
        run_dir.mkdir()
        outside.mkdir()
        monkeypatch.chdir(run_dir)
        write_json(run_dir / "sweep.json", {"type": "set", "sets": [{"v": ""}]})
        (run_dir / "template.txt").write_text("v={v}\n", encoding="utf-8")
        argv = [
            "run", "--command", "true {sim_id}", "--config", "{v}" + outside.as_posix() + "/c_{sim_id}.txt",
            "--template", "template.txt", "--sweep-file", "sweep.json", "--dispatcher", "dry",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'v'" in err and "empty" in err
        assert sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("*")) == [
            "outside", "run", "run/sweep.json", "run/template.txt",
        ]

    def test_only_values_that_reach_a_config_path_are_checked(self, workdir, capsys):
        write_json(workdir / "sweep.json", {"type": "set", "sets": [{"v": "a/b", "w": "x"}]})
        (workdir / "template.txt").write_text("v={v}\n", encoding="utf-8")
        argv = [
            "run", "--command", "true {v} {sim_id}", "--config", "{w}_{sim_id}.txt",
            "--template", "template.txt", "--sweep-file", "sweep.json", "--dispatcher", "dry",
        ]
        assert main(argv) == 0
        assert (workdir / "x_0.txt").read_text(encoding="utf-8") == "v=a/b\n"

    def test_filtered_out_value_is_not_checked(self, workdir, capsys):
        write_json(
            workdir / "sweep.json",
            {"type": "cartesian", "parameters": {"v": ["ok", ".."], "n": [1]}, "filter": "v == 'ok'"},
        )
        (workdir / "template.txt").write_text("v={v} n={n}\n", encoding="utf-8")
        argv = [
            "run", "--command", "true {sim_id}", "--config", "{v}_{sim_id}.txt",
            "--template", "template.txt", "--sweep-file", "sweep.json", "--dispatcher", "dry",
        ]
        assert main(argv) == 0
        assert (workdir / "ok_0.txt").read_text(encoding="utf-8") == "v=ok n=1\n"


class TestRunPipeline:
    def test_writes_configs_mapping_summary(self, workdir, tiny_setup):
        assert main(tiny_setup) == 0
        assert (workdir / "conf_0.txt").read_text() == "a=1 b=10 id=0\n"
        assert (workdir / "conf_1.txt").read_text() == "a=2 b=10 id=1\n"
        mapping = json.loads((workdir / "tiny_mapping.json").read_text())
        assert mapping["schema"] == "sweep-mapping/1"
        assert mapping["kind"] == "cartesian"
        assert mapping["sim_ids"] == ["0", "1"]
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["schema"] == "sweep-summary/1"
        assert summary["counts"] == {
            "total": 2, "succeeded": 2, "failed": 0, "submitted": 0, "dry_run": 0,
        }
        assert [j["sim_id"] for j in summary["jobs"]] == ["0", "1"]

    def test_dry_run_writes_files_runs_nothing(self, workdir, tiny_setup):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "touch executed_{sim_id}"
        assert main(argv + ["--dry-run"]) == 0
        assert (workdir / "conf_0.txt").exists()
        assert (workdir / "tiny_mapping.json").exists()
        assert not list(workdir.glob("executed_*"))
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["counts"]["dry_run"] == 2

    def test_dry_then_real_run_produce_identical_bytes(self, workdir, tiny_setup):
        assert main(tiny_setup + ["--dry-run"]) == 0
        first = {
            p.name: p.read_bytes()
            for p in workdir.glob("conf_*")
        }
        first["mapping"] = (workdir / "tiny_mapping.json").read_bytes()
        assert main(tiny_setup + ["--overwrite"]) == 0
        assert first["mapping"] == (workdir / "tiny_mapping.json").read_bytes()
        for p in workdir.glob("conf_*"):
            assert first[p.name] == p.read_bytes()

    def test_conflict_without_overwrite(self, workdir, tiny_setup, capsys):
        (workdir / "conf_0.txt").write_text("old", encoding="utf-8")
        assert main(tiny_setup) == 1
        err = capsys.readouterr().err
        assert "conf_0.txt" in err
        assert (workdir / "conf_0.txt").read_text() == "old"  # untouched
        assert not (workdir / "tiny_mapping.json").exists()
        assert main(tiny_setup + ["--overwrite"]) == 0
        assert (workdir / "conf_0.txt").read_text() == "a=1 b=10 id=0\n"

    def test_conflict_on_a_later_config_blocks_every_write(self, workdir, tiny_setup):
        (workdir / "conf_1.txt").write_text("old", encoding="utf-8")
        assert main(tiny_setup) == 1
        assert not (workdir / "conf_0.txt").exists()
        assert (workdir / "conf_1.txt").read_text() == "old"
        assert not (workdir / "tiny_mapping.json").exists()

    def test_failing_job_gives_exit_three_with_all_records(self, workdir):
        write_json(
            workdir / "sweep.json",
            {"type": "set", "sets": [{"code": 0, "k": 1}, {"code": 1, "k": 2}, {"code": 0, "k": 3}]},
        )
        (workdir / "template.txt").write_text("code={code} k={k} {sim_id}\n", encoding="utf-8")
        assert (
            main(
                [
                    "run",
                    "--command", "exit {code} # {sim_id}",
                    "--config", "conf_{sim_id}.txt",
                    "--template", "template.txt",
                    "--sweep-file", "sweep.json",
                    "--name", "fails",
                ]
            )
            == 3
        )
        summary = json.loads((workdir / "fails_summary.json").read_text())
        assert summary["counts"] == {
            "total": 3, "succeeded": 2, "failed": 1, "submitted": 0, "dry_run": 0,
        }
        assert [j["exit_code"] for j in summary["jobs"]] == [0, 1, 0]

    def test_scheduler_dry_run_writes_scripts(self, workdir, tiny_setup):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--dry-run", "--directive=--time=00:01:00"]) == 0
        script = (workdir / "tiny_0.sh").read_text()
        assert script == (
            "#!/bin/sh\n"
            "#SBATCH --job-name=tiny_0\n"
            "#SBATCH --output=tiny_0.out\n"
            "#SBATCH --time=00:01:00\n"
            "\n"
            "./model 0\n"
        )

    def test_scheduler_submit_failure_exits_two(self, workdir, tiny_setup, capsys):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "pbs", "--submit-command", "exit 7"]) == 2

    def test_scheduler_submission_end_to_end(self, workdir, tiny_setup):
        fake = workdir / "fake_sbatch.sh"
        fake.write_text('#!/bin/sh\necho "Submitted batch job 99"\n', encoding="utf-8")
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--submit-command", f"sh {fake}"]) == 0
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["counts"]["submitted"] == 2
        assert {j["scheduler_job_id"] for j in summary["jobs"]} == {"99"}
        assert (workdir / "tiny_0.sh").exists() and (workdir / "tiny_1.sh").exists()

    def test_partial_submission_keeps_its_summary(self, workdir, tiny_setup, capsys):
        spec = {"type": "cartesian", "parameters": {"a": [1, 2, 3, 4], "b": [10]}}
        write_json(workdir / "sweep.json", spec)
        fake = workdir / "fake_sbatch.sh"
        fake.write_text(
            "#!/bin/sh\n"
            "n=$(( $(cat calls 2>/dev/null || echo 0) + 1 ))\n"
            "echo $n > calls\n"
            'if [ $n -ge 3 ]; then echo "queue full" >&2; exit 1; fi\n'
            'echo "Submitted batch job 10$n"\n',
            encoding="utf-8",
        )
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--submit-command", f"sh {fake}"]) == 2
        assert "queue full" in capsys.readouterr().err
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["counts"]["submitted"] == 2
        assert [(j["sim_id"], j["status"], j["scheduler_job_id"]) for j in summary["jobs"]] == [
            ("0", "submitted", "101"),
            ("1", "submitted", "102"),
        ]

    def test_escaped_braces_in_command(self, workdir, tiny_setup):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "echo {{sim_id}} {sim_id}"
        assert main(argv) == 0
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["jobs"][0]["command"] == "echo {sim_id} 0"
        assert summary["counts"]["succeeded"] == 2

    @pytest.mark.parametrize("dispatcher", ["local", "slurm"])
    def test_text_values_reach_the_command_as_one_word(self, workdir, dispatcher):
        values = ["a b", "x;touch injected", "it's", "$HOME `id`"]
        write_json(workdir / "sweep.json", {"type": "set", "sets": [{"v": v} for v in values]})
        (workdir / "template.txt").write_text("v={v}\n", encoding="utf-8")
        argv = [
            "run", "--command", "printf %s {v} > out_{sim_id}.txt",
            "--config", "conf_{sim_id}.txt", "--template", "template.txt",
            "--sweep-file", "sweep.json", "--name", "q", "--dispatcher", dispatcher,
        ]
        if dispatcher == "slurm":
            # the batch scripts carry the same command; run each as the scheduler would
            argv += ["--dry-run"]
        assert main(argv) == 0
        if dispatcher == "slurm":
            for sim_id in "0123":
                subprocess.run(["sh", f"q_{sim_id}.sh"], cwd=workdir, check=True)
        for sim_id, value in zip("0123", values):
            assert (workdir / f"out_{sim_id}.txt").read_text() == value
        assert not (workdir / "injected").exists()
        summary = json.loads((workdir / "q_summary.json").read_text())
        assert summary["jobs"][0]["command"] == "printf %s 'a b' > out_0.txt"

    def test_capture_flag(self, workdir, tiny_setup):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "echo ran {sim_id}"
        assert main(argv + ["--capture"]) == 0
        assert (workdir / "tiny_0.out").read_text() == "ran 0\n"

    def test_mapping_out_override(self, workdir, tiny_setup):
        assert main(tiny_setup + ["--mapping-out", "custom.json"]) == 0
        assert (workdir / "custom.json").exists()
        assert not (workdir / "tiny_mapping.json").exists()

    def test_seed_override_changes_generated_values(self, workdir):
        write_json(
            workdir / "sweep.json",
            {
                "type": "random",
                "count": 3,
                "seed": 1,
                "distributions": {"x": {"uniform": [0, 1]}},
            },
        )
        (workdir / "template.txt").write_text("x={x} {sim_id}\n", encoding="utf-8")
        argv = [
            "run",
            "--command", "true {sim_id}",
            "--config", "c{sim_id}.txt",
            "--template", "template.txt",
            "--sweep-file", "sweep.json",
            "--name", "rand",
        ]
        assert main(argv) == 0
        baseline = (workdir / "rand_mapping.json").read_bytes()
        assert main(argv + ["--overwrite"]) == 0
        assert (workdir / "rand_mapping.json").read_bytes() == baseline
        assert main(argv + ["--overwrite", "--seed", "2"]) == 0
        assert (workdir / "rand_mapping.json").read_bytes() != baseline


class TestCollectCommand:
    def _run_tiny(self, workdir, tiny_setup, stub):
        _script, command = stub
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = command
        argv[argv.index("--config") + 1] = "params_{sim_id}.nml"
        (workdir / "template.txt").write_text("a = {a},\nb = {b}\n", encoding="utf-8")
        assert main(argv) == 0

    def test_collect_round_trip(self, workdir, tiny_setup, stub, capsys):
        self._run_tiny(workdir, tiny_setup, stub)
        assert main(["collect", "tiny_mapping.json"]) == 0
        csv_text = (workdir / "tiny_results.csv").read_text()
        assert csv_text == "a,b,value\n1,10,11.0\n2,10,12.0\n"
        report = json.loads((workdir / "tiny_collect_report.json").read_text())
        assert report["schema"] == "sweep-collect-report/1"
        assert report["collected"] == 2
        assert report["missing"] == []

    def test_missing_result_exits_four_and_names_id(self, workdir, tiny_setup, stub, capsys):
        self._run_tiny(workdir, tiny_setup, stub)
        (workdir / "results_1.txt").unlink()
        assert main(["collect", "tiny_mapping.json"]) == 4
        csv_text = (workdir / "tiny_results.csv").read_text()
        assert csv_text == "a,b,value\n1,10,11.0\n2,10,\n"
        report = json.loads((workdir / "tiny_collect_report.json").read_text())
        assert [m["sim_id"] for m in report["missing"]] == ["1"]

    def test_nan_output_exits_four_with_csv_and_report(self, workdir, tiny_setup, stub, capsys):
        self._run_tiny(workdir, tiny_setup, stub)
        (workdir / "results_1.txt").write_text("nan\n", encoding="utf-8")
        assert main(["collect", "tiny_mapping.json"]) == 4
        csv_text = (workdir / "tiny_results.csv").read_text()
        assert csv_text == "a,b,value\n1,10,11.0\n2,10,\n"
        report = json.loads((workdir / "tiny_collect_report.json").read_text())
        assert report["collected"] == 1
        assert [m["sim_id"] for m in report["missing"]] == ["1"]
        assert "1: first token 'nan' is not a finite number" in capsys.readouterr().err

    def test_unknown_schema_exits_one(self, workdir, capsys):
        (workdir / "bad.json").write_text('{"schema": "other/1"}', encoding="utf-8")
        assert main(["collect", "bad.json"]) == 1

    def test_stderr_lists_only_the_first_issues(self, workdir, capsys):
        write_json(workdir / "s.json", {"type": "cartesian", "parameters": {"a": list(range(8))}})
        (workdir / "t.txt").write_text("{a}\n", encoding="utf-8")
        argv = ["run", "--command", "true {sim_id}", "--config", "c{sim_id}.txt", "--template"]
        assert main(argv + ["t.txt", "--sweep-file", "s.json", "--dispatcher", "dry"]) == 0
        capsys.readouterr()
        assert main(["collect", "sweep_mapping.json"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err[:5]] == [f"  missing {i}" for i in range(5)]
        assert err[5:] == [
            "  ... and 3 more, see sweep_collect_report.json",
            "report written to sweep_collect_report.json",
        ]
        report = json.loads((workdir / "sweep_collect_report.json").read_text())
        assert [m["sim_id"] for m in report["missing"]] == [str(i) for i in range(8)]

    @pytest.mark.parametrize(
        "change",
        [
            {"coords": {"a": [1, 1], "b": [10]}},
            {"dims": ["sim_id", "b"], "coords": {"sim_id": [1, 2], "b": [10]}},
            {"shape": [1, 2]},
        ],
        ids=["repeated-coords", "sim_id-dim", "wrong-shape"],
    )
    def test_mapping_no_sweep_could_produce_exits_one(self, workdir, tiny_setup, change, capsys):
        assert main(tiny_setup) == 0
        doc = json.loads((workdir / "tiny_mapping.json").read_text())
        write_json(workdir / "tiny_mapping.json", {**doc, **change})
        capsys.readouterr()
        assert main(["collect", "tiny_mapping.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (workdir / "tiny_results.csv").exists()

    def test_undecodable_output_exits_four_with_csv_and_report(self, workdir, capsys):
        write_json(workdir / "s.json", {"type": "cartesian", "parameters": {"a": [1, 2, 3]}})
        (workdir / "t.txt").write_text("{a}\n", encoding="utf-8")
        argv = ["run", "--command", "true {sim_id}", "--config", "c{sim_id}.txt", "--template"]
        assert main(argv + ["t.txt", "--sweep-file", "s.json", "--dispatcher", "dry"]) == 0
        (workdir / "results_0.txt").write_bytes(b"1.5\n")
        (workdir / "results_1.txt").write_bytes(b"\xff\xfe 2.0\n")
        (workdir / "results_2.txt").write_bytes(b"3.0 \xe9t\xe9")
        capsys.readouterr()
        assert main(["collect", "sweep_mapping.json"]) == 4
        assert (workdir / "sweep_results.csv").read_text(encoding="utf-8") == "a,value\n1,1.5\n2,\n3,3.0\n"
        report = (workdir / "sweep_collect_report.json").read_bytes()
        assert report.isascii()
        assert json.loads(report)["missing"] == [
            {"sim_id": "1", "path": "results_1.txt", "reason": "first token '\\udcff\\udcfe' is not a number"}
        ]
        assert "missing 1: first token '\\udcff\\udcfe' is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, named",
        [
            (["--csv-out", "tiny_mapping.json"], ("MAPPING", "--csv-out")),
            (["--report-out", "./tiny_mapping.json"], ("MAPPING", "--report-out")),
            (["--csv-out", "r.out", "--report-out", "./r.out"], ("--csv-out", "--report-out")),
            (["--csv-out", "tiny_collect_report.json"], ("--csv-out", "--report-out")),
            (["--report-out", "sub/../tiny_results.csv"], ("--csv-out", "--report-out")),
            (["--csv-out", "link.json"], ("MAPPING", "--csv-out")),
        ],
        ids=["csv-is-mapping", "report-is-mapping", "csv-is-report", "csv-is-default-report",
             "report-is-default-csv", "csv-links-to-mapping"],
    )
    def test_collect_never_writes_over_its_own_files(
        self, workdir, tiny_setup, monkeypatch, options, named, capsys
    ):
        assert main(tiny_setup) == 0
        (workdir / "sub").mkdir()
        (workdir / "link.json").symlink_to(workdir / "tiny_mapping.json")
        mapping = (workdir / "tiny_mapping.json").read_bytes()
        reads = []
        real_read_text = Path.read_text
        monkeypatch.setattr(
            Path, "read_text", lambda path, *a, **k: reads.append(path.name) or real_read_text(path, *a, **k)
        )
        capsys.readouterr()
        assert main(["collect", "tiny_mapping.json", *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in named), err
        assert reads == ["tiny_mapping.json"]  # no output was read
        assert (workdir / "tiny_mapping.json").read_bytes() == mapping
        assert sorted(p.name for p in workdir.iterdir() if p.suffix in (".csv", ".out")) == []
        assert not (workdir / "tiny_collect_report.json").exists()

    def test_mapping_at_the_default_csv_path_is_kept(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup) == 0
        (workdir / "tiny_mapping.json").rename(workdir / "tiny_results.csv")
        mapping = (workdir / "tiny_results.csv").read_bytes()
        assert main(["collect", "tiny_results.csv"]) == 1
        assert "MAPPING and --csv-out" in capsys.readouterr().err
        assert (workdir / "tiny_results.csv").read_bytes() == mapping
        assert main(["collect", "tiny_results.csv", "--csv-out", "out.csv"]) == 4
        assert (workdir / "tiny_results.csv").read_bytes() == mapping

    def test_custom_paths(self, workdir, tiny_setup, stub):
        self._run_tiny(workdir, tiny_setup, stub)
        assert (
            main(
                [
                    "collect", "tiny_mapping.json",
                    "--output-pattern", "results_{sim_id}.txt",
                    "--csv-out", "out.csv",
                    "--report-out", "report.json",
                ]
            )
            == 0
        )
        assert (workdir / "out.csv").exists()
        assert (workdir / "report.json").exists()


class TestAtomicWrites:
    """A write that dies halfway leaves the previous complete document, or none."""

    @pytest.fixture
    def fail_halfway(self, monkeypatch):
        # Path.write_text opens through Path.open, so this reaches documents
        # written whole and documents written in parts alike
        real_open = Path.open

        class HalfWriter:
            def __init__(self, file):
                self.file = file

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

        def arm(suffix):
            def open_(path, mode="r", *args, **kwargs):
                file = real_open(path, mode, *args, **kwargs)
                if "w" in mode and path.name.endswith(suffix):
                    return HalfWriter(file)
                return file

            monkeypatch.setattr(Path, "open", open_)

        return arm

    @pytest.mark.parametrize("suffix", ["_mapping.json", "_summary.json"])
    def test_run_outputs(self, workdir, tiny_setup, fail_halfway, suffix, capsys):
        target = workdir / f"tiny{suffix}"
        fail_halfway(suffix)
        assert main(tiny_setup) == 1
        assert not target.exists()
        fail_halfway("no file has this name")
        assert main([*tiny_setup, "--overwrite"]) == 0
        previous = target.read_text(encoding="utf-8")
        fail_halfway(suffix)
        assert main([*tiny_setup, "--overwrite"]) == 1
        assert target.read_text(encoding="utf-8") == previous
        json.loads(previous)
        assert not list(workdir.glob(".tmp.*"))

    @pytest.mark.parametrize("suffix", ["_results.csv", "_collect_report.json"])
    def test_collect_outputs(self, workdir, tiny_setup, fail_halfway, suffix, capsys):
        assert main(tiny_setup) == 0
        target = workdir / f"tiny{suffix}"
        fail_halfway(suffix)
        assert main(["collect", "tiny_mapping.json"]) == 1
        assert not target.exists()
        fail_halfway("no file has this name")
        assert main(["collect", "tiny_mapping.json"]) == 4
        previous = target.read_text(encoding="utf-8")
        fail_halfway(suffix)
        assert main(["collect", "tiny_mapping.json"]) == 1
        assert target.read_text(encoding="utf-8") == previous
        assert not list(workdir.glob(".tmp.*"))

    def test_symlinked_output_is_written_through_the_link(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup) == 0
        real = workdir / "kept" / "real.csv"
        real.parent.mkdir()
        real.write_text("old\n", encoding="utf-8")
        real.chmod(0o640)
        (workdir / "link.csv").symlink_to(real)
        assert main(["collect", "tiny_mapping.json", "--csv-out", "link.csv"]) == 4
        assert (workdir / "link.csv").is_symlink()
        assert real.read_text(encoding="utf-8").startswith("a,b,value\n")
        assert real.stat().st_mode & 0o777 == 0o640
        assert not list(real.parent.glob(".tmp.*"))

    def test_special_file_is_written_in_place(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup) == 0
        assert main(["collect", "tiny_mapping.json", "--report-out", os.devnull]) == 4
        assert not list(workdir.glob(".tmp.*"))

    def test_existing_temporary_looking_file_is_left_alone(self, workdir, tiny_setup, capsys):
        bystander = workdir / ".tmp.tiny_mapping.json"
        bystander.write_text("mine\n", encoding="utf-8")
        assert main(tiny_setup) == 0
        assert bystander.read_text(encoding="utf-8") == "mine\n"
        json.loads((workdir / "tiny_mapping.json").read_text(encoding="utf-8"))

    def test_existing_file_keeps_its_mode(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup) == 0
        csv = workdir / "tiny_results.csv"
        csv.write_text("old\n", encoding="utf-8")
        csv.chmod(0o640)
        assert main(["collect", "tiny_mapping.json"]) == 4
        assert csv.read_text(encoding="utf-8").startswith("a,b,value\n")
        assert csv.stat().st_mode & 0o777 == 0o640
        assert not list(workdir.glob(".tmp.*"))


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["run", "--command", "x {sim_id}"]) == 1
