"""CLI behavior: argument validation, run pipeline, preview, collect."""

from __future__ import annotations

import errno
import json
import os
import subprocess
from pathlib import Path

import pytest

from conftest import NAMELIST_TEMPLATE, REFERENCE_GRID_SPEC, run_python
from sweeprun import files
from sweeprun.cli import main
from sweeprun.mapping import read_mapping
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

    @pytest.mark.parametrize("kind", ["set", "cartesian"])
    @pytest.mark.parametrize(
        "value, options, where",
        [
            ("\ud800", ["--config", "{s}_{sim_id}.txt"],
             "a --config path: the file system encoding cannot encode it"),
            ("\ud800", ["--template", "uses_s.txt"], "a template: it cannot be encoded as UTF-8"),
            ("\ud800", ["--command", "touch ran_{sim_id} {s}"],
             "the --command of a local job: the file system encoding cannot encode it"),
            ("x\0y", ["--command", "touch ran_{sim_id} {s}"],
             "the --command of a local job: a value there may not contain NUL"),
            ("\ud800", ["--command", "true {s} {sim_id}", "--dispatcher", "slurm", "--dry-run"],
             "a batch script: it cannot be encoded as UTF-8"),
        ],
        ids=["config-path", "template", "local-command", "local-command-nul", "batch-script"],
    )
    def test_a_text_value_that_cannot_be_written_stops_the_run_first(
        self, workdir, capsys, kind, value, options, where
    ):
        if kind == "set":
            spec = {"type": "set", "sets": [{"s": "a"}, {"s": value}]}
        else:
            spec = {"type": "cartesian", "parameters": {"s": ["a", value]}}
        write_json(workdir / "sweep.json", spec)
        (workdir / "template.txt").write_text("{sim_id}\n", encoding="utf-8")
        (workdir / "uses_s.txt").write_text("s={s}\n", encoding="utf-8")
        argv = {"--command": "true {sim_id}", "--config": "c_{sim_id}.txt", "--template": "template.txt"}
        argv.update(zip(options[::2], options[1::2]))
        before = sorted(workdir.iterdir())
        assert main(["run", *(word for pair in argv.items() for word in pair), "--sweep-file", "sweep.json"]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: parameter 's' has the value {value!r}, which cannot be part of {where}"
        ]
        assert sorted(workdir.iterdir()) == before

    def test_a_value_that_can_be_written_still_runs(self, workdir, capsys):
        """U+DCFF is the file name byte 0xff, and a dry run starts no process."""
        sets = [{"s": "a", "t": "\ud800"}, {"s": "\udcff", "t": "b"}]
        write_json(workdir / "sweep.json", {"type": "set", "sets": sets})
        (workdir / "template.txt").write_text("{sim_id}\n", encoding="utf-8")
        argv = ["run", "--config", "{s}_{sim_id}.txt", "--template", "template.txt", "--sweep-file", "sweep.json"]
        assert main([*argv, "--command", "touch ran_{sim_id} {t}", "--dry-run"]) == 0
        assert main([*argv, "--command", "touch ran_{sim_id} {s}", "--overwrite"]) == 0
        assert sorted(os.listdir(b".")) == [
            b"a", b"a_0.txt", b"ran_0", b"ran_1", b"sweep.json", b"sweep_mapping.json", b"sweep_summary.json",
            b"template.txt", b"\xff", b"\xff_1.txt",
        ]


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

    def test_summary_of_an_earlier_sweep_is_a_conflict(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup) == 0
        summary = (workdir / "tiny_summary.json").read_bytes()
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = "other_{sim_id}.txt"
        argv += ["--mapping-out", "other_mapping.json"]
        capsys.readouterr()
        assert main(argv) == 1
        assert "tiny_summary.json" in capsys.readouterr().err
        assert (workdir / "tiny_summary.json").read_bytes() == summary
        assert not list(workdir.glob("other_*"))
        assert main(argv + ["--overwrite"]) == 0
        assert (workdir / "other_mapping.json").exists()

    @pytest.mark.parametrize("overwrite", [False, True], ids=["new", "overwrite"])
    @pytest.mark.parametrize(
        "config, options, fixed",
        [
            ("c_{sim_id}", ["--mapping-out", "c_0"], "mapping c_0"),
            ("run{sim_id}_summary.json", ["--name", "run1"], "summary run1_summary.json"),
            # a value and a '..' part: compared once both are absolute paths
            ("out/c_{a}_{sim_id}", ["--mapping-out", "out/../out/c_2_1"], "mapping out/../out/c_2_1"),
        ],
        ids=["mapping", "summary", "mapping-by-value"],
    )
    def test_config_on_a_fixed_name_blocks_every_write(
        self, workdir, tiny_setup, config, options, fixed, overwrite, capsys
    ):
        before = sorted(workdir.iterdir())
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = config
        assert main(argv + options + ["--overwrite"] * overwrite) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(config) in err and f"the same file as the {fixed};" in err
        assert sorted(workdir.iterdir()) == before

    def test_braces_in_the_working_directory_are_literal_text(self, workdir, tiny_setup, monkeypatch, capsys):
        inner = workdir / "a}b{{c{d}"
        inner.mkdir()
        for name in ("sweep.json", "template.txt"):
            (inner / name).write_bytes((workdir / name).read_bytes())
        monkeypatch.chdir(inner)
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = "c_{sim_id}"
        assert main(argv + ["--mapping-out", "c_1"]) == 1
        assert "the same file as the mapping c_1;" in capsys.readouterr().err
        assert main(argv) == 0
        assert sorted(p.name for p in inner.glob("c_*")) == ["c_0", "c_1"]

    def test_mapping_on_the_summary_blocks_every_write(self, workdir, tiny_setup, capsys):
        before = sorted(workdir.iterdir())
        assert main(tiny_setup + ["--mapping-out", "tiny_summary.json", "--overwrite"]) == 1
        assert capsys.readouterr().err == (
            "error: the mapping tiny_summary.json is also the summary; give each its own path\n"
        )
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]], ids=["new", "overwrite"])
    def test_a_config_that_is_its_own_template_blocks_every_write(self, workdir, tiny_setup, overwrite, capsys):
        """Simulation 0's config would replace the template every config is rendered from."""
        (workdir / "c_0.txt").write_text("a={a} b={b}\n", encoding="utf-8")
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = "c_{sim_id}.txt"
        argv[argv.index("--template") + 1] = "c_0.txt"
        before = {path: path.read_bytes() for path in workdir.iterdir()}
        assert main(argv + overwrite) == 1
        assert capsys.readouterr().err == (
            "error: --config 'c_{sim_id}.txt' writes c_0.txt for simulation 0, the same file as "
            "the --template c_0.txt; give each its own path\n"
        )
        assert {path: path.read_bytes() for path in workdir.iterdir()} == before

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]], ids=["new", "overwrite"])
    @pytest.mark.parametrize("mapping", ["template.txt", "link.json"], ids=["template", "link-to-template"])
    def test_a_mapping_on_the_template_blocks_every_write(self, workdir, tiny_setup, mapping, overwrite, capsys):
        """The template is a file no document may be, with links followed, and
        it is never reported as an existing file in the way."""
        os.symlink("template.txt", workdir / "link.json")
        before = {path: path.read_bytes() for path in workdir.iterdir()}
        assert main([*tiny_setup, "--mapping-out", mapping, *overwrite]) == 1
        assert capsys.readouterr().err == (
            f"error: --mapping-out and --template template.txt are the same file, "
            f"{workdir.resolve() / 'template.txt'}; give each its own path\n"
        )
        assert {path: path.read_bytes() for path in workdir.iterdir()} == before

    def test_two_templates_may_be_one_file(self, workdir, tiny_setup, capsys):
        argv = [*tiny_setup, "--config", "d_{sim_id}.txt", "--template", "./template.txt"]
        assert main(argv) == 0
        for sim_id in ("0", "1"):
            assert (workdir / f"d_{sim_id}.txt").read_bytes() == (workdir / f"conf_{sim_id}.txt").read_bytes()
        assert (workdir / "template.txt").read_text(encoding="utf-8") == "a={a} b={b} id={sim_id}\n"

    def test_fixed_name_no_simulation_renders_is_kept(self, workdir, tiny_setup):
        """The pattern could render the mapping's name, but no value set does."""
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = "c_{a}_{sim_id}"
        assert main(argv + ["--mapping-out", "c_1_1"]) == 0  # simulation 1 has a=2
        assert read_mapping(workdir / "c_1_1").sim_ids == ("0", "1")
        assert (workdir / "c_2_1").read_text(encoding="utf-8") == "a=2 b=10 id=1\n"

    @pytest.mark.parametrize("earlier", ["tiny_0.out", "tiny_1.err"])
    def test_capture_files_of_an_earlier_sweep_are_conflicts(self, workdir, tiny_setup, earlier, capsys):
        (workdir / earlier).write_text("kept\n", encoding="utf-8")
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "echo ran {sim_id}"
        argv.append("--capture")
        assert main(argv) == 1
        assert earlier in capsys.readouterr().err
        assert (workdir / earlier).read_text(encoding="utf-8") == "kept\n"
        assert not (workdir / "conf_0.txt").exists()
        assert main(argv + ["--dry-run"]) == 0  # a dry run writes no capture file
        assert (workdir / earlier).read_text(encoding="utf-8") == "kept\n"
        assert main(argv + ["--overwrite"]) == 0
        assert (workdir / "tiny_0.out").read_text(encoding="utf-8") == "ran 0\n"

    @pytest.mark.parametrize("overwrite", [False, True], ids=["new", "overwrite"])
    @pytest.mark.parametrize(
        "options",
        [
            ["--config", "q_{sim_id}.sh", "--dispatcher", "slurm", "--dry-run"],
            ["--config", "c_{sim_id}", "--mapping-out", "q_0.sh", "--dispatcher", "slurm", "--dry-run"],
            ["--config", "c_{sim_id}", "--mapping-out", "q_1.out", "--capture"],
            ["--config", "q_{sim_id}.out", "--capture"],
            ["--config", "a_{sim_id}", "--config", "x/../a_{sim_id}"],
            ["--config", "a_{sim_id}", "--config", "{p}_{sim_id}"],
            ["--config", "{sim_id}/../cfg"],
            ["--config", "q_{sim_id}.out", "--dispatcher", "slurm", "--dry-run"],
            ["--config", "c_{sim_id}", "--mapping-out", "q_1.out", "--dispatcher", "pbs", "--dry-run"],
        ],
        ids=[
            "config-on-script", "mapping-on-script", "mapping-on-capture", "config-on-capture",
            "dot-dot", "value", "one-file-for-all", "config-on-scheduler-log", "mapping-on-scheduler-log",
        ],
    )
    def test_two_outputs_on_one_file_block_every_write(self, workdir, options, overwrite, capsys):
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"p": ["a"], "n": [1, 2, 3, 4]}})
        (workdir / "template.txt").write_text("p={p} n={n}\n", encoding="utf-8")
        before = sorted(workdir.iterdir())
        templates = ["--template", "template.txt"] * options.count("--config")
        argv = ["run", "--command", "true {sim_id}", "--sweep-file", "sweep.json", "--name", "q"]
        assert main(argv + options + templates + ["--overwrite"] * overwrite) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(workdir.iterdir()) == before

    def test_batch_script_of_an_earlier_sweep_is_a_conflict(self, workdir, tiny_setup, capsys):
        (workdir / "tiny_0.sh").write_text("old\n", encoding="utf-8")
        before = sorted(workdir.iterdir())
        argv = tiny_setup + ["--dispatcher", "slurm", "--dry-run"]
        assert main(argv) == 1
        assert "tiny_0.sh" in capsys.readouterr().err
        assert sorted(workdir.iterdir()) == before
        assert (workdir / "tiny_0.sh").read_text(encoding="utf-8") == "old\n"
        assert main(argv + ["--overwrite"]) == 0
        assert (workdir / "tiny_0.sh").read_text(encoding="utf-8").startswith("#!/bin/sh\n")

    @pytest.mark.parametrize("dispatch", [[], ["--dry-run"]], ids=["submit", "dry-run"])
    @pytest.mark.parametrize("dispatcher", ["slurm", "pbs"])
    def test_scheduler_log_of_an_earlier_sweep_is_a_conflict(
        self, workdir, tiny_setup, dispatcher, dispatch, capsys
    ):
        (workdir / "tiny_1.out").write_text("old log\n", encoding="utf-8")
        before = sorted(workdir.iterdir())
        argv = tiny_setup + ["--dispatcher", dispatcher, "--submit-command", "exit 7", *dispatch]
        assert main(argv) == 1
        assert "tiny_1.out" in capsys.readouterr().err
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize(
        "options, option, directory",
        [
            (["--name", "out/q"], "--name", "out"),
            (["--name", "out/q", "--capture"], "--name", "out"),
            (["--name", "out/q", "--dispatcher", "slurm", "--dry-run"], "--name", "out"),
            (["--name", "x/../q"], "--name", "x/.."),
            (["--mapping-out", "missing/m.json"], "--mapping-out", "missing"),
            (["--mapping-out", "conf_0.txt/m.json"], "--mapping-out", "conf_0.txt"),
        ],
        ids=["name", "name-capture", "name-slurm", "name-dot-dot", "mapping", "mapping-under-a-config"],
    )
    def test_missing_output_directory_stops_the_run_before_any_write(
        self, workdir, tiny_setup, options, option, directory, capsys
    ):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "touch ran_{sim_id}"
        before = sorted(workdir.rglob("*"))
        assert main(argv + options) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err
        assert f" {directory} " in err
        assert sorted(workdir.rglob("*")) == before  # no config, mapping or summary, and no job ran

    @pytest.mark.parametrize(
        "directory, options, option",
        [
            ("tiny_summary.json", [], "--name"),
            ("m.json", ["--mapping-out", "m.json"], "--mapping-out"),
            ("tiny_mapping.json", [], "--mapping-out"),
        ],
        ids=["summary", "mapping-out", "mapping"],
    )
    def test_directory_at_the_summary_or_mapping_stops_an_overwrite_before_any_write(
        self, workdir, tiny_setup, directory, options, option, capsys
    ):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "touch ran_{sim_id}"
        (workdir / directory).mkdir()
        before = sorted(workdir.rglob("*"))
        assert main(argv + options + ["--overwrite"]) == 1
        assert capsys.readouterr().err == f"error: {option}: {directory} is a directory, not a file to write\n"
        assert sorted(workdir.rglob("*")) == before  # no config, mapping or summary, and no job ran

    @pytest.mark.parametrize("overwrite", [False, True], ids=["new", "overwrite"])
    @pytest.mark.parametrize(
        "link, target, options, message",
        [
            ("tiny_summary.json", "tiny_summary.json", [],
             "--name tiny_summary.json: Too many levels of symbolic links"),
            ("m.json", "m.json", ["--mapping-out", "m.json"],
             "--mapping-out m.json: Too many levels of symbolic links"),
            ("m.json", "tiny_summary.json", ["--mapping-out", "m.json"],
             "--name and --mapping-out are the same file, {here}/tiny_summary.json; give each its own path"),
            ("m.json", "nodir/m.json", ["--mapping-out", "m.json"],
             "--mapping-out: no directory {here}/nodir to write m.json in"),
        ],
        ids=["summary-loop", "mapping-loop", "mapping-links-to-summary", "mapping-links-into-no-directory"],
    )
    def test_summary_and_mapping_are_checked_through_links_before_any_write(
        self, workdir, tiny_setup, link, target, options, message, overwrite, capsys
    ):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "touch ran_{sim_id}"
        (workdir / link).symlink_to(target)
        before = sorted(workdir.rglob("*"))
        assert main(argv + options + ["--overwrite"] * overwrite) == 1
        assert capsys.readouterr().err == f"error: {message.format(here=os.path.realpath(workdir))}\n"
        assert sorted(workdir.rglob("*")) == before  # no config, mapping or summary, and no job ran

    def test_special_file_at_the_mapping_is_written_in_place(self, workdir, tiny_setup, capsys):
        assert main(tiny_setup + ["--mapping-out", os.devnull, "--overwrite"]) == 0
        assert json.loads((workdir / "tiny_summary.json").read_text(encoding="utf-8"))["counts"]["total"] == 2

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_max_parallel_below_one_stops_the_run_before_any_write(self, workdir, tiny_setup, value, capsys):
        before = sorted(workdir.rglob("*"))
        assert main(tiny_setup + ["--max-parallel", value]) == 1
        assert capsys.readouterr().err == f"error: max_parallel must be >= 1, got {value}\n"
        assert sorted(workdir.rglob("*")) == before

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

    def test_failed_lines_come_from_the_pass_that_writes_the_summary(self, workdir, capsys):
        write_json(workdir / "sweep.json", {"type": "set", "sets": [{"code": 2}, {"code": 0}, {"code": 3}]})
        (workdir / "template.txt").write_text("code={code}\n", encoding="utf-8")
        argv = [
            "run", "--command", "exit {code} # {sim_id}", "--config", "conf_{sim_id}.txt",
            "--template", "template.txt", "--sweep-file", "sweep.json", "--name", "fails",
        ]
        assert main(argv) == 3
        assert capsys.readouterr().err == "  failed: 0 (exit code 2)\n  failed: 2 (exit code 3)\n"

    def test_stderr_lists_only_the_first_failed_jobs(self, workdir, capsys):
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": list(range(20))}})
        (workdir / "template.txt").write_text("{a}\n", encoding="utf-8")
        argv = [
            "run", "--command", "false {sim_id}", "--config", "c{sim_id}.txt", "--template", "template.txt",
            "--sweep-file", "sweep.json", "--max-parallel", "2",
        ]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            *(f"  failed: {k:02d} (exit code 1)" for k in range(5)),
            "  ... and 15 more, see sweep_summary.json",
        ]
        summary = json.loads((workdir / "sweep_summary.json").read_text(encoding="utf-8"))
        assert summary["counts"]["failed"] == 20
        assert [job["sim_id"] for job in summary["jobs"]] == [f"{k:02d}" for k in range(20)]

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

    @pytest.mark.parametrize("dispatch", [["--dry-run"], ["--submit-command", "echo 7"]], ids=["dry-run", "submit"])
    @pytest.mark.parametrize("kind", ["slurm", "pbs"])
    @pytest.mark.parametrize(
        "option, value", [("--name", "q\nr"), ("--directive", "--time=1\ntouch pwned")], ids=["name", "directive"]
    )
    def test_a_line_break_cannot_split_a_batch_script(
        self, workdir, tiny_setup, option, value, kind, dispatch, capsys
    ):
        """A batch script's header ends at its first line that is not a
        directive, so a line break in a directive or in the name would make
        what follows it a command, or leave the log option unread."""
        before = sorted(workdir.iterdir())
        assert main([*tiny_setup, "--dispatcher", kind, *dispatch, f"{option}={value}"]) == 1
        assert capsys.readouterr().err == (
            f"error: {option} {value!r} holds a line break, which would end its batch script line\n"
        )
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("dispatch", [["--dispatcher", "dry"], []], ids=["dry", "local"])
    def test_a_line_break_in_a_name_without_batch_scripts(self, workdir, tiny_setup, dispatch, capsys):
        assert main([*tiny_setup, *dispatch, "--name=q\nr", "--directive=--time=1\nx"]) == 0
        assert json.loads((workdir / "q\nr_summary.json").read_text(encoding="utf-8"))["counts"]["total"] == 2

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

    @staticmethod
    def queue_full_at_the_third_submit(workdir) -> str:
        """A four-job sweep and a submit command that fails on its third call."""
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": [1, 2, 3, 4], "b": [10]}})
        fake = workdir / "fake_sbatch.sh"
        fake.write_text(
            "#!/bin/sh\n"
            "n=$(( $(cat calls 2>/dev/null || echo 0) + 1 ))\n"
            "echo $n > calls\n"
            'if [ $n -ge 3 ]; then echo "queue full" >&2; exit 1; fi\n'
            'echo "Submitted batch job 10$n"\n',
            encoding="utf-8",
        )
        return f"sh {fake}"

    @staticmethod
    def assert_summary_lists_jobs_0_and_1(workdir):
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["counts"]["submitted"] == 2
        assert [(j["sim_id"], j["status"], j["scheduler_job_id"]) for j in summary["jobs"]] == [
            ("0", "submitted", "101"),
            ("1", "submitted", "102"),
        ]

    def test_partial_submission_keeps_its_summary(self, workdir, tiny_setup, capsys):
        submit = self.queue_full_at_the_third_submit(workdir)
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        assert main(argv + ["--dispatcher", "slurm", "--submit-command", submit]) == 2
        assert "queue full" in capsys.readouterr().err
        self.assert_summary_lists_jobs_0_and_1(workdir)

    def test_partial_submission_through_run_sweep_keeps_its_summary(self, workdir, tiny_setup):
        from sweeprun import DispatcherConfig, run_sweep
        from sweeprun.errors import SchedulerError

        submit = self.queue_full_at_the_third_submit(workdir)
        config = DispatcherConfig(kind="slurm", submit_command=submit, sweep_name="tiny")
        configs = [("conf_{sim_id}.txt", "template.txt")]
        with pytest.raises(SchedulerError, match="queue full") as failure:
            run_sweep(load_sweep_spec("sweep.json"), "./model {sim_id}", configs, config)
        assert failure.value.submitted == 2
        assert failure.value.summary_path == Path("tiny_summary.json")
        self.assert_summary_lists_jobs_0_and_1(workdir)

    @pytest.mark.parametrize("code", [0, 1])
    def test_an_undecodable_submit_output_loses_no_job(self, workdir, tiny_setup, code, capsys):
        """A byte the locale cannot decode reads as U+FFFD, so the submit's
        exit code alone decides whether the run goes on."""
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": [1, 2, 3, 4], "b": [10]}})
        fake = workdir / "fake_sbatch.sh"
        fake.write_text(
            "#!/bin/sh\n"
            "n=$(( $(cat calls 2>/dev/null || echo 0) + 1 ))\n"
            "echo $n > calls\n"
            f"if [ $n -eq 3 ]; then printf '\\377\\n' >&2; [ {code} -eq 0 ] || exit {code}; fi\n"
            'echo "Submitted batch job 10$n"\n',
            encoding="utf-8",
        )
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        result = main(argv + ["--dispatcher", "slurm", "--submit-command", f"sh {fake}"])
        if code:
            assert result == 2
            assert "exited with 1: \ufffd" in capsys.readouterr().err
            self.assert_summary_lists_jobs_0_and_1(workdir)
        else:
            assert result == 0
            summary = json.loads((workdir / "tiny_summary.json").read_text())
            assert [(j["sim_id"], j["scheduler_job_id"]) for j in summary["jobs"]] == [
                ("0", "101"), ("1", "102"), ("2", "103"), ("3", "104")
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


class TestConfigFiles:
    """Configs and batch scripts are rewritten in place: the same bytes and
    modes as a fresh write, whatever was at the path before."""

    @pytest.mark.parametrize("pattern", ["sub/{a}/conf_{sim_id}.txt", "./sub//{a}/./conf_{sim_id}.txt/"])
    def test_config_directories_are_made_as_needed(self, workdir, tiny_setup, pattern):
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": [1, 2], "b": [10, 20]}})
        argv = list(tiny_setup)
        argv[argv.index("--config") + 1] = pattern
        assert main(argv) == 0
        assert (workdir / "sub" / "2" / "conf_3.txt").read_text(encoding="utf-8") == "a=2 b=20 id=3\n"
        assert sorted(p.relative_to(workdir).as_posix() for p in (workdir / "sub").rglob("*.txt")) == [
            "sub/1/conf_0.txt", "sub/1/conf_1.txt", "sub/2/conf_2.txt", "sub/2/conf_3.txt",
        ]

    def test_longer_config_is_cut_to_length(self, workdir, tiny_setup):
        (workdir / "conf_0.txt").write_text("old line\n" * 1000, encoding="utf-8")
        assert main(tiny_setup + ["--overwrite"]) == 0
        assert (workdir / "conf_0.txt").read_bytes() == b"a=1 b=10 id=0\n"

    def test_symlinked_config_is_written_through_the_link(self, workdir, tiny_setup):
        real = workdir / "kept" / "real.txt"
        real.parent.mkdir()
        real.write_text("old line\n" * 10, encoding="utf-8")
        (workdir / "conf_0.txt").symlink_to(real)
        assert main(tiny_setup + ["--overwrite"]) == 0
        assert (workdir / "conf_0.txt").is_symlink()
        assert real.read_bytes() == b"a=1 b=10 id=0\n"

    def test_existing_config_keeps_its_mode_and_a_new_one_follows_the_umask(self, workdir, tiny_setup):
        (workdir / "conf_0.txt").write_text("old\n", encoding="utf-8")
        (workdir / "conf_0.txt").chmod(0o640)
        previous = os.umask(0o027)
        try:
            assert main(tiny_setup + ["--overwrite"]) == 0
        finally:
            os.umask(previous)
        assert (workdir / "conf_0.txt").stat().st_mode & 0o777 == 0o640
        assert (workdir / "conf_1.txt").stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_config_path_that_is_a_directory_exits_one(self, workdir, tiny_setup, capsys):
        (workdir / "conf_1.txt").mkdir()
        assert main(tiny_setup + ["--overwrite"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert (workdir / "conf_1.txt").is_dir()
        assert not (workdir / "tiny_mapping.json").exists()

    def test_rewrite_over_existing_files_never_truncates_on_open(self, workdir, tiny_setup, monkeypatch):
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "./model {sim_id}"
        argv += ["--dispatcher", "slurm", "--dry-run", "--overwrite"]
        fresh = workdir / "fresh"
        fresh.mkdir()
        for name in ("sweep.json", "template.txt"):
            (fresh / name).write_bytes((workdir / name).read_bytes())
        monkeypatch.chdir(fresh)
        assert main(argv) == 0
        monkeypatch.chdir(workdir)
        per_simulation = ["conf_0.txt", "conf_1.txt", "tiny_0.sh", "tiny_1.sh"]
        for name in per_simulation:
            (workdir / name).write_text("left by an earlier sweep\n" * 100, encoding="utf-8")
        opened = []
        real_open = os.open
        monkeypatch.setattr(
            os, "open", lambda path, flags, *a, **k: opened.append((os.path.basename(path), flags))
            or real_open(path, flags, *a, **k)
        )
        assert main(argv) == 0
        writes = [(name, flags) for name, flags in opened if name in per_simulation]
        assert sorted(name for name, _flags in writes) == per_simulation
        assert all(flags & os.O_WRONLY and not flags & os.O_TRUNC for _name, flags in writes)
        for name in per_simulation:
            assert (workdir / name).read_bytes() == (fresh / name).read_bytes()


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

    def test_an_output_path_with_a_nul_is_a_report_entry(self, workdir, capsys):
        write_json(workdir / "sweep.json", {"type": "set", "sets": [{"s": "a"}, {"s": "x\0y"}]})
        (workdir / "template.txt").write_text("s={s}\n", encoding="utf-8")
        argv = ["run", "--command", "true {sim_id}", "--config", "c_{sim_id}.txt", "--template", "template.txt",
                "--sweep-file", "sweep.json", "--dispatcher", "dry"]
        assert main(argv) == 0
        (workdir / "a_0.out").write_text("1.5\n", encoding="utf-8")
        assert main(["collect", "sweep_mapping.json", "--output-pattern", "{s}_{sim_id}.out"]) == 4
        assert (workdir / "sweep_results.csv").read_text(encoding="utf-8") == "s,value\na,1.5\nx\0y,\n"
        report = json.loads((workdir / "sweep_collect_report.json").read_text(encoding="utf-8"))
        assert report["missing"] == [
            {"sim_id": "1", "path": "x\0y_1.out", "reason": "cannot read output: embedded null byte"}
        ]

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
            (["--report-out", "nodir/r.json"], ("--report-out: no directory nodir to write nodir/r.json in",)),
            (["--report-out", "sub"], ("--report-out: sub is a directory, not a file to write",)),
            (["--csv-out", "nodir/x.csv"], ("--csv-out: no directory nodir to write nodir/x.csv in",)),
            (["--csv-out", "tiny_mapping.json/x.csv"], ("--csv-out: no directory tiny_mapping.json ",)),
        ],
        ids=["csv-is-mapping", "report-is-mapping", "csv-is-report", "csv-is-default-report",
             "report-is-default-csv", "csv-links-to-mapping", "report-in-no-directory",
             "report-is-a-directory", "csv-in-no-directory", "csv-under-a-file"],
    )
    def test_collect_never_writes_over_its_own_files(
        self, workdir, tiny_setup, monkeypatch, options, named, capsys
    ):
        assert main(tiny_setup) == 0
        (workdir / "sub").mkdir()
        (workdir / "link.json").symlink_to(workdir / "tiny_mapping.json")
        mapping = (workdir / "tiny_mapping.json").read_bytes()
        reads = []
        real_read_text, real_read_bytes = Path.read_text, files.read_bytes
        monkeypatch.setattr(
            Path, "read_text", lambda path, *a, **k: reads.append(path.name) or real_read_text(path, *a, **k)
        )
        # outputs are read through files.read_bytes
        monkeypatch.setattr(files, "read_bytes", lambda path: reads.append(path) or real_read_bytes(path))
        capsys.readouterr()
        assert main(["collect", "tiny_mapping.json", *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in named), err
        assert reads == ["tiny_mapping.json"]  # no output was read
        assert (workdir / "tiny_mapping.json").read_bytes() == mapping
        assert sorted(p.name for p in workdir.iterdir() if p.suffix in (".csv", ".out")) == []
        assert not (workdir / "tiny_collect_report.json").exists()

    @pytest.mark.parametrize(
        "options, named",
        [
            (["--csv-out", "results_0.txt"], "--csv-out is the output of simulation '0', results_0.txt"),
            (["--report-out", "./results_1.txt"], "--report-out is the output of simulation '1', results_1.txt"),
            (["--csv-out", "sub/../results_1.txt"], "--csv-out is the output of simulation '1'"),
            (["--csv-out", "link.csv"], "--csv-out is the output of simulation '1', results_1.txt"),
        ],
        ids=["csv-is-an-output", "report-is-an-output", "csv-is-an-output-through-dot-dot",
             "csv-links-to-an-output"],
    )
    def test_collect_never_writes_over_an_output(self, workdir, tiny_setup, stub, options, named, capsys):
        self._run_tiny(workdir, tiny_setup, stub)
        (workdir / "sub").mkdir()
        (workdir / "link.csv").symlink_to("results_1.txt")
        outputs = {p.name: p.read_bytes() for p in workdir.glob("results_*.txt")}
        assert len(outputs) == 2
        capsys.readouterr()
        assert main(["collect", "tiny_mapping.json", *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err, err
        assert {p.name: p.read_bytes() for p in workdir.glob("results_*.txt")} == outputs
        assert not (workdir / "tiny_results.csv").exists()
        assert not (workdir / "tiny_collect_report.json").exists()
        assert not list(workdir.glob(".tmp.*"))
        assert (workdir / "link.csv").is_symlink()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["tiny_mapping.json", "--csv-out", "loop.csv"], "--csv-out loop.csv"),
            (["tiny_mapping.json", "--report-out", "loop.csv"], "--report-out loop.csv"),
            (["loop.csv"], "loop.csv"),
        ],
        ids=["csv-out", "report-out", "mapping"],
    )
    def test_symlink_loop_is_one_error_line(self, workdir, tiny_setup, stub, monkeypatch, argv, named, capsys):
        self._run_tiny(workdir, tiny_setup, stub)
        (workdir / "loop.csv").symlink_to("loop.csv")
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if not p.is_symlink()}
        reads = []
        monkeypatch.setattr(files, "read_bytes", lambda path: reads.append(path))
        capsys.readouterr()
        assert main(["collect", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
        assert reads == []  # no output was read
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if not p.is_symlink()} == before
        assert (workdir / "loop.csv").is_symlink()

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


def _closed_pipe_run(args: list[str], cwd: Path):
    """`python -m sweeprun.cli <args>` with standard output a pipe whose
    reader has already exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_python(["-m", "sweeprun.cli", *args], cwd, stdout=write_end)
    finally:
        os.close(write_end)


class TestClosedStdout:
    def test_run_dispatches_every_job_and_writes_its_summary(self, workdir, tiny_setup, stub):
        _script, command = stub
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = command
        argv[argv.index("--config") + 1] = "params_{sim_id}.nml"
        (workdir / "template.txt").write_text("a = {a},\nb = {b}\n", encoding="utf-8")
        proc = _closed_pipe_run(argv, workdir)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(p.name for p in workdir.glob("results_*.txt")) == ["results_0.txt", "results_1.txt"]
        summary = json.loads((workdir / "tiny_summary.json").read_text())
        assert summary["counts"]["succeeded"] == 2

    def test_preview_exits_zero_with_nothing_on_stderr(self, workdir):
        write_json(workdir / "sweep.json", REFERENCE_GRID_SPEC)
        proc = _closed_pipe_run(["preview", "--sweep-file", "sweep.json"], workdir)
        assert (proc.returncode, proc.stderr) == (0, "")


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

    def test_a_summary_entry_that_cannot_be_spooled_stops_the_dispatch(self, workdir, tiny_setup, monkeypatch, capsys):
        """Each job's summary entry is spooled as the job ends, so a spool write
        that fails (a full temporary directory) stops the run there: exit 1, no
        summary, and no job starts after it."""
        write_json(workdir / "sweep.json", {"type": "cartesian", "parameters": {"a": [1, 2, 3, 4], "b": [10]}})
        add = files.Listing.add

        def failing(listing, record):
            if listing.count == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            add(listing, record)

        monkeypatch.setattr(files.Listing, "add", failing)
        argv = list(tiny_setup)
        argv[argv.index("--command") + 1] = "touch ran_{sim_id}"
        assert main([*argv, "--max-parallel", "1"]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sorted(path.name for path in workdir.glob("ran_*")) == ["ran_0", "ran_1"]
        assert not (workdir / "tiny_summary.json").exists()

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

    def test_link_into_a_directory_that_cannot_be_written_is_written_in_place(
        self, workdir, tiny_setup, monkeypatch, capsys
    ):
        assert main(tiny_setup) == 0
        real = workdir / "kept" / "real.csv"
        real.parent.mkdir()
        real.write_text("old\n", encoding="utf-8")
        inode = real.stat().st_ino
        (workdir / "link.csv").symlink_to(real)
        real_open = os.open

        def no_new_file_in_kept(path, flags, *args):
            # what a directory without write permission does (root ignores the mode bits)
            if os.path.dirname(os.fspath(path)) == str(real.parent) and flags & os.O_CREAT:
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", no_new_file_in_kept)
        assert main(["collect", "tiny_mapping.json", "--csv-out", "link.csv"]) == 4
        assert (workdir / "link.csv").is_symlink()
        assert real.read_text(encoding="utf-8").startswith("a,b,value\n")
        assert real.stat().st_ino == inode

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
