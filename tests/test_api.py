"""The public API: every exported name resolves (on first use) to the object
in its home module, the README imports only what the package exports, and
no module imports a name it does not use."""

from __future__ import annotations

import ast
import re
import sys
import types
from pathlib import Path

import pytest

import sweeprun
from sweeprun.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(sweeprun.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in sweeprun.__all__ if not hasattr(sweeprun, name)]
    assert missing == []


def test_every_exported_name_is_the_object_in_its_home_module():
    for name in sweeprun.__all__:
        value = getattr(sweeprun, name)
        if isinstance(value, types.ModuleType):
            assert sys.modules[value.__name__] is value
        elif name != "__version__":
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("sweeprun."), name
            assert getattr(home, value.__name__) is value, name


def test_dir_lists_every_exported_name():
    assert set(sweeprun.__all__) <= set(dir(sweeprun))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from sweeprun import *", namespace)
    assert [name for name in sweeprun.__all__ if namespace.get(name) is not getattr(sweeprun, name)] == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sweeprun.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sweeprun import no_such_name", {})


def test_readme_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    imports = re.findall(r"from sweeprun import (\([^)]*\)|[^\n]+)", text)
    names = [name.strip() for group in imports for name in group.strip("()").split(",")]
    names = [name for name in names if name]
    assert names
    assert [name for name in names if name not in sweeprun.__all__] == []


def test_readme_library_use_runs(workdir, monkeypatch, capfd):
    """The README's example and `run` then `collect` on the same inputs leave
    the same files, byte for byte, apart from the summary's job times."""
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.DOTALL).group(1)
    trees = []
    for directory in ("library", "cli"):
        (workdir / directory).mkdir()
        monkeypatch.chdir(workdir / directory)
        Path("template.txt").write_text("x = {x}\ny = {y}\n", encoding="utf-8")
        Path("sweep.json").write_text('{"type": "cartesian", "parameters": {"x": [1, 2, 3], "y": [0.1, 0.2]}}')
        if directory == "library":
            namespace: dict = {}
            exec(compile(code, "README.md", "exec"), namespace)  # ./model does not exist: every job fails
            # what replaces value_for and value_at: the dict harvest makes, indexed by sim_id
            assert namespace["values"] == dict.fromkeys(["0", "1", "2", "3", "4", "5"])
            assert namespace["corner"] == "5"  # x=3, y=0.2: the last of the 3 x 2 grid
            assert namespace["values"][namespace["corner"]] is None
        else:
            run = ["--command", "./model {sim_id}", "--config", "params_{sim_id}.nml", "--template", "template.txt"]
            assert main(["run", *run, "--sweep-file", "sweep.json", "--name", "demo", "--max-parallel", "4"]) == 3
            assert main(["collect", "demo_mapping.json"]) == 4
        files = {path.name: path.read_bytes() for path in Path().iterdir()}
        files["demo_summary.json"] = re.sub(
            rb'("(?:started_at|finished_at|duration)": )[^,\n]*', rb"\1...", files["demo_summary.json"]
        )
        trees.append(files)
    library, cli = trees
    assert len(library) == 2 + 6 + 4  # the inputs, the configs, the mapping, summary, CSV and report
    assert library == cli


def _unused_imports(source: str) -> list[str]:
    """Names bound by imports (not ``from __future__``) that the module never
    reads, lists in ``__all__`` or names in a string annotation."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
            every += [a for a in (arguments.vararg, arguments.kwarg) if a]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(
                        n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    )
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_has_an_unused_import():
    unused = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_check_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Iterator, Optional\n"
        "from .sweeps import Sweep, values_equal as equal\n"
        "__all__ = ['Sweep']\n"
        "def f(x: 'Optional[int]') -> Iterator[int]:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["line 2: math", "line 5: equal"]
