"""The public API: every exported name resolves, and the README imports only
what the package exports."""

from __future__ import annotations

import re
from pathlib import Path

import sweeprun

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in sweeprun.__all__ if not hasattr(sweeprun, name)]
    assert missing == []


def test_readme_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    imports = re.findall(r"from sweeprun import (\([^)]*\)|[^\n]+)", text)
    names = [name.strip() for group in imports for name in group.strip("()").split(",")]
    names = [name for name in names if name]
    assert names
    assert [name for name in names if name not in sweeprun.__all__] == []
