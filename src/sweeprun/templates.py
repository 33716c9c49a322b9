"""Configuration-file templating.

Placeholders are written ``{name}``; literal braces are escaped as ``{{``
and ``}}``. Rendering substitutes each placeholder with the formatted
parameter value (or the simulation ID for ``{sim_id}``) and leaves every
other byte untouched.

Value formatting: integers print in base 10 with no decimal point; reals
print as the shortest decimal string that round-trips to the same 64-bit
float, always carrying a decimal point or exponent (``2.0``, never ``2``)
so namelist-style readers parse them as reals; text passes through
verbatim.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from .errors import TemplateSyntaxError, UnfilledPlaceholderError
from .filters import _byte_offset
from .sweeps import ParamValue, _IDENTIFIER_RE

__all__ = [
    "format_value",
    "extract_placeholders",
    "render",
    "unused_parameters",
]


def format_value(value: ParamValue) -> str:
    if isinstance(value, bool):
        raise ValueError("booleans are not parameter values")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot format non-finite real {value!r}")
        return repr(value)
    if isinstance(value, str):
        return value
    raise ValueError(f"unsupported value type {type(value).__name__}")


def _scan(source: str) -> Iterator[tuple[str, str | None]]:
    """Yield (literal_text, placeholder_name) chunks; name is None for the tail."""
    i = 0
    n = len(source)
    literal: list[str] = []
    while i < n:
        c = source[i]
        if c == "{":
            if source.startswith("{{", i):
                literal.append("{")
                i += 2
                continue
            j = source.find("}", i + 1)
            if j == -1:
                raise TemplateSyntaxError("unclosed placeholder", _byte_offset(source, i))
            name = source[i + 1 : j]
            if not _IDENTIFIER_RE.match(name):
                raise TemplateSyntaxError(
                    f"invalid placeholder name {name!r}", _byte_offset(source, i)
                )
            yield "".join(literal), name
            literal = []
            i = j + 1
        elif c == "}":
            if source.startswith("}}", i):
                literal.append("}")
                i += 2
                continue
            raise TemplateSyntaxError("unescaped '}'", _byte_offset(source, i))
        else:
            literal.append(c)
            i += 1
    yield "".join(literal), None


def extract_placeholders(source: str) -> list[str]:
    """Placeholder names in first-occurrence order, duplicates collapsed."""
    seen: dict[str, None] = {}
    for _literal, name in _scan(source):
        if name is not None and name not in seen:
            seen[name] = None
    return list(seen)


def render(source: str, params: Mapping[str, ParamValue], sim_id: str) -> str:
    """Substitute parameter values and the simulation ID into a template.

    Raises UnfilledPlaceholderError if the template names a placeholder with
    no matching parameter; ``{sim_id}`` is always available.
    """
    values = {name: format_value(value) for name, value in params.items()}
    values["sim_id"] = sim_id
    parts: list[str] = []
    for literal, name in _scan(source):
        parts.append(literal)
        if name is None:
            continue
        try:
            parts.append(values[name])
        except KeyError:
            raise UnfilledPlaceholderError(name) from None
    return "".join(parts)


def unused_parameters(sources: Iterable[str], names: Iterable[str]) -> list[str]:
    """Parameter names that appear in none of the given template sources."""
    used: set[str] = set()
    for source in sources:
        used.update(extract_placeholders(source))
    return [name for name in names if name not in used]
