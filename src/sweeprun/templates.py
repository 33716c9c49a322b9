"""Configuration-file templating.

Placeholders are written ``{name}``; literal braces are escaped as ``{{``
and ``}}``. Rendering substitutes each placeholder with the formatted
parameter value (or the simulation ID for ``{sim_id}``) and leaves every
other byte untouched. Each distinct source is scanned once per process
into (literal, name) chunks; rendering is one substitution pass over them.

Value formatting: integers print in base 10 with no decimal point; reals
print as the shortest decimal string that round-trips to the same 64-bit
float, always carrying a decimal point or exponent (``2.0``, never ``2``)
so namelist-style readers parse them as reals; text passes through
verbatim.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import TemplateSyntaxError, UnfilledPlaceholderError, _byte_offset
from .sweeps import ParamValue, _IDENTIFIER_RE

__all__ = [
    "format_value",
    "extract_placeholders",
    "render",
    "unused_parameters",
]

# distinct template sources kept compiled; a run uses its templates, the
# command and the config patterns
_COMPILED_TEMPLATES = 64
_BRACE_RE = re.compile(r"[{}]")


def format_value(value: ParamValue) -> str:
    # text first: it passes through unchanged
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not parameter values")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot format non-finite real {value!r}")
        return repr(value)
    raise ValueError(f"unsupported value type {type(value).__name__}")


def format_grid(
    parameters: Mapping[str, Sequence[ParamValue]], text: Callable[[str], str] | None = None
) -> Iterator[dict[str, str]]:
    """The cells of the Cartesian grid over `parameters`, as formatted text,
    in row-major order (the last name varies fastest): each value is
    formatted once, and every cell is built from those strings. A `text`
    function (such as ``shlex.quote``) is applied to each formatted value,
    also once per axis value, so a cell holds ``text(format_value(v))``."""
    names = list(parameters)
    axes = [[format_value(value) for value in values] for values in parameters.values()]
    if text is not None:
        axes = [[text(value) for value in axis] for axis in axes]
    for combo in itertools.product(*axes):
        yield dict(zip(names, combo))


def _scan(source: str) -> Iterator[tuple[str, str | None]]:
    """Yield (literal_text, placeholder_name) chunks; name is None for the tail."""
    literal: list[str] = []
    i = 0
    while (m := _BRACE_RE.search(source, i)) is not None:
        k = m.start()
        literal.append(source[i:k])
        brace = source[k]
        if source.startswith(brace * 2, k):
            literal.append(brace)
            i = k + 2
            continue
        if brace == "}":
            raise TemplateSyntaxError("unescaped '}'", _byte_offset(source, k))
        j = source.find("}", k + 1)
        if j == -1:
            raise TemplateSyntaxError("unclosed placeholder", _byte_offset(source, k))
        name = source[k + 1 : j]
        if not _IDENTIFIER_RE.match(name):
            raise TemplateSyntaxError(
                f"invalid placeholder name {name!r}", _byte_offset(source, k)
            )
        yield "".join(literal), name
        literal = []
        i = j + 1
    literal.append(source[i:])
    yield "".join(literal), None


@functools.lru_cache(maxsize=_COMPILED_TEMPLATES)
def _compile(source: str) -> tuple[tuple[str, str | None], ...]:
    """The chunks of `source`, scanned once per distinct source."""
    return tuple(_scan(source))


def extract_placeholders(source: str) -> list[str]:
    """Placeholder names in first-occurrence order, duplicates collapsed."""
    seen: dict[str, None] = {}
    for _literal, name in _compile(source):
        if name is not None and name not in seen:
            seen[name] = None
    return list(seen)


def render(source: str, params: Mapping[str, ParamValue], sim_id: str) -> str:
    """Substitute parameter values and the simulation ID into a template.

    Raises UnfilledPlaceholderError if the template names a placeholder with
    no matching parameter; ``{sim_id}`` is always available.
    """
    # text, which is what run passes, is taken as it is, without a call
    values = {name: value if type(value) is str else format_value(value) for name, value in params.items()}
    values["sim_id"] = sim_id
    try:
        chunks: Iterable[tuple[str, str | None]] = _compile(source)
    except TemplateSyntaxError:
        # a placeholder with no value before the malformed brace is reported first
        chunks = _scan(source)
    parts: list[str] = []
    for literal, name in chunks:
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
