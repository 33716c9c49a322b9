"""The JSON sweep-spec file: ``"type"`` is ``"cartesian"`` (with an optional
``"filter"``), ``"set"`` or ``"random"``. Malformed specs raise ValueError."""

from __future__ import annotations

import json
from pathlib import Path

from .sweeps import (
    CartesianSweep,
    Choice,
    FilteredCartesianSweep,
    IntegerUniform,
    LogUniform,
    Normal,
    RandomSweep,
    SetSweep,
    Sweep,
    Uniform,
    linspace,
)

__all__ = ["load_sweep_spec"]


def _spec_error(message: str) -> ValueError:
    return ValueError(f"sweep spec: {message}")


def _values_from_spec(name: str, spec) -> list:
    if isinstance(spec, list):
        return spec
    if isinstance(spec, dict):
        if "linspace" in spec:
            args = spec["linspace"]
            if not (isinstance(args, list) and len(args) == 3):
                raise _spec_error(f"parameter {name!r}: linspace needs [start, stop, count]")
            start, stop, count = args
            if isinstance(count, float) and count.is_integer():
                count = int(count)
            return linspace(start, stop, count)
        if "values" in spec:
            values = spec["values"]
            if not isinstance(values, list):
                raise _spec_error(f"parameter {name!r}: values must be a list")
            return values
    raise _spec_error(f"parameter {name!r}: expected a value list, 'values', or 'linspace'")


_DISTRIBUTION_BUILDERS = {
    "uniform": (Uniform, 2, "[low, high]"),
    "log_uniform": (LogUniform, 2, "[low, high]"),
    "normal": (Normal, 2, "[mean, stddev]"),
    "int_uniform": (IntegerUniform, 2, "[low, high]"),
}


def _distribution_from_spec(name: str, spec):
    if not (isinstance(spec, dict) and len(spec) == 1):
        raise _spec_error(
            f"parameter {name!r}: a distribution is a one-key object like "
            '{"uniform": [0, 1]}'
        )
    tag, args = next(iter(spec.items()))
    if tag == "choice":
        if not (isinstance(args, list) and args):
            raise _spec_error(f"parameter {name!r}: choice needs a non-empty option list")
        return Choice(args)
    if tag not in _DISTRIBUTION_BUILDERS:
        known = ", ".join(sorted([*_DISTRIBUTION_BUILDERS, "choice"]))
        raise _spec_error(f"parameter {name!r}: unknown distribution {tag!r} (known: {known})")
    builder, arity, shape = _DISTRIBUTION_BUILDERS[tag]
    if not (isinstance(args, list) and len(args) == arity):
        raise _spec_error(f"parameter {name!r}: {tag} needs {shape}")
    return builder(*args)


def load_sweep_spec(path: Path | str, seed_override: int | None = None) -> Sweep:
    """Build a sweep from a JSON sweep-spec file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _spec_error(f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _spec_error(f"--sweep-file {path} is not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise _spec_error("top level must be an object")
    sweep_type = doc.get("type")

    if sweep_type == "cartesian":
        parameters = doc.get("parameters")
        if not isinstance(parameters, dict) or not parameters:
            raise _spec_error("cartesian sweeps need a non-empty 'parameters' object")
        values = {name: _values_from_spec(name, spec) for name, spec in parameters.items()}
        filter_source = doc.get("filter")
        if filter_source is None:
            return CartesianSweep(values)
        if not isinstance(filter_source, str):
            raise _spec_error("'filter' must be text")
        return FilteredCartesianSweep(values, filter=filter_source)

    if sweep_type == "set":
        sets = doc.get("sets")
        if not isinstance(sets, list) or not sets:
            raise _spec_error("set sweeps need a non-empty 'sets' list")
        sweep = SetSweep(sets)
        # compared by kind, as Cartesian values are; a random sweep may repeat a set
        first_index: dict[tuple, int] = {}
        for i, params in enumerate(sweep.sets):
            key = tuple((type(v), v) for v in params.values())
            if key in first_index:
                raise _spec_error(f"sets {first_index[key]} and {i} are the same parameter set")
            first_index[key] = i
        return sweep

    if sweep_type == "random":
        count = doc.get("count")
        distributions = doc.get("distributions")
        if not isinstance(distributions, dict) or not distributions:
            raise _spec_error("random sweeps need a non-empty 'distributions' object")
        seed = seed_override if seed_override is not None else doc.get("seed")
        if seed is None:
            raise _spec_error("random sweeps need a 'seed' (or pass --seed)")
        dists = {
            name: _distribution_from_spec(name, spec) for name, spec in distributions.items()
        }
        return RandomSweep(count=count, distributions=dists, seed=seed)

    raise _spec_error(
        f"unknown sweep type {sweep_type!r} (expected cartesian, set, or random)"
    )
