"""Mappings between parameter sets and simulation IDs.

Cartesian sweeps map naturally onto a labeled n-dimensional array: the
dimensions are the swept parameter names, the coordinates are the value
lists, and the cells hold simulation IDs in row-major order (last dimension
fastest). Every other sweep type uses a flat association table from
simulation ID to parameter set.

Both kinds serialize to a JSON document tagged ``sweep-mapping/1``. Key
order is fixed so files are diffable; integers and reals stay distinct
through a round-trip (reals use shortest round-trip printing).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from .errors import MappingFormatError
from .sweeps import (
    CartesianSweep,
    FilteredCartesianSweep,
    ParamValue,
    ParameterSet,
    Sweep,
    check_parameter_value,
    validate_parameter_set,
    values_equal,
)

__all__ = [
    "SCHEMA_TAG",
    "CartesianMapping",
    "AssociationMapping",
    "Mapping",
    "build_mapping",
    "serialize",
    "deserialize",
    "read_mapping",
]

SCHEMA_TAG = "sweep-mapping/1"


@dataclass(frozen=True)
class CartesianMapping:
    sweep_name: str
    dims: tuple[str, ...]
    coords: dict[str, tuple[ParamValue, ...]]
    shape: tuple[int, ...]
    sim_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "sim_ids", tuple(self.sim_ids))
        object.__setattr__(self, "coords", {d: tuple(v) for d, v in self.coords.items()})
        if not self.dims:
            raise ValueError("mapping needs at least one dimension")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError("duplicate dimension names")
        if set(self.coords) != set(self.dims):
            raise ValueError("coords keys do not match dims")
        if len(self.shape) != len(self.dims):
            raise ValueError("shape length does not match dims")
        for i, dim in enumerate(self.dims):
            if self.shape[i] < 1 or self.shape[i] != len(self.coords[dim]):
                raise ValueError(
                    f"shape[{i}] = {self.shape[i]} does not match the "
                    f"{len(self.coords[dim])} coordinate values of {dim!r}"
                )
        if math.prod(self.shape) != len(self.sim_ids):
            raise ValueError(
                f"{len(self.sim_ids)} sim_ids do not fill shape {list(self.shape)} "
                f"({math.prod(self.shape)} cells)"
            )
        if len(set(self.sim_ids)) != len(self.sim_ids):
            raise ValueError("duplicate sim_ids")
        object.__setattr__(self, "_index", {sid: i for i, sid in enumerate(self.sim_ids)})

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return self.dims

    def __len__(self) -> int:
        return len(self.sim_ids)

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Row-major multi-index of a flat cell index (last dim fastest)."""
        if not 0 <= flat < len(self.sim_ids):
            raise IndexError(f"flat index {flat} out of range")
        idx: list[int] = []
        for size in reversed(self.shape):
            flat, r = divmod(flat, size)
            idx.append(r)
        return tuple(reversed(idx))

    def flat_index(self, indices: tuple[int, ...]) -> int:
        if len(indices) != len(self.shape):
            raise IndexError(f"expected {len(self.shape)} indices, got {len(indices)}")
        flat = 0
        for i, size in zip(indices, self.shape):
            if not 0 <= i < size:
                raise IndexError(f"index {i} out of range for size {size}")
            flat = flat * size + i
        return flat

    def parameter_set_at(self, flat: int) -> ParameterSet:
        multi = self.multi_index(flat)
        return {dim: self.coords[dim][k] for dim, k in zip(self.dims, multi)}

    def items(self) -> Iterator[tuple[str, ParameterSet]]:
        for i, sim_id in enumerate(self.sim_ids):
            yield sim_id, self.parameter_set_at(i)

    def lookup_by_id(self, sim_id: str) -> ParameterSet:
        index = getattr(self, "_index")
        if sim_id not in index:
            raise KeyError(f"unknown simulation id {sim_id!r}")
        return self.parameter_set_at(index[sim_id])

    def lookup_by_params(self, params: ParameterSet) -> str:
        if set(params) != set(self.dims):
            raise KeyError(
                f"parameter names {sorted(params)} do not match sweep dimensions {sorted(self.dims)}"
            )
        flat = 0
        for dim in self.dims:
            candidates = self.coords[dim]
            wanted = params[dim]
            for k, value in enumerate(candidates):
                if values_equal(value, wanted):
                    break
            else:
                raise KeyError(f"no simulation has {dim}={wanted!r}")
            flat = flat * len(candidates) + k
        return self.sim_ids[flat]


@dataclass(frozen=True)
class AssociationMapping:
    sweep_name: str
    assignments: dict[str, ParameterSet]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("mapping has no assignments")
        validated: dict[str, ParameterSet] = {}
        names: list[str] | None = None
        for sim_id, params in self.assignments.items():
            if not isinstance(sim_id, str):
                raise ValueError(f"sim_id {sim_id!r} is not text")
            params = validate_parameter_set(params)
            if names is None:
                names = list(params)
                if not names:
                    raise ValueError("parameter sets must not be empty")
            elif list(params) != names:
                raise ValueError(
                    f"simulation {sim_id!r} has names {list(params)}, expected {names}: "
                    "all parameter sets must share one name sequence"
                )
            validated[sim_id] = params
        object.__setattr__(self, "assignments", validated)
        object.__setattr__(self, "_names", tuple(names or ()))

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return getattr(self, "_names")

    def __len__(self) -> int:
        return len(self.assignments)

    def items(self) -> Iterator[tuple[str, ParameterSet]]:
        for sim_id, params in self.assignments.items():
            yield sim_id, dict(params)

    def lookup_by_id(self, sim_id: str) -> ParameterSet:
        if sim_id not in self.assignments:
            raise KeyError(f"unknown simulation id {sim_id!r}")
        return dict(self.assignments[sim_id])

    def lookup_by_params(self, params: ParameterSet) -> str:
        if set(params) != set(self.parameter_names):
            raise KeyError(
                f"parameter names {sorted(params)} do not match sweep parameters "
                f"{sorted(self.parameter_names)}"
            )
        for sim_id, candidate in self.assignments.items():
            if all(values_equal(candidate[n], params[n]) for n in self.parameter_names):
                return sim_id
        raise KeyError(f"no simulation matches {params!r}")


Mapping = Union[CartesianMapping, AssociationMapping]


def build_mapping(
    sweep: Sweep,
    sets: list[ParameterSet],
    ids: list[str],
    *,
    sweep_name: str = "sweep",
) -> Mapping:
    """Link generated parameter sets to their simulation IDs.

    `sets` and `ids` must be in generation order. Cartesian sweeps get the
    labeled-array form; filtered Cartesian (ragged), set, and random sweeps
    get the association form.
    """
    if len(sets) != len(ids):
        raise ValueError(
            f"internal consistency: {len(sets)} parameter sets but {len(ids)} sim_ids"
        )
    if isinstance(sweep, CartesianSweep) and not isinstance(sweep, FilteredCartesianSweep):
        dims = tuple(sweep.parameters)
        coords = {d: tuple(v) for d, v in sweep.parameters.items()}
        shape = tuple(len(coords[d]) for d in dims)
        if math.prod(shape) != len(ids):
            raise ValueError(
                f"internal consistency: {len(ids)} sim_ids for a grid of {math.prod(shape)}"
            )
        return CartesianMapping(
            sweep_name=sweep_name, dims=dims, coords=coords, shape=shape, sim_ids=tuple(ids)
        )
    return AssociationMapping(
        sweep_name=sweep_name,
        assignments={sim_id: dict(params) for sim_id, params in zip(ids, sets)},
    )


def serialize(mapping: Mapping) -> str:
    """Deterministic JSON text for a mapping (trailing newline included)."""
    if isinstance(mapping, CartesianMapping):
        doc = {
            "schema": SCHEMA_TAG,
            "kind": "cartesian",
            "sweep_name": mapping.sweep_name,
            "dims": list(mapping.dims),
            "coords": {d: list(mapping.coords[d]) for d in mapping.dims},
            "shape": list(mapping.shape),
            "sim_ids": list(mapping.sim_ids),
        }
    elif isinstance(mapping, AssociationMapping):
        doc = {
            "schema": SCHEMA_TAG,
            "kind": "association",
            "sweep_name": mapping.sweep_name,
            "parameter_names": list(mapping.parameter_names),
            "assignments": {sid: dict(ps) for sid, ps in mapping.assignments.items()},
        }
    else:
        raise TypeError(f"not a mapping: {mapping!r}")
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _reject_constant(text: str):
    raise MappingFormatError(f"non-finite number {text!r} is not allowed in a mapping")


def _require(condition: bool, message: str):
    if not condition:
        raise MappingFormatError(message)


def deserialize(text: str) -> Mapping:
    """Parse a mapping document, validating the schema and all invariants."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MappingFormatError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    schema = doc.get("schema")
    _require(
        schema == SCHEMA_TAG,
        f"unknown schema {schema!r}, expected {SCHEMA_TAG!r}",
    )
    kind = doc.get("kind")
    sweep_name = doc.get("sweep_name")
    _require(isinstance(sweep_name, str), "sweep_name must be text")

    if kind == "cartesian":
        dims = doc.get("dims")
        coords = doc.get("coords")
        shape = doc.get("shape")
        sim_ids = doc.get("sim_ids")
        _require(
            isinstance(dims, list) and all(isinstance(d, str) for d in dims),
            "dims must be a list of names",
        )
        _require(isinstance(coords, dict), "coords must be an object")
        _require(
            isinstance(shape, list)
            and all(isinstance(n, int) and not isinstance(n, bool) for n in shape),
            "shape must be a list of integers",
        )
        _require(
            isinstance(sim_ids, list) and all(isinstance(s, str) for s in sim_ids),
            "sim_ids must be a list of text IDs",
        )
        for dim, values in coords.items():
            _require(isinstance(values, list), f"coords[{dim!r}] must be a list")
            for v in values:
                try:
                    check_parameter_value(v, where=f"coords[{dim!r}]")
                except ValueError as exc:
                    raise MappingFormatError(str(exc)) from exc
        try:
            return CartesianMapping(
                sweep_name=sweep_name,
                dims=tuple(dims),
                coords={d: tuple(v) for d, v in coords.items()},
                shape=tuple(shape),
                sim_ids=tuple(sim_ids),
            )
        except ValueError as exc:
            raise MappingFormatError(str(exc)) from exc

    if kind == "association":
        names = doc.get("parameter_names")
        assignments = doc.get("assignments")
        _require(
            isinstance(names, list) and all(isinstance(n, str) for n in names),
            "parameter_names must be a list of names",
        )
        _require(isinstance(assignments, dict) and assignments, "assignments must be a non-empty object")
        for sim_id, params in assignments.items():
            _require(isinstance(params, dict), f"assignment {sim_id!r} must be an object")
            _require(
                list(params) == list(names),
                f"assignment {sim_id!r} has names {list(params)}, expected {list(names)}",
            )
        try:
            return AssociationMapping(sweep_name=sweep_name, assignments=dict(assignments))
        except ValueError as exc:
            raise MappingFormatError(str(exc)) from exc

    raise MappingFormatError(f"unknown mapping kind {kind!r}")


def read_mapping(path: Path | str) -> Mapping:
    return deserialize(Path(path).read_text(encoding="utf-8"))
