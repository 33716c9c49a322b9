"""Mappings between parameter sets and simulation IDs.

Cartesian sweeps map naturally onto a labeled n-dimensional array: the
dimensions are the swept parameter names, the coordinates are the value
lists, and the cells hold simulation IDs in row-major order (last dimension
fastest). Every other sweep type uses a flat association table from
simulation ID to parameter set. The sweep types own the rules for names and
values: a Cartesian mapping's coords must form a valid `CartesianSweep` and
an association mapping's sets a valid `SetSweep` (which may repeat a set).

`cells` lists a mapping's simulations with their values as text; the
``run`` and ``collect`` commands take every simulation from it.

Both kinds serialize to a JSON document tagged ``sweep-mapping/1``. Key
order is fixed so files are diffable; integers and reals stay distinct
through a round-trip (reals use shortest round-trip printing).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from .errors import MappingFormatError
from .sweeps import (
    CartesianSweep,
    FilteredCartesianSweep,
    ParamValue,
    ParameterSet,
    SetSweep,
    Sweep,
    values_equal,
)
from .templates import format_grid, format_value

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
    sim_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "sim_ids", tuple(self.sim_ids))
        if len(self.dims) != len(self.coords) or set(self.dims) != set(self.coords):
            raise ValueError(f"dims {list(self.dims)} do not match coords keys {list(self.coords)}")
        grid = CartesianSweep({d: self.coords[d] for d in self.dims})
        object.__setattr__(self, "coords", grid.parameters)
        # kept, not derived per call: multi_index reads it once per simulation
        object.__setattr__(self, "_shape", tuple(len(v) for v in grid.parameters.values()))
        if grid.length() != len(self.sim_ids):
            raise ValueError(
                f"{len(self.sim_ids)} sim_ids do not fill shape {list(self.shape)} "
                f"({grid.length()} cells)"
            )
        # a sorted copy puts repeats side by side, in a list instead of a hash
        # set; zero-padded sequential IDs are already sorted, so this is linear
        if any(a == b for a, b in itertools.pairwise(sorted(self.sim_ids))):
            raise ValueError("duplicate sim_ids")

    @property
    def shape(self) -> tuple[int, ...]:
        return getattr(self, "_shape")

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
        cells = itertools.product(*(self.coords[dim] for dim in self.dims))
        for sim_id, combo in zip(self.sim_ids, cells):
            yield sim_id, dict(zip(self.dims, combo))

    def lookup_by_id(self, sim_id: str) -> ParameterSet:
        # built on the first lookup: a run writes its mapping and never looks anything up
        index = self.__dict__.get("_index")
        if index is None:
            index = {sid: i for i, sid in enumerate(self.sim_ids)}
            object.__setattr__(self, "_index", index)
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
        for sim_id in self.assignments:
            if not isinstance(sim_id, str):
                raise ValueError(f"sim_id {sim_id!r} is not text")
        sets = SetSweep(list(self.assignments.values()))
        object.__setattr__(self, "assignments", dict(zip(self.assignments, sets.sets)))
        object.__setattr__(self, "_names", sets.parameter_names)

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
        grid = sweep.parameters
        return CartesianMapping(sweep_name=sweep_name, dims=tuple(grid), coords=grid, sim_ids=ids)
    return AssociationMapping(
        sweep_name=sweep_name,
        assignments={sim_id: dict(params) for sim_id, params in zip(ids, sets)},
    )


def cells(mapping: Mapping) -> Iterator[tuple[str, dict[str, str]]]:
    """(sim_id, parameter values as text) in mapping order, made again on each
    call: a grid formats each distinct value once, an association mapping
    each set once."""
    if isinstance(mapping, CartesianMapping):
        return zip(mapping.sim_ids, format_grid(mapping.coords))
    return (
        (sim_id, {name: format_value(value) for name, value in params.items()})
        for sim_id, params in mapping.assignments.items()
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


def _construct(cls, **fields) -> Mapping:
    try:
        return cls(**fields)
    except ValueError as exc:
        raise MappingFormatError(str(exc)) from exc


def deserialize(text: str) -> Mapping:
    """Parse a mapping document. The mapping classes apply the sweep rules to
    its contents; this checks the document: schema, kind, field types, and
    the redundant `shape` and `parameter_names` against what they restate."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise MappingFormatError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    schema = doc.get("schema")
    _require(schema == SCHEMA_TAG, f"unknown schema {schema!r}, expected {SCHEMA_TAG!r}")
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
        _require(
            isinstance(coords, dict) and all(isinstance(v, list) for v in coords.values()),
            "coords must be an object of value lists",
        )
        _require(
            isinstance(shape, list)
            and all(isinstance(n, int) and not isinstance(n, bool) for n in shape),
            "shape must be a list of integers",
        )
        _require(
            isinstance(sim_ids, list) and all(isinstance(s, str) for s in sim_ids),
            "sim_ids must be a list of text IDs",
        )
        mapping = _construct(
            CartesianMapping, sweep_name=sweep_name, dims=dims, coords=coords, sim_ids=sim_ids
        )
        _require(
            shape == list(mapping.shape),
            f"shape {shape} does not match the coords, which give {list(mapping.shape)}",
        )
        return mapping

    if kind == "association":
        names = doc.get("parameter_names")
        assignments = doc.get("assignments")
        _require(
            isinstance(names, list) and all(isinstance(n, str) for n in names),
            "parameter_names must be a list of names",
        )
        _require(isinstance(assignments, dict), "assignments must be an object")
        mapping = _construct(AssociationMapping, sweep_name=sweep_name, assignments=assignments)
        found = list(mapping.parameter_names)
        _require(names == found, f"parameter_names {names} do not match the assignments' {found}")
        return mapping

    raise MappingFormatError(f"unknown mapping kind {kind!r}")


def read_mapping(path: Path | str) -> Mapping:
    return deserialize(Path(path).read_text(encoding="utf-8"))
