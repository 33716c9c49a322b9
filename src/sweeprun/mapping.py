"""Mappings between parameter sets and simulation IDs.

Cartesian sweeps map naturally onto a labeled n-dimensional array: the
dimensions are the swept parameter names, the coordinates are the value
lists, and the cells hold simulation IDs in row-major order (last dimension
fastest). Every other sweep type uses a flat association table from
simulation ID to parameter set. Simulations are numbered in generation
order by `sim_ids`, a sequence that makes each ID when it is read, and
that is all a Cartesian mapping holds of its IDs. The sweep types own the
rules for names and values: a Cartesian mapping's coords must form a valid
`CartesianSweep` and an association mapping's sets a valid `SetSweep`
(which may repeat a set).

`cells` lists a mapping's simulations with their values as text; the
``run`` and ``collect`` commands take every simulation from it.

Both kinds serialize to a JSON document tagged ``sweep-mapping/1``. Key
order is fixed so files are diffable; integers and reals stay distinct
through a round-trip (reals use shortest round-trip printing).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Union

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
    "sim_ids",
    "serialize",
    "deserialize",
    "read_mapping",
]

SCHEMA_TAG = "sweep-mapping/1"
# the last three digits of an ID, in order: a wider ID is a prefix and one of these
_TAILS = tuple(f"{k:03d}" for k in range(1000))
# the end of a Cartesian document as json.dumps(indent=2) writes it, with no ID and with some
_IDS_EMPTY = '\n  "sim_ids": []\n}'
_IDS_OPEN, _IDS_SEP, _IDS_CLOSE = '\n  "sim_ids": [\n    "', '",\n    "', '"\n  ]\n}\n'


class SimIds(Sequence):
    """The IDs of `total` simulations (see `sim_ids`), each made when it is
    read; equal to any sequence of the same IDs, such as their tuple."""

    __slots__ = ("total", "width")

    def __init__(self, total: int):
        self.total = total
        self.width = len(str(total - 1))

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, k):
        """The ID at `k`; a slice is the tuple of its IDs."""
        at = range(self.total)[k]
        return tuple(f"{n:0{self.width}d}" for n in at) if isinstance(k, slice) else f"{at:0{self.width}d}"

    def number(self, sim_id) -> int | None:
        """The position of `sim_id`, read from its digits; None if it is not one of these IDs."""
        if isinstance(sim_id, str) and len(sim_id) == self.width and sim_id.isascii() and sim_id.isdigit():
            k = int(sim_id)
            return k if k < self.total else None
        return None

    def index(self, sim_id) -> int:
        k = self.number(sim_id)
        if k is None:
            raise ValueError(f"{sim_id!r} is not in sim_ids")
        return k

    def __eq__(self, other):
        if isinstance(other, SimIds):
            return self.total == other.total
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(other) == self.total and all(map(operator.eq, self, other))

    def _runs(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        """(prefix, tails): the IDs in runs of up to 1000 that differ only in their last three digits."""
        if self.width <= 3:
            yield "", tuple(map(self.__getitem__, range(self.total)))
        else:
            for p in range(-(-self.total // 1000)):
                yield f"{p:0{self.width - 3}d}", _TAILS[: self.total - 1000 * p]

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in self._runs())

    def joined(self, sep: str) -> Iterator[str]:
        """The IDs joined by `sep`, a run at a time: every piece but the first
        opens with `sep`, so the pieces concatenate to the whole."""
        for k, (prefix, tails) in enumerate(self._runs()):
            joiner = sep + prefix
            yield (joiner if k else prefix) + joiner.join(tails)


@dataclass(frozen=True)
class CartesianMapping:
    sweep_name: str
    dims: tuple[str, ...]
    coords: dict[str, tuple[ParamValue, ...]]
    sim_ids: Sequence[str]  # the formula's `SimIds` kept as they are; any other IDs become a tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        formula = isinstance(self.sim_ids, SimIds)
        if not formula:
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
        # the formula's IDs are distinct; a sorted copy of any others puts
        # repeats side by side, in a list instead of a hash set
        if not formula and any(a == b for a, b in itertools.pairwise(sorted(self.sim_ids))):
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
        if isinstance(self.sim_ids, SimIds):  # the formula's IDs are read from their digits
            flat = self.sim_ids.number(sim_id)
        else:
            # built on the first lookup: a run writes its mapping and never looks anything up
            index = self.__dict__.get("_index")
            if index is None:
                index = {sid: i for i, sid in enumerate(self.sim_ids)}
                object.__setattr__(self, "_index", index)
            flat = index.get(sim_id)
        if flat is None:
            raise KeyError(f"unknown simulation id {sim_id!r}")
        return self.parameter_set_at(flat)

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


def sim_ids(total: int) -> SimIds:
    """The IDs of `total` simulations, as a sequence that makes each one when
    it is read: 0 to total-1, zero-padded to the width of the last, so that
    text order is number order and shell globs over output files sort as the
    sweep does."""
    return SimIds(total)


def build_mapping(sweep: Sweep, *, sweep_name: str = "sweep") -> Mapping:
    """Number the sweep's parameter sets in generation order. A Cartesian
    sweep gets the labeled-array form and is sized, never listed; every other
    kind (filtered Cartesian, set, random) is generated once and gets the
    association form."""
    if isinstance(sweep, CartesianSweep) and not isinstance(sweep, FilteredCartesianSweep):
        grid = sweep.parameters
        return CartesianMapping(
            sweep_name=sweep_name, dims=tuple(grid), coords=grid, sim_ids=sim_ids(sweep.length())
        )
    sets = sweep.generate()
    return AssociationMapping(sweep_name=sweep_name, assignments=dict(zip(sim_ids(len(sets)), sets)))


def cells(
    mapping: Mapping, text: Callable[[str], str] | None = None
) -> Iterator[tuple[str, dict[str, str]]]:
    """(sim_id, parameter values as text) in mapping order, made again on each
    call, each cell's names in `parameter_names` order: a grid formats each
    distinct value once, an association mapping each set once. A `text`
    function (``shlex.quote`` for a command) is applied to each formatted
    value as often: once per axis value of a grid, once per value of each
    set. The sim_id is never passed through it."""
    if isinstance(mapping, CartesianMapping):
        return zip(mapping.sim_ids, format_grid(mapping.coords, text))
    spell = format_value if text is None else lambda value: text(format_value(value))
    return (
        (sim_id, {name: spell(value) for name, value in params.items()})
        for sim_id, params in mapping.assignments.items()
    )


def _pieces(mapping: CartesianMapping) -> Iterator[str]:
    """What `serialize` joins for `mapping`: the head, the IDs a run at a time, and the close."""
    doc = {
        "schema": SCHEMA_TAG,
        "kind": "cartesian",
        "sweep_name": mapping.sweep_name,
        "dims": list(mapping.dims),
        "coords": {d: list(mapping.coords[d]) for d in mapping.dims},
        "shape": list(mapping.shape),
        "sim_ids": [],
    }
    yield json.dumps(doc, indent=2, allow_nan=False)[: -len(_IDS_EMPTY)] + _IDS_OPEN
    if isinstance(mapping.sim_ids, SimIds):
        yield from mapping.sim_ids.joined(_IDS_SEP)
    else:
        yield _IDS_SEP.join(json.dumps(sim_id)[1:-1] for sim_id in mapping.sim_ids)
    yield _IDS_CLOSE


def serialize(mapping: Mapping) -> str:
    """Deterministic JSON text for a mapping (trailing newline included), as
    ``json.dumps(indent=2)`` writes it; `sim_ids` are joined a run at a time."""
    if isinstance(mapping, CartesianMapping):
        return "".join(_pieces(mapping))
    if not isinstance(mapping, AssociationMapping):
        raise TypeError(f"not a mapping: {mapping!r}")
    doc = {
        "schema": SCHEMA_TAG,
        "kind": "association",
        "sweep_name": mapping.sweep_name,
        "parameter_names": list(mapping.parameter_names),
        "assignments": mapping.assignments,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _reject_constant(text: str):
    raise MappingFormatError(f"non-finite number {text!r} is not allowed in a mapping")


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of a mapping document; a key it repeats, of which
    json.loads would keep only the last value, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise MappingFormatError(f"an object repeats the key {key!r}")
    return obj


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
    the redundant `shape` and `parameter_names` against what they restate.
    The text `serialize` writes for `sim_ids` is read back with them."""
    mapping = _read_formula(text)
    return _parse(text) if mapping is None else mapping


def _read_formula(text: str) -> CartesianMapping | None:
    """The mapping holding `sim_ids(N)` whose `serialize` is `text`, else
    None: only the head is parsed, and what `serialize` writes for it is
    compared with the text a run at a time."""
    at = text.find(_IDS_OPEN)
    try:
        mapping = _parse(text[:at] + _IDS_EMPTY, formula=True) if at >= 0 else None
    except MappingFormatError:
        return None
    if not isinstance(mapping, CartesianMapping):
        return None
    pos = 0
    for piece in _pieces(mapping):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return mapping if pos == len(text) else None


def _parse(text: str, formula: bool = False) -> Mapping:
    """`deserialize` by ``json.loads``; with `formula`, a Cartesian document's
    sim_ids are `sim_ids` of the size its coords give."""
    try:
        doc = json.loads(text, object_pairs_hook=_object, parse_constant=_reject_constant)
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
        if formula:  # the head of a document, whose sim_ids are []
            sim_ids = SimIds(math.prod(map(len, coords.values())))
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
