"""Mapping construction, lookups, and serialization round-trips."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from sweeprun.errors import MappingFormatError
from sweeprun.mapping import (
    AssociationMapping,
    CartesianMapping,
    build_mapping,
    deserialize,
    serialize,
)
from sweeprun.naming import NamerConfig, SequentialNamer
from sweeprun.sweeps import (
    CartesianSweep,
    Choice,
    FilteredCartesianSweep,
    IntegerUniform,
    LogUniform,
    Normal,
    RandomSweep,
    SetSweep,
    Uniform,
    linspace,
    values_equal,
)


def _mapping_for(sweep, name="sweep"):
    sets = sweep.generate()
    ids = list(SequentialNamer(NamerConfig(), len(sets)))
    return build_mapping(sweep, sets, ids, sweep_name=name), sets, ids


class TestBuildMapping:
    def test_two_by_one_grid(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        assert isinstance(mapping, CartesianMapping)
        assert mapping.dims == ("a", "b")
        assert mapping.shape == (2, 1)
        assert mapping.sim_ids == ("0", "1")

    def test_reference_grid_shape(self):
        sweep = CartesianSweep(
            {"beta": linspace(2, 4, 3), "sigma": linspace(2, 20, 10), "rho": linspace(2, 30, 10)}
        )
        mapping, _sets, _ids = _mapping_for(sweep)
        assert mapping.shape == (3, 10, 10)
        assert len(mapping.sim_ids) == 300

    def test_filtered_sweep_gets_association(self):
        sweep = FilteredCartesianSweep({"x": [1, 2], "y": [1, 2]}, filter="x > y")
        mapping, _sets, _ids = _mapping_for(sweep)
        assert isinstance(mapping, AssociationMapping)
        assert mapping.assignments == {"0": {"x": 2, "y": 1}}

    def test_length_mismatch_rejected(self):
        sweep = CartesianSweep({"a": [1, 2]})
        with pytest.raises(ValueError, match="consistency"):
            build_mapping(sweep, sweep.generate(), ["0"])


class TestLookups:
    def test_association_lookup_by_id(self):
        sweep = FilteredCartesianSweep({"x": [1, 2], "y": [1, 2]}, filter="x > y")
        mapping, _sets, _ids = _mapping_for(sweep)
        assert mapping.lookup_by_id("0") == {"x": 2, "y": 1}

    def test_cartesian_lookup_by_id_row_major(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        assert mapping.lookup_by_id("1") == {"a": 2, "b": 10}

    def test_unknown_id(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        with pytest.raises(KeyError):
            mapping.lookup_by_id("zzz")

    def test_lookup_by_params(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        assert mapping.lookup_by_params({"a": 2, "b": 10}) == "1"

    def test_lookup_by_params_no_match(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        with pytest.raises(KeyError):
            mapping.lookup_by_params({"a": 3, "b": 10})

    def test_lookup_by_params_is_kind_aware(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        with pytest.raises(KeyError):
            mapping.lookup_by_params({"a": 2.0, "b": 10})

    def test_wrong_names_rejected(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        with pytest.raises(KeyError):
            mapping.lookup_by_params({"a": 2})

    def test_association_lookup_by_params_is_kind_aware(self):
        mapping = AssociationMapping("demo", {"0": {"a": 2, "b": "x"}, "1": {"a": 2.0, "b": "x"}})
        assert mapping.lookup_by_params({"a": 2, "b": "x"}) == "0"
        assert mapping.lookup_by_params({"b": "x", "a": 2.0}) == "1"
        for missing in ({"a": "2", "b": "x"}, {"a": 3, "b": "x"}, {"a": [2], "b": "x"}):
            with pytest.raises(KeyError):
                mapping.lookup_by_params(missing)

    def test_association_lookup_by_params_returns_first_of_equal_sets(self):
        mapping = AssociationMapping("demo", {"7": {"a": 1}, "3": {"a": 1}, "5": {"a": 0.0}})
        assert mapping.lookup_by_params({"a": 1}) == "7"
        assert mapping.lookup_by_params({"a": -0.0}) == "5"

    def test_cartesian_agrees_with_generation(self):
        # oracle: regenerate the grid with independent index arithmetic
        sweep = CartesianSweep({"p": [1, 2, 3], "q": [0.5, 1.5], "r": ["u", "v"]})
        mapping, sets, ids = _mapping_for(sweep)
        dims, coords, shape = mapping.dims, mapping.coords, mapping.shape
        for flat, sim_id in enumerate(ids):
            i = flat // (shape[1] * shape[2])
            j = (flat // shape[2]) % shape[1]
            k = flat % shape[2]
            expected = {dims[0]: coords[dims[0]][i], dims[1]: coords[dims[1]][j], dims[2]: coords[dims[2]][k]}
            assert mapping.lookup_by_id(sim_id) == expected
            assert sets[flat] == expected


    @pytest.mark.parametrize(
        "parameters",
        [
            {"p": [3, 1, 2]},
            {"p": [0.5]},
            {"p": [1, 2, 3], "q": [0.5, -1e-07, 1e16], "r": ["u", "v"]},
        ],
        ids=["1-D", "single cell", "3-D"],
    )
    def test_items_walk_the_cells_in_flat_order(self, parameters):
        mapping, _sets, ids = _mapping_for(CartesianSweep(parameters))
        expected = [(ids[i], mapping.parameter_set_at(i)) for i in range(len(ids))]
        assert list(mapping.items()) == expected
        # equal floats and ints would compare equal; the kinds must match too
        for (_, got), (_, want) in zip(mapping.items(), expected):
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


class TestSerialization:
    def test_cartesian_round_trip(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10.0]})
        mapping, _sets, _ids = _mapping_for(sweep, name="demo")
        text = serialize(mapping)
        back = deserialize(text)
        assert back == mapping
        assert serialize(back) == text
        # integer vs real survives the trip
        assert all(isinstance(v, int) for v in back.coords["a"])
        assert all(isinstance(v, float) for v in back.coords["b"])

    def test_association_round_trip(self):
        sweep = SetSweep([{"x": 1, "s": "fast"}, {"x": 2.5, "s": "slow"}])
        mapping, _sets, _ids = _mapping_for(sweep, name="demo")
        back = deserialize(serialize(mapping))
        assert back == mapping
        assert isinstance(back.assignments["0"]["x"], int)
        assert isinstance(back.assignments["1"]["x"], float)

    def test_document_shape(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep, name="demo")
        doc = json.loads(serialize(mapping))
        assert doc == {
            "schema": "sweep-mapping/1",
            "kind": "cartesian",
            "sweep_name": "demo",
            "dims": ["a", "b"],
            "coords": {"a": [1, 2], "b": [10]},
            "shape": [2, 1],
            "sim_ids": ["0", "1"],
        }

    def test_shape_sim_id_mismatch_rejected(self):
        doc = {
            "schema": "sweep-mapping/1",
            "kind": "cartesian",
            "sweep_name": "x",
            "dims": ["a", "b"],
            "coords": {"a": [1, 2], "b": [3, 4]},
            "shape": [2, 2],
            "sim_ids": ["0", "1", "2"],
        }
        with pytest.raises(MappingFormatError, match="sim_ids"):
            deserialize(json.dumps(doc))

    def test_unknown_schema_rejected(self):
        with pytest.raises(MappingFormatError, match="schema"):
            deserialize('{"schema": "sweep-mapping/9", "kind": "cartesian"}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(MappingFormatError, match="kind"):
            deserialize('{"schema": "sweep-mapping/1", "kind": "pivot", "sweep_name": "x"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(MappingFormatError, match="JSON"):
            deserialize("{nope")

    def test_nan_rejected(self):
        doc = (
            '{"schema": "sweep-mapping/1", "kind": "cartesian", "sweep_name": "x",'
            ' "dims": ["a"], "coords": {"a": [NaN]}, "shape": [1], "sim_ids": ["0"]}'
        )
        with pytest.raises(MappingFormatError):
            deserialize(doc)

    def test_duplicate_sim_ids_rejected(self):
        doc = {
            "schema": "sweep-mapping/1",
            "kind": "cartesian",
            "sweep_name": "x",
            "dims": ["a"],
            "coords": {"a": [1, 2]},
            "shape": [2],
            "sim_ids": ["0", "0"],
        }
        with pytest.raises(MappingFormatError, match="duplicate"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("sim_ids", [["0", "1", "0"], ["7", "10", "2", "10"]])
    def test_repeats_that_are_not_neighbours_rejected(self, sim_ids):
        coords = {"a": list(range(len(sim_ids)))}
        doc = {
            "schema": "sweep-mapping/1",
            "kind": "cartesian",
            "sweep_name": "x",
            "dims": ["a"],
            "coords": coords,
            "shape": [len(sim_ids)],
            "sim_ids": sim_ids,
        }
        with pytest.raises(MappingFormatError, match="duplicate"):
            deserialize(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate sim_ids"):
            CartesianMapping(sweep_name="x", dims=("a",), coords=coords, sim_ids=sim_ids)

    def test_distinct_ids_in_any_order_keep_their_order(self):
        mapping = CartesianMapping(
            sweep_name="x", dims=("a",), coords={"a": [1, 2, 3]}, sim_ids=["b", "c", "a"]
        )
        assert mapping.sim_ids == ("b", "c", "a")
        assert mapping.lookup_by_id("a") == {"a": 3}

    def test_heterogeneous_association_rejected(self):
        doc = {
            "schema": "sweep-mapping/1",
            "kind": "association",
            "sweep_name": "x",
            "parameter_names": ["a"],
            "assignments": {"0": {"a": 1}, "1": {"b": 1}},
        }
        with pytest.raises(MappingFormatError, match="names"):
            deserialize(json.dumps(doc))

    def test_serialization_is_deterministic(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        assert serialize(mapping) == serialize(mapping)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"coords": {"a": [1, 1], "b": [10]}}, "more than once"),
            ({"dims": ["sim_id", "b"], "coords": {"sim_id": [1, 2], "b": [10]}}, "reserved"),
            ({"dims": ["a b", "b"], "coords": {"a b": [1, 2], "b": [10]}}, "invalid parameter"),
            ({"shape": [1, 2]}, "shape"),
            (
                {
                    "kind": "association",
                    "parameter_names": ["a"],
                    "assignments": {"0": {"a": 1}, "1": [1]},
                },
                "object of name: value pairs",
            ),
        ],
        ids=["repeated-coords", "sim_id-dim", "non-identifier", "wrong-shape", "set-not-object"],
    )
    def test_documents_no_sweep_could_produce_rejected(self, change, message):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        mapping, _sets, _ids = _mapping_for(sweep)
        doc = {**json.loads(serialize(mapping)), **change}
        with pytest.raises(MappingFormatError, match=message):
            deserialize(json.dumps(doc))

    def test_parameter_names_must_match_assignments(self):
        mapping, _sets, _ids = _mapping_for(SetSweep([{"x": 1, "y": 2}]))
        doc = json.loads(serialize(mapping))
        doc["parameter_names"] = ["y", "x"]
        with pytest.raises(MappingFormatError, match="parameter_names"):
            deserialize(json.dumps(doc))

    def test_repeated_random_sets_round_trip(self):
        sweep = RandomSweep(count=20, distributions={"c": Choice(["p", "q"])}, seed=3)
        mapping, sets, _ids = _mapping_for(sweep)
        assert len({s["c"] for s in sets}) < len(sets)
        text = serialize(mapping)
        assert deserialize(text) == mapping
        assert serialize(deserialize(text)) == text


def test_cartesian_mapping_shape_is_derived_from_coords():
    coords = {"a": [1, 2, 3], "b": ["x", "y"]}
    mapping = CartesianMapping("demo", ("a", "b"), coords, [str(i) for i in range(6)])
    assert [f.name for f in dataclasses.fields(CartesianMapping)] == [
        "sweep_name", "dims", "coords", "sim_ids",
    ]
    assert mapping.shape == (3, 2)
    assert mapping.coords == {"a": (1, 2, 3), "b": ("x", "y")}


def _random_sweep(rng: random.Random):
    kind = rng.choice(["cartesian", "filtered", "set", "random"])
    if kind == "cartesian":
        return CartesianSweep(
            {
                name: rng.sample(range(50), rng.randint(1, 4))
                for name in ["x", "y", "z"][: rng.randint(1, 3)]
            }
        )
    if kind == "filtered":
        values = sorted(rng.sample(range(10), 3))
        # keeps at least the maximal pair, so the sweep is never empty
        return FilteredCartesianSweep({"x": values, "y": values}, filter="x >= y")
    if kind == "set":
        names = ["a", "b"]
        seen = set()
        sets = []
        for _ in range(rng.randint(1, 6)):
            candidate = (rng.randint(0, 30), round(rng.uniform(0, 1), 6))
            if candidate in seen:
                continue
            seen.add(candidate)
            sets.append(dict(zip(names, candidate)))
        return SetSweep(sets or [{"a": 1, "b": 0.5}])
    return RandomSweep(
        count=rng.randint(1, 8),
        distributions={
            "u": Uniform(0, 1),
            "n": rng.choice([Normal(0, 1), LogUniform(0.01, 10)]),
            "k": IntegerUniform(0, 10**6),
            "c": Choice(["p", "q", "r"]),
        },
        seed=rng.randint(0, 2**32),
    )


def test_bijection_and_round_trip_over_randomized_sweeps():
    rng = random.Random(424242)
    for _ in range(100):
        sweep = _random_sweep(rng)
        sets = sweep.generate()
        ids = list(SequentialNamer(NamerConfig(), len(sets)))
        mapping = build_mapping(sweep, sets, ids, sweep_name="prop")
        for params, sim_id in zip(sets, ids):
            found_id = mapping.lookup_by_params(params)
            round_tripped = mapping.lookup_by_id(found_id)
            assert list(round_tripped) == list(params)
            assert all(values_equal(round_tripped[k], params[k]) for k in params)
            assert mapping.lookup_by_id(sim_id) == params
        text = serialize(mapping)
        back = deserialize(text)
        assert back == mapping
        assert serialize(back) == text
