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
    sim_ids,
)
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
    return build_mapping(sweep, sweep_name=name), sets, list(sim_ids(len(sets)))


class TestSimIds:
    @pytest.mark.parametrize(
        "total, first, last",
        [(1, "0", "0"), (10, "0", "9"), (11, "00", "10"), (300, "000", "299"), (1001, "0000", "1000")],
    )
    def test_width_is_that_of_the_last_id(self, total, first, last):
        ids = list(sim_ids(total))
        assert len(ids) == total
        assert (ids[0], ids[-1]) == (first, last)
        assert ids == [str(k).zfill(len(last)) for k in range(total)]

    @pytest.mark.parametrize("total", [1, 2, 9, 10, 99, 100, 101, 999, 1000, 1001, 4321])
    def test_unique_one_width_and_sorted(self, total):
        ids = list(sim_ids(total))
        assert len(set(ids)) == total
        assert len({len(sim_id) for sim_id in ids}) == 1
        assert sorted(ids) == ids  # fixed padding: lexicographic == numeric
        assert all(sim_id.isdigit() for sim_id in ids)

    @pytest.mark.parametrize("total", [1, 10, 11, 999, 1000, 1001, 2500])
    def test_a_sequence_equal_to_the_tuple_of_its_ids(self, total):
        ids = sim_ids(total)
        held = tuple(ids)
        assert ids == held and held == ids and ids == list(held) and ids == sim_ids(total)
        assert ids != held[:-1] and ids != sim_ids(total + 1) and ids != "0"
        assert (len(ids), ids[0], ids[-1], ids[total // 2]) == (total, held[0], held[-1], held[total // 2])
        assert [ids.index(sim_id) for sim_id in held] == list(range(total))
        assert held[-1] in ids and str(total).zfill(len(held[0])) not in ids
        with pytest.raises(IndexError):
            ids[total]
        with pytest.raises(ValueError):
            ids.index("x")

    @pytest.mark.parametrize("cut", [slice(1, 3), slice(None, None, -1), slice(-2, None)], ids=["1:3", "::-1", "-2:"])
    def test_a_slice_is_the_tuple_of_its_ids(self, cut):
        ids = sim_ids(12)
        assert ids[cut] == tuple(ids)[cut] == tuple(f"{k:02d}" for k in range(12))[cut]
        assert type(ids[cut]) is tuple
        assert ids[1:3] == ("01", "02")

    def test_deterministic(self):
        assert list(sim_ids(1001)) == list(sim_ids(1001))

    def test_makes_exactly_total_ids_as_they_are_read(self):
        assert len(list(sim_ids(7))) == 7
        assert len(sim_ids(10**12)) == 10**12
        ids = iter(sim_ids(10**12))
        assert (next(ids), next(ids)) == ("000000000000", "000000000001")

    @pytest.mark.parametrize("total", [1, 10, 11, 300, 1001])
    @pytest.mark.parametrize(
        "make",
        [
            lambda total: CartesianSweep({"a": list(range(total)), "b": [0.5]}),
            lambda total: FilteredCartesianSweep({"a": list(range(total + 5))}, filter="a >= 5"),
            lambda total: SetSweep([{"a": k} for k in range(total)]),
            lambda total: RandomSweep(count=total, distributions={"u": Uniform(0, 1)}, seed=5),
        ],
        ids=["cartesian", "filtered", "set", "random"],
    )
    def test_build_mapping_numbers_the_sets_in_generation_order(self, make, total):
        sweep = make(total)
        mapping = build_mapping(sweep)
        ids = [sim_id for sim_id, _ in mapping.items()]
        assert ids == list(sim_ids(total))
        assert {len(sim_id) for sim_id in ids} == {len(str(total - 1))}
        assert [params for _, params in mapping.items()] == sweep.generate()
        assert build_mapping(sweep) == mapping


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

    def test_lookup_by_id_on_a_million_cells_reads_the_id(self):
        mapping = build_mapping(CartesianSweep({"a": list(range(1000)), "b": [k + 0.5 for k in range(1000)]}))
        assert mapping.lookup_by_id("000000") == {"a": 0, "b": 0.5}
        assert mapping.lookup_by_id("001002") == {"a": 1, "b": 2.5}
        assert mapping.lookup_by_id("999999") == {"a": 999, "b": 999.5}
        assert "_index" not in vars(mapping)  # no index of every ID
        held = CartesianMapping("sweep", ("a",), {"a": [1, 2]}, ["0", "1"])
        assert held.lookup_by_id("1") == {"a": 2}
        # the same message as for IDs held in a tuple
        for unknown in ["1000000", "99999", "0000000", "00000a", "+00001", " 00001", "٠٠٠٠٠١", "", 5, None]:
            with pytest.raises(KeyError) as computed:
                mapping.lookup_by_id(unknown)
            with pytest.raises(KeyError) as from_tuple:
                held.lookup_by_id(unknown)
            assert computed.value.args == from_tuple.value.args == (f"unknown simulation id {unknown!r}",)

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

    @pytest.mark.parametrize(
        "head, assignments, key",
        [
            ('"kind": "association"', '"0": {"a": 1}, "1": {"a": 2}, "0": {"a": 3}', "0"),
            ('"kind": "association"', '"0": {"a": 1, "a": 2}', "a"),
            ('"kind": "association", "kind": "association"', '"0": {"a": 1}', "kind"),
        ],
        ids=["sim_id", "parameter", "field"],
    )
    def test_a_repeated_key_is_refused(self, head, assignments, key):
        """json.loads keeps the last of two equal keys, which would lose a set
        or a value without a word."""
        doc = (
            f'{{"schema": "sweep-mapping/1", {head}, "sweep_name": "x", "parameter_names": ["a"], '
            f'"assignments": {{{assignments}}}}}'
        )
        with pytest.raises(MappingFormatError, match=f"an object repeats the key '{key}'"):
            deserialize(doc)

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
        ids = list(sim_ids(len(sets)))
        mapping = build_mapping(sweep, sweep_name="prop")
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
