"""Sweep construction, generation order, and random-sweep sampling."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from sweeprun.errors import EmptySweepError
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
    check_parameter_value,
    linspace,
    validate_parameter_set,
    values_equal,
)


class TestLinspace:
    def test_three_values_between_2_and_4(self):
        assert linspace(2, 4, 3) == [2.0, 3.0, 4.0]

    def test_endpoints_only(self):
        assert linspace(0, 1, 2) == [0.0, 1.0]

    def test_ten_values_between_2_and_30(self):
        values = linspace(2, 30, 10)
        assert len(values) == 10
        assert values[0] == 2.0
        assert values[-1] == 30.0
        step = (30 - 2) / 9
        for i, v in enumerate(values[:-1]):
            assert v == 2 + i * step

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        for start, stop, count in [(2, 4, 3), (2, 20, 10), (2, 30, 10), (-1.5, 7.25, 13)]:
            assert linspace(start, stop, count) == list(np.linspace(start, stop, count))

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            linspace(0, 1, 1)

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            linspace(4, 2, 3)
        with pytest.raises(ValueError):
            linspace(2, 2, 3)


class TestParameterValues:
    def test_accepts_int_float_text(self):
        assert check_parameter_value(28) == 28
        assert check_parameter_value(2.67) == 2.67
        assert check_parameter_value("fast") == "fast"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, None, [1]])
    def test_rejects_nonfinite_and_foreign_types(self, bad):
        with pytest.raises(ValueError):
            check_parameter_value(bad)

    def test_reserved_name_rejected(self):
        with pytest.raises(ValueError):
            validate_parameter_set({"sim_id": 1})

    @pytest.mark.parametrize("name", ["1abc", "a-b", "a b", "", "a.b"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError):
            validate_parameter_set({name: 1})

    def test_values_equal_is_kind_aware(self):
        assert values_equal(2, 2)
        assert values_equal(2.0, 2.0)
        assert not values_equal(2, 2.0)
        assert not values_equal("2", 2)
        assert values_equal("a", "a")


class TestCartesian:
    def test_two_by_one(self):
        sweep = CartesianSweep({"a": [1, 2], "b": [10]})
        assert sweep.generate() == [{"a": 1, "b": 10}, {"a": 2, "b": 10}]

    def test_reference_grid_count_and_first_set(self):
        sweep = CartesianSweep(
            {"beta": linspace(2, 4, 3), "sigma": linspace(2, 20, 10), "rho": linspace(2, 30, 10)}
        )
        assert sweep.length() == 300
        sets = sweep.generate()
        assert len(sets) == 300
        assert sets[0] == {"beta": 2.0, "sigma": 2.0, "rho": 2.0}

    def test_last_parameter_varies_fastest(self):
        sweep = CartesianSweep({"a": [1, 2], "b": ["x", "y", "z"]})
        sets = sweep.generate()
        assert [s["b"] for s in sets[:3]] == ["x", "y", "z"]
        assert [s["a"] for s in sets] == [1, 1, 1, 2, 2, 2]

    def test_matches_nested_loop_enumeration(self):
        # independent oracle: explicit nested loops over a 3-parameter grid
        grids = {"a": [1, 2, 3], "b": [1.5, 2.5], "c": ["u", "v", "w", "x"]}
        expected = []
        for a in grids["a"]:
            for b in grids["b"]:
                for c in grids["c"]:
                    expected.append({"a": a, "b": b, "c": c})
        assert CartesianSweep(grids).generate() == expected

    def test_every_combination_appears_exactly_once(self):
        rng = random.Random(7)
        for _ in range(10):
            grids = {
                name: rng.sample(range(100), rng.randint(1, 5))
                for name in ["p", "q", "r"][: rng.randint(1, 3)]
            }
            sets = CartesianSweep(grids).generate()
            assert len(sets) == math.prod(len(v) for v in grids.values())
            seen = {tuple(s.items()) for s in sets}
            assert len(seen) == len(sets)

    def test_name_order_matches_declaration(self):
        sweep = CartesianSweep({"z": [1], "a": [2], "m": [3]})
        assert list(sweep.generate()[0]) == ["z", "a", "m"]

    def test_repeated_calls_identical_and_input_unmutated(self):
        values = {"a": [1, 2], "b": [3]}
        sweep = CartesianSweep(values)
        first = sweep.generate()
        assert sweep.generate() == first
        assert values == {"a": [1, 2], "b": [3]}

    def test_empty_parameter_map_rejected(self):
        with pytest.raises(ValueError):
            CartesianSweep({})

    def test_empty_value_list_rejected(self):
        with pytest.raises(ValueError):
            CartesianSweep({"a": []})

    @pytest.mark.parametrize("values", [[1, 1, 2], [0.5, "x", 0.5], ["a", "a"], [0.0, -0.0]])
    def test_duplicate_values_rejected(self, values):
        # two identical sets would break the one-to-one mapping to simulation IDs
        with pytest.raises(ValueError, match=r"parameter 'b' lists .* more than once"):
            CartesianSweep({"a": [1], "b": values})
        with pytest.raises(ValueError, match="more than once"):
            FilteredCartesianSweep({"a": [1], "b": values}, filter="a > 0")

    def test_same_number_of_another_kind_is_not_a_duplicate(self):
        assert CartesianSweep({"a": [1, 1.0, "1"]}).generate() == [{"a": 1}, {"a": 1.0}, {"a": "1"}]


class TestFilteredCartesian:
    def test_single_survivor(self):
        sweep = FilteredCartesianSweep({"x": [1, 2], "y": [1, 2]}, filter="x > y")
        assert sweep.length() == 1
        assert sweep.generate() == [{"x": 2, "y": 1}]

    def test_equals_enumerate_then_filter(self):
        grid = {"x": [1, 2, 3], "y": [1, 2, 3]}
        sweep = FilteredCartesianSweep(grid, filter="x + y > 3")
        from sweeprun.filters import evaluate, parse

        everything = CartesianSweep(grid).generate()
        expected = [s for s in everything if evaluate(parse("x + y > 3"), s)]
        assert sweep.generate() == expected

    def test_all_rejected_is_an_error(self):
        sweep = FilteredCartesianSweep({"x": [1, 2]}, filter="x > 99")
        assert sweep.length() == 0
        with pytest.raises(EmptySweepError):
            sweep.generate()

    def test_undeclared_filter_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            FilteredCartesianSweep({"x": [1]}, filter="x > y")

    def test_holds_only_the_surviving_sets(self):
        # 200,000 candidates, 100 kept; materializing the grid first peaks near 40 MB
        sweep = FilteredCartesianSweep({"a": range(500), "b": range(400)}, filter="a == 7 and b < 100")
        tracemalloc.start()
        try:
            kept = sweep.generate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept == [{"a": 7, "b": b} for b in range(100)]
        assert peak < 1_000_000

    @pytest.mark.parametrize("source", ["x > y", "x + y > 3 or y == 1", "x * y != 4", "x > 0"])
    def test_length_counts_the_generated_sets(self, source):
        sweep = FilteredCartesianSweep({"x": [0, 1, 2, 3], "y": [1, 2, 3.0]}, filter=source)
        assert sweep.length() == len(sweep.generate())


class TestSetSweep:
    def test_sets_verbatim_in_order(self):
        sets = [{"x": 2, "y": 1}, {"x": 1, "y": 2}]
        sweep = SetSweep(sets)
        assert sweep.length() == 2
        assert sweep.generate() == sets

    def test_singleton(self):
        assert SetSweep([{"x": 1}]).length() == 1

    def test_heterogeneous_names_rejected(self):
        with pytest.raises(ValueError, match="name sequence"):
            SetSweep([{"x": 1, "y": 2}, {"x": 1, "z": 2}])
        with pytest.raises(ValueError, match="name sequence"):
            SetSweep([{"x": 1, "y": 2}, {"y": 2, "x": 1}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SetSweep([])

    @pytest.mark.parametrize("entry", [[1, 2], "x", 3, None])
    def test_set_that_is_not_an_object_rejected(self, entry):
        with pytest.raises(ValueError, match="set 1 must be an object of name: value pairs"):
            SetSweep([{"x": 1}, entry])


class TestRandomSweep:
    def test_uniform_bounds(self):
        sweep = RandomSweep(count=5, distributions={"x": Uniform(0, 1)}, seed=42)
        sets = sweep.generate()
        assert len(sets) == 5
        assert all(0 <= s["x"] < 1 for s in sets)

    def test_fixed_seed_reproduces_exactly(self):
        def build():
            return RandomSweep(
                count=50,
                distributions={
                    "u": Uniform(2, 20),
                    "g": Normal(0, 1),
                    "n": IntegerUniform(1, 10),
                    "c": Choice(["a", "b", "c"]),
                    "l": LogUniform(0.001, 1),
                },
                seed=20260809,
            )

        first = build().generate()
        second = build().generate()
        assert first == second
        for a, b in zip(first, second):
            for name in a:
                assert values_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        outputs = []
        for seed in (1, 2, 3):
            sweep = RandomSweep(count=10, distributions={"x": Uniform(0, 1)}, seed=seed)
            outputs.append(tuple(s["x"] for s in sweep.generate()))
        assert len(set(outputs)) == 3

    def test_log_uniform_bounds_and_log_uniformity(self):
        low, high = 0.001, 10.0
        sweep = RandomSweep(count=10_000, distributions={"x": LogUniform(low, high)}, seed=99)
        samples = [s["x"] for s in sweep.generate()]
        assert all(low <= x < high for x in samples)
        # KS statistic of log(samples) against the uniform CDF on [log low, log high)
        logs = sorted(math.log(x) for x in samples)
        lo, hi = math.log(low), math.log(high)
        n = len(logs)
        ks = max(
            max(abs((i + 1) / n - (v - lo) / (hi - lo)), abs(i / n - (v - lo) / (hi - lo)))
            for i, v in enumerate(logs)
        )
        assert ks < 0.02

    def test_integer_uniform_bounds(self):
        sweep = RandomSweep(count=2000, distributions={"n": IntegerUniform(-3, 4)}, seed=5)
        samples = [s["n"] for s in sweep.generate()]
        assert all(isinstance(v, int) and -3 <= v <= 4 for v in samples)
        assert set(samples) == set(range(-3, 5))  # every value reachable at this size

    def test_choice_members_only(self):
        options = ["fast", 3, 2.5]
        sweep = RandomSweep(count=500, distributions={"c": Choice(options)}, seed=8)
        samples = [s["c"] for s in sweep.generate()]
        assert all(any(values_equal(v, o) for o in options) for v in samples)

    def test_normal_stays_near_mean(self):
        sweep = RandomSweep(count=10_000, distributions={"g": Normal(5, 2)}, seed=11)
        samples = [s["g"] for s in sweep.generate()]
        mean = sum(samples) / len(samples)
        assert abs(mean - 5) < 5 * 2 / math.sqrt(len(samples))

    def test_declaration_order_preserved(self):
        sweep = RandomSweep(
            count=1, distributions={"b": Uniform(0, 1), "a": Uniform(0, 1)}, seed=1
        )
        assert list(sweep.generate()[0]) == ["b", "a"]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Uniform(1, 1),
            lambda: Uniform(2, 1),
            lambda: LogUniform(0, 1),
            lambda: LogUniform(-1, 1),
            lambda: Normal(0, 0),
            lambda: Normal(0, -1),
            lambda: IntegerUniform(5, 4),
            lambda: IntegerUniform(1.0, 4),
            lambda: Choice([]),
        ],
    )
    def test_invalid_distributions_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize("kwargs", [
        {"count": 0}, {"count": -1}, {"count": 2.5},
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.5},
    ])
    def test_invalid_count_or_seed_rejected(self, kwargs):
        full = {"count": 1, "distributions": {"x": Uniform(0, 1)}, "seed": 0}
        full.update(kwargs)
        with pytest.raises(ValueError):
            RandomSweep(**full)

    def test_int_uniform_single_value_span(self):
        sweep = RandomSweep(count=20, distributions={"n": IntegerUniform(7, 7)}, seed=3)
        assert all(s["n"] == 7 for s in sweep.generate())
