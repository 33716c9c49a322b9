"""A filtered sweep whose filter provably cannot raise is tested conjunct by
conjunct (`filters.prune`): the kept sets, their order and the empty-sweep
error are those of testing every grid point, with far fewer evaluations.
A filter the check cannot clear is tested whole at every grid point by the
same walk."""

from __future__ import annotations

import itertools
import json

import pytest

from sweeprun import filters
from sweeprun.cli import main
from sweeprun.errors import EmptySweepError, FilterArithmeticError, FilterTypeError
from sweeprun.sweeps import CartesianSweep, FilteredCartesianSweep, linspace


class _Int(int):
    pass


# the filtered_slurm workload of bench/workloads.py
SLURM_AXES = {"beta": linspace(2, 4, 10), "sigma": linspace(2, 20, 100), "rho": linspace(2, 30, 50)}
SLURM_FILTER = "sigma * beta > rho * 2 and rho > 27"


def slurm_keep(p) -> bool:
    return p["sigma"] * p["beta"] > p["rho"] * 2 and p["rho"] > 27


@pytest.fixture
def evaluations(monkeypatch) -> list:
    """(filter, a copy of the set) per call of `filters.evaluate`."""
    calls = []
    real_evaluate = filters.evaluate
    monkeypatch.setattr(
        filters, "evaluate", lambda expr, env: calls.append((expr, dict(env))) or real_evaluate(expr, env)
    )
    return calls


def test_filtered_slurm_pays_per_kept_simulation(evaluations):
    kept = list(FilteredCartesianSweep(SLURM_AXES, SLURM_FILTER).iter_sets())
    assert kept == [p for p in CartesianSweep(SLURM_AXES).iter_sets() if slurm_keep(p)]
    assert len(kept) == 656
    # rho > 27 once per rho value (50), the rest once per (beta, sigma, kept rho): 10 * 100 * 6
    assert len(evaluations) <= 6_050


def test_preview_of_a_million_grid_points(workdir, evaluations, capsys):
    axes = {**SLURM_AXES, "sigma": linspace(2, 20, 2_000)}
    (workdir / "sweep.json").write_text(
        json.dumps({"type": "cartesian", "parameters": axes, "filter": SLURM_FILTER}), encoding="utf-8"
    )
    assert main(["preview", "--sweep-file", "sweep.json", "--limit", "0"]) == 0
    kept = sum(1 for b in axes["beta"] for s in axes["sigma"] for r in axes["rho"] if r > 27 and s * b > r * 2)
    assert kept == 12_958
    assert capsys.readouterr().out.splitlines()[0].endswith(f", {kept} simulation(s)")
    assert len(evaluations) == 50 + 10 * 2_000 * 6


def test_an_axis_emptied_by_a_conjunct_is_the_full_grid_error(evaluations):
    sweep = FilteredCartesianSweep({"a": [1, 2, 3], "b": [0.5, 1.5]}, "a * b > 0 and b > 9")
    with pytest.raises(EmptySweepError) as failure:
        list(sweep.iter_sets())
    assert str(failure.value) == "filter rejected all 6 parameter sets; nothing to run"
    assert len(evaluations) == 2  # b > 9 on each b; a * b > 0 is never reached


@pytest.mark.parametrize(
    "parameters, source",
    [
        ({"a": [1, 2], "b": [1.5, 2.5]}, "a * b > 2 and a > 1"),
        ({"a": [1, 10**400], "b": [1.5]}, "a < b and a > 0"),  # compared, never converted
        ({"a": [1, 2]}, "not (a == 1) or a * -a < 0"),
        ({"s": ["x", "y"], "a": [3]}, "s < 'y' and a != 2"),
    ],
)
def test_filters_the_check_clears_are_pruned(parameters, source, evaluations):
    sweep = FilteredCartesianSweep(parameters, source)
    conjuncts = filters._split(sweep.filter, sweep.parameters)
    assert conjuncts is not None
    kept = list(sweep.iter_sets())
    assert evaluations and all(any(expr is c for c in conjuncts) for expr, _env in evaluations)
    assert kept == [p for p in CartesianSweep(parameters).iter_sets() if filters.evaluate(sweep.filter, p)]


@pytest.mark.parametrize(
    "parameters, source, error, points",
    [
        ({"a": [1, 0], "b": [2]}, "b / a > 0 and b > 1", FilterArithmeticError, 2),
        ({"a": [1, "x"]}, "a > 0 and a < 5", FilterTypeError, 2),
        ({"a": [2, 10**400], "b": [1.5]}, "a + b > 0 and a > 1", FilterArithmeticError, 2),
        ({"a": [1, 2]}, "a + 1", FilterTypeError, 1),
        ({"a": [2, 1], "b": [1]}, "a > 1 and (a or b > 0)", FilterTypeError, 1),
        ({"a": [2, _Int(1)], "b": [1.5]}, "a > 1 and b > 1", None, 2),
    ],
    ids=["division", "text-and-number", "int-beyond-real", "non-boolean-root", "non-boolean-operand", "subclass"],
)
def test_filters_the_check_refuses_are_tested_per_point(parameters, source, error, points, evaluations):
    sweep = FilteredCartesianSweep(parameters, source)
    assert filters._split(sweep.filter, sweep.parameters) is None
    if error is None:
        assert list(sweep.iter_sets()) == [{"a": 2, "b": 1.5}]
    else:
        with pytest.raises(error):
            list(sweep.iter_sets())
    # the whole filter at each grid point in row-major order, up to the first that raises
    tested = list(CartesianSweep(parameters).iter_sets())[:points]
    assert evaluations == [(sweep.filter, params) for params in tested]


@pytest.mark.parametrize(
    "source, kept, error, evaluated",
    [
        ("1 < 2", [{}], None, 1),
        ("2 < 1", [], None, 1),
        ("1 < 2 and 2 > 1", [{}], None, 2),
        ("1 / 2 > 0", [{}], None, 1),  # refused: tested whole, once
        ("1 / 0 > 0", None, FilterArithmeticError, 1),
        ("1 + 1", None, FilterTypeError, 1),
    ],
)
def test_a_grid_of_no_parameters_is_one_empty_set(source, kept, error, evaluated, evaluations):
    """itertools.product() of no axes is one point, the empty set: kept where the filter holds there."""
    assert list(itertools.product()) == [()]
    expr = filters.parse(source)
    if error is None:
        assert list(filters.prune(expr, {})) == kept
    else:
        with pytest.raises(error):
            list(filters.prune(expr, {}))
    assert [env for _expr, env in evaluations] == [{}] * evaluated


# ---------------------------------------------------------------------------
# the operator table, row by row: the proof and the evaluator read one row


class _Str(str):
    pass


# an operand kind: (its filter text over one axis, the axis values, the type its row is read with, its name)
OPERANDS = {
    "int": ("{}", [2, 3], int, "integer"),
    "float": ("{}", [2.5, 0.5], float, "real"),
    "str": ("{}", ["p", "q"], str, "text"),
    "bool": ("({} < 3)", [2, 3], bool, "boolean"),  # True, then False
    "int-subclass": ("{}", [_Int(2), _Int(3)], int, "integer"),
    "str-subclass": ("{}", [_Str("p"), _Str("q")], str, "text"),
}
# the error messages as the evaluator has always written them
MESSAGES = {
    "neg": "unary '-' requires a number, got {}",
    "not": "'not' requires a boolean, got {}",
    "and": "'and' requires boolean operands, got {}",
    "or": "'or' requires boolean operands, got {}",
    **dict.fromkeys(["lt", "le", "gt", "ge"], "cannot order {} and {}"),
    **dict.fromkeys(["eq", "ne"], "cannot compare {} and {} for equality"),
    **dict.fromkeys(["add", "sub", "mul", "div"], "cannot apply arithmetic to {} and {}"),
}
SYMBOLS = {op: text for text, (_precedence, op) in filters._BINARY.items()}


def test_the_table_covers_every_operator_the_parser_makes():
    assert set(filters._OPERATORS) == set(SYMBOLS) | {"not", "neg"} == set(MESSAGES)


def operator_cases():
    for op in MESSAGES:
        for left in OPERANDS:
            for right in [None] if op in ("neg", "not") else OPERANDS:
                yield pytest.param(op, left, right, id=f"{op}-{left}-{right}")


@pytest.mark.parametrize("op, left, right", operator_cases())
def test_each_operand_pair_is_proved_and_evaluated_by_its_row(op, left, right):
    """`evaluate` raises FilterTypeError with the row's message exactly where
    the row rejects the pair, and `_split` proves a filter only where no
    point of its grid raises: every accepted pair of exact types but ``/``."""
    text, values, kind, name = OPERANDS[left]
    x = text.format("x")
    parameters = {"x": values}
    if right is None:
        source = f"not {x}" if op == "not" else f"-{x} == -{x}"
        accepted = (kind, None)
        failing = [name]
    else:
        right_text, parameters["y"], right_kind, right_name = OPERANDS[right]
        y = right_text.format("y")
        source = f"{x} {SYMBOLS[op]} {y}"
        if op in ("add", "sub", "mul", "div"):  # a boolean root, the same arithmetic on both sides
            source = f"({source}) == ({source})"
        accepted = (kind, right_kind)
        # ``and``/``or`` name the first operand that is not a boolean; the others name both
        failing = [name if kind is not bool else right_name] if op in ("and", "or") else [name, right_name]
    row = filters._OPERATORS[op][0]
    in_row = accepted[1] in row.get(accepted[0], ())
    expr = filters.parse(source)
    errors = []
    for point in itertools.product(*parameters.values()):
        try:
            filters.evaluate(expr, dict(zip(parameters, point)))
        except FilterTypeError as exc:
            errors.append(str(exc))
    if in_row:
        assert errors == []
    else:
        assert errors and set(errors) <= {MESSAGES[op].format(*failing)}
    proved = filters._split(expr, parameters) is not None
    exact = all(type(v) in (int, float, str) for axis in parameters.values() for v in axis)
    assert proved == (in_row and exact and op != "div")
