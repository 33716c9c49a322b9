"""A Cartesian mapping's text is written and read a run of IDs at a time.
`serialize` equals one ``json.dumps(indent=2)`` of the whole document, and
`deserialize` reads that exact text back with computed IDs, parsing only its
head. Any other text takes the ``json.loads`` path: the same mapping, or the
same error, as before, and IDs held as a tuple."""

from __future__ import annotations

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweeprun import mapping as mapping_module
from sweeprun.dispatch import DispatcherConfig, JobSpec, dispatch_all
from sweeprun.errors import MappingFormatError
from sweeprun.mapping import CartesianMapping, SimIds, build_mapping, deserialize, serialize
from sweeprun.sweeps import CartesianSweep

# across the widths of the IDs (1, 2, 3, 4 and 5 digits) and the runs of 1000 they are joined in
SIZES = [1, 10, 999, 1000, 1001, 1025, 10**4 + 1]

REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 1e16, 1e-07, 0.1]
)
INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64), 10**400])
TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "é ☃ 𝄞", "\n\r\t\b\f", "\x00\x1f\x7f", "\ud800", "</"])
VALUES = st.lists(INTS | REALS | TEXT, max_size=6, unique_by=lambda v: (type(v), v))
NAMES = st.lists(st.sampled_from(["a", "b", "x_1", "Z"]), max_size=2, unique=True)


def old_document(mapping: CartesianMapping) -> dict:
    """The document as one dict, its IDs made by their own rule: 0 to N-1, zero-padded to one width."""
    total = len(mapping)
    return {
        "schema": "sweep-mapping/1",
        "kind": "cartesian",
        "sweep_name": mapping.sweep_name,
        "dims": list(mapping.dims),
        "coords": {d: list(mapping.coords[d]) for d in mapping.dims},
        "shape": list(mapping.shape),
        "sim_ids": [str(k).zfill(len(str(total - 1))) for k in range(total)],
    }


def grid(size: int, drawn: list, names: list[str], name_values: list) -> CartesianSweep:
    """`size` cells: axis "v" holds the drawn values, padded with integers,
    and each of `names` one value."""
    seen = {(type(v), v) for v in drawn}
    padding = (k for k in range(2 * size + 1) if (int, k) not in seen)
    values = (drawn[:size] + [next(padding) for _ in range(size - len(drawn[:size]))])
    return CartesianSweep({"v": values, **{name: [value] for name, value in zip(names, name_values)}})


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(SIZES), VALUES, NAMES, st.lists(INTS | REALS | TEXT, min_size=2, max_size=2), TEXT)
def test_serialize_equals_one_dump_of_the_document(size, drawn, names, name_values, sweep_name):
    mapping = build_mapping(grid(size, drawn, names, name_values), sweep_name=sweep_name)
    assert isinstance(mapping.sim_ids, SimIds)
    text = serialize(mapping)
    assert text == json.dumps(old_document(mapping), indent=2, allow_nan=False) + "\n"
    # read back by the fast path, and equal to what the json.loads path reads
    back = deserialize(text)
    assert isinstance(back.sim_ids, SimIds)
    slow = mapping_module._parse(text)
    assert type(slow.sim_ids) is tuple
    assert back == slow == mapping
    assert serialize(back) == serialize(slow) == text  # the kinds of the values survive both paths


@pytest.mark.parametrize("size", SIZES)
def test_held_ids_are_written_as_computed_ones(size):
    computed = build_mapping(CartesianSweep({"v": list(range(size))}), sweep_name="s")
    held = CartesianMapping("s", ("v",), computed.coords, list(computed.sim_ids))
    assert type(held.sim_ids) is tuple and held.sim_ids == computed.sim_ids == tuple(held.sim_ids)
    assert serialize(held) == serialize(computed)


def test_held_ids_are_escaped_as_json_dumps_escapes_them():
    ids = ['é"\\', "\n\x00", "\ud800", "𝄞", "</"]
    held = CartesianMapping("s", ("v",), {"v": list(range(len(ids)))}, ids)
    text = serialize(held)
    assert text == json.dumps({**old_document(held), "sim_ids": ids}, indent=2, allow_nan=False) + "\n"
    assert deserialize(text) == held and type(deserialize(text).sim_ids) is tuple


def canonical() -> tuple[CartesianMapping, str]:
    sweep = CartesianSweep({"a": [1, 2.5, "é"], "b": list(range(400)), "c": [1e100]})  # 1,200 cells
    mapping = build_mapping(sweep, sweep_name="m")
    return mapping, serialize(mapping)


def reordered(text: str) -> str:
    doc = json.loads(text)
    return json.dumps({"kind": doc.pop("kind"), **doc}, indent=2) + "\n"


def with_ids(text: str, ids: list[str]) -> str:
    return json.dumps({**json.loads(text), "sim_ids": ids}, indent=2) + "\n"


MUTATIONS = {
    # the mutation, and the error's message, or None where a mapping results
    "one-id-changed": (lambda t: t.replace('"0500"', '"x500"'), None),
    "one-id-repeated": (lambda t: t.replace('"0500"', '"0501"'), "duplicate sim_ids"),
    "last-id-dropped": (lambda t: with_ids(t, json.loads(t)["sim_ids"][:-1]), "1199 sim_ids do not fill shape"),
    "one-id-added": (lambda t: with_ids(t, json.loads(t)["sim_ids"] + ["1200"]), "1201 sim_ids do not fill shape"),
    "ids-one-digit-wider": (lambda t: with_ids(t, [f"{k:05d}" for k in range(1200)]), None),
    "keys-reordered": (reordered, None),
    "indent-one-more": (lambda t: t.replace('\n    "0001"', '\n     "0001"'), None),
    "head-indent-one-more": (lambda t: t.replace('\n  "dims"', '\n   "dims"'), None),
    "one-line": (lambda t: json.dumps(json.loads(t)) + "\n", None),
    "no-final-newline": (lambda t: t[:-1], None),
    "blank-after-the-end": (lambda t: t + " \n", None),
    "crlf": (lambda t: t.replace("\n", "\r\n"), None),
    "real-spelled-otherwise": (lambda t: t.replace("1e+100", "1E100"), None),
    "shape-edited": (lambda t: t.replace("    3,\n    400,", "    400,\n    3,"), "shape [400, 3, 1] does not match"),
    "not-json": (lambda t: t.replace('"sweep_name": "m"', '"sweep_name": m'), "invalid JSON"),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_any_other_text_takes_the_json_loads_path(name):
    mapping, text = canonical()
    assert isinstance(deserialize(text).sim_ids, SimIds)
    mutate, message = MUTATIONS[name]
    mutated = mutate(text)
    assert mutated != text
    if message is not None:
        with pytest.raises(MappingFormatError, match=re.escape(message)):
            deserialize(mutated)
        return
    got = deserialize(mutated)
    assert type(got.sim_ids) is tuple
    assert got == mapping_module._parse(mutated)
    assert (got.sweep_name, got.dims, got.coords) == (mapping.sweep_name, mapping.dims, mapping.coords)
    assert list(got.sim_ids) == json.loads(mutated)["sim_ids"]


def test_a_hundred_thousand_cells_hold_no_id(workdir):
    """build_mapping, serialize, deserialize and a dry dispatch_all pass over
    10^5 simulations: apart from the text itself, what they hold at their
    peak does not grow with the number of simulations."""
    sweep = CartesianSweep({"a": list(range(1000)), "b": [k + 0.5 for k in range(100)]})
    config = DispatcherConfig(kind="dry", sweep_name="big")
    build_mapping(CartesianSweep({"a": [1]}))  # first-use caches

    def stages():
        mapping = build_mapping(sweep, sweep_name="big")
        text = serialize(mapping)
        back = deserialize(text)
        jobs = (JobSpec(sim_id, "true", workdir) for sim_id in back.sim_ids)
        dry = sum(1 for _ in dispatch_all(jobs, config))
        return len(text), dry, back == mapping

    tracemalloc.start()
    try:
        size, dry, same = stages()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dry, same) == (10**5, True)
    # serialize holds its runs beside the text it joins them into, so the peak is about twice the
    # text; a tuple of the IDs alone is 6.5 MB, and the text of one json.dumps call peaks at 15 MB
    assert peak - size < size + 300_000, f"{peak - size} B beyond the {size} B of text"
