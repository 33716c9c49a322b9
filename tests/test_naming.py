"""Sequential simulation-ID assignment."""

from __future__ import annotations

import random
import re

import pytest

from sweeprun.errors import NamerExhaustedError
from sweeprun.naming import NamerConfig, SequentialNamer

ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def test_three_hundred_ids_are_three_digits():
    ids = list(SequentialNamer(NamerConfig(), 300))
    assert ids[0] == "000"
    assert ids[1] == "001"
    assert ids[-1] == "299"
    assert len(ids) == 300


def test_ten_ids_are_single_digits():
    assert list(SequentialNamer(NamerConfig(), 10)) == [str(i) for i in range(10)]


def test_prefix():
    assert list(SequentialNamer(NamerConfig(prefix="run_"), 2)) == ["run_0", "run_1"]


def test_start_index_widens_padding():
    ids = list(SequentialNamer(NamerConfig(start_index=95), 10))
    assert ids[0] == "095"
    assert ids[-1] == "104"


def test_min_width_floor():
    assert list(SequentialNamer(NamerConfig(min_width=4), 2)) == ["0000", "0001"]


def test_next_id_past_total_raises():
    namer = SequentialNamer(NamerConfig(), 2)
    namer.next_id()
    namer.next_id()
    with pytest.raises(NamerExhaustedError):
        namer.next_id()


def test_iteration_stops_at_total():
    assert len(list(SequentialNamer(NamerConfig(), 7))) == 7


def test_uniqueness_equal_length_and_charset():
    rng = random.Random(3)
    for _ in range(25):
        config = NamerConfig(
            start_index=rng.randint(0, 500),
            min_width=rng.randint(1, 6),
            prefix=rng.choice(["", "run_", "a.b-c_"]),
        )
        total = rng.randint(1, 400)
        ids = list(SequentialNamer(config, total))
        assert len(ids) == len(set(ids)) == total
        assert len({len(i) for i in ids}) == 1
        assert sorted(ids) == ids  # fixed padding: lexicographic == numeric
        assert all(ID_RE.match(i) for i in ids)


def test_determinism():
    config = NamerConfig(start_index=7, min_width=2, prefix="s")
    assert list(SequentialNamer(config, 20)) == list(SequentialNamer(config, 20))


@pytest.mark.parametrize(
    "kwargs",
    [{"start_index": -1}, {"min_width": 0}, {"prefix": "bad/prefix"}, {"prefix": "sp ace"}],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        NamerConfig(**kwargs)


def test_total_must_be_positive():
    with pytest.raises(ValueError):
        SequentialNamer(NamerConfig(), 0)
