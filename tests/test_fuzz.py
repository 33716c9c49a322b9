"""Fuzzing: the filter language and the template scanner reject any input
with sweeprun's own errors, never with a Python exception."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sweeprun.errors import SweepRunError
from sweeprun.filters import evaluate, parse
from sweeprun.templates import extract_placeholders, render

BIG = "1" + "0" * 400  # an integer literal too large for a 64-bit real
FILTER_TOKENS = [
    "x", "y", "s", "z", "0", "2", "1.5", "1e999", BIG, "'a'",
    "(", ")", "-", "+", "*", "/", "<", "<=", ">", ">=", "==", "!=", "and", "or", "not",
]
ENV = {"x": 2, "y": 0.5, "s": "text"}

fuzz = settings(deadline=None, max_examples=150)


@fuzz
@given(st.text(max_size=40))
def test_parse_any_text(source):
    try:
        parse(source)
    except SweepRunError:
        pass


@fuzz
@given(st.lists(st.sampled_from(FILTER_TOKENS), min_size=1, max_size=25).map(" ".join))
def test_parse_and_evaluate_token_soup(source):
    try:
        evaluate(parse(source), ENV)
    except SweepRunError:
        pass


@fuzz
@given(st.one_of(st.text(max_size=60), st.text(alphabet="{}ab_1 é\n", max_size=60)))
def test_template_scanning_any_text(source):
    try:
        extract_placeholders(source)
        render(source, {"a": 1, "b": 2.5}, "007")
    except SweepRunError:
        pass
