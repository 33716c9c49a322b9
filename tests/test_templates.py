"""Template scanning, rendering, and value formatting."""

from __future__ import annotations

import random

import pytest

import sweeprun.templates
from conftest import NAMELIST_ORIGINAL, NAMELIST_TEMPLATE
from sweeprun.errors import TemplateSyntaxError, UnfilledPlaceholderError
from sweeprun.templates import (
    extract_placeholders,
    format_value,
    render,
    unused_parameters,
)


class TestExtractPlaceholders:
    def test_namelist_body(self):
        assert extract_placeholders("beta = {beta},\nsigma = {sigma}") == ["beta", "sigma"]

    def test_escaped_braces_yield_nothing(self):
        assert extract_placeholders("literal {{braces}}") == []

    def test_unclosed_brace_is_an_error(self):
        with pytest.raises(TemplateSyntaxError) as exc_info:
            extract_placeholders("oops {unclosed")
        assert exc_info.value.offset == 5

    def test_stray_closing_brace_is_an_error(self):
        with pytest.raises(TemplateSyntaxError):
            extract_placeholders("oops } here")

    @pytest.mark.parametrize("source", ["{}", "{a b}", "{1x}", "{a{b}"])
    def test_bad_placeholder_names(self, source):
        with pytest.raises(TemplateSyntaxError):
            extract_placeholders(source)

    def test_first_occurrence_order_with_duplicates_collapsed(self):
        assert extract_placeholders("{b}{a}{b}{c}{a}") == ["b", "a", "c"]

    def test_empty_source(self):
        assert extract_placeholders("") == []


class TestRender:
    def test_namelist_golden(self):
        rendered = render(NAMELIST_TEMPLATE, {"beta": 2.67, "sigma": 10, "rho": 28}, "000")
        assert rendered == NAMELIST_ORIGINAL

    def test_sim_id_substitution(self):
        assert render("{sim_id}", {}, "007") == "007"

    def test_unfilled_placeholder_names_the_culprit(self):
        with pytest.raises(UnfilledPlaceholderError) as exc_info:
            render("{gamma}", {"beta": 1}, "0")
        assert exc_info.value.name == "gamma"

    def test_escapes_unescape(self):
        assert render("a {{x}} b }}{{", {}, "0") == "a {x} b }{"

    def test_no_placeholder_source_passes_through(self):
        source = "plain text\nwith lines\n"
        assert render(source, {"a": 1}, "0") == source

    def test_rendering_removes_all_placeholders(self):
        # holds for escape-free templates; escapes intentionally leave
        # literal braces behind
        source = "{a} and also {sim_id}, then {a} again"
        out = render(source, {"a": 1}, "42")
        assert extract_placeholders(out) == []

    def test_surrounding_bytes_preserved_exactly(self):
        source = "pre\t{a}||{a} post\n"
        assert render(source, {"a": "X"}, "0") == "pre\tX||X post\n"

    def test_injective_in_sim_id(self):
        source = "id={sim_id}"
        outputs = {render(source, {}, sid) for sid in ("000", "001", "002")}
        assert len(outputs) == 3


class TestFormatValue:
    def test_integer_plain(self):
        assert format_value(28) == "28"

    def test_real_always_carries_a_point(self):
        assert format_value(2.0) == "2.0"

    def test_real_shortest_round_trip(self):
        assert format_value(2.67) == "2.67"

    def test_text_verbatim(self):
        assert format_value("hello, world") == "hello, world"

    def test_large_real_uses_exponent(self):
        text = format_value(1e300)
        assert "e" in text

    def test_round_trip_property(self):
        rng = random.Random(13)
        for _ in range(500):
            value = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
            text = format_value(value)
            assert float(text) == value
            assert ("." in text) or ("e" in text) or ("E" in text)

    def test_rejects_bool_and_nonfinite(self):
        with pytest.raises(ValueError):
            format_value(True)
        with pytest.raises(ValueError):
            format_value(float("inf"))


class TestUnusedParameters:
    def test_union_across_templates(self):
        sources = ["{a} only", "{b} only"]
        assert unused_parameters(sources, ["a", "b", "c"]) == ["c"]

    def test_all_used(self):
        assert unused_parameters(["{a}{b}"], ["a", "b"]) == []


class TestCompileOnce:
    def test_one_scan_per_distinct_source(self, monkeypatch):
        scans = []
        real_scan = sweeprun.templates._scan

        def counting_scan(source):
            scans.append(source)
            return real_scan(source)

        monkeypatch.setattr(sweeprun.templates, "_scan", counting_scan)
        sweeprun.templates._compile.cache_clear()
        for i in range(100):
            text = render(NAMELIST_TEMPLATE, {"beta": i, "sigma": 10.0, "rho": 28}, "00")
            assert text.startswith(f"&params\nbeta = {i},")
            assert extract_placeholders(NAMELIST_TEMPLATE) == ["beta", "sigma", "rho"]
            assert render("out_{sim_id}.txt", {}, f"{i:03d}") == f"out_{i:03d}.txt"
        assert scans == [NAMELIST_TEMPLATE, "out_{sim_id}.txt"]

    def test_unfilled_placeholder_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UnfilledPlaceholderError) as exc_info:
                render("a={a} b={b}", {"a": 1}, "0")
            assert exc_info.value.name == "b"

    def test_every_value_is_still_formatted(self):
        # a value the template never uses is still checked
        for _ in range(2):
            with pytest.raises(ValueError):
                render("a={a}", {"a": 1, "unused": True}, "0")
