"""Unit tests for object-query resolution."""

import pytest

from repro.errors import SdcLookupError
from repro.sdc import ObjectRef
from repro.sdc.object_query import ObjectResolver


@pytest.fixture
def resolver(figure1):
    return ObjectResolver(figure1, ["clkA", "clkB"])


class TestNameResolution:
    def test_exact_port(self, resolver):
        res = resolver.resolve(ObjectRef.ports("clk1"))
        assert res.ports == ["clk1"]

    def test_wildcard_ports(self, resolver):
        res = resolver.resolve(ObjectRef.ports("clk*"))
        assert res.ports == ["clk1", "clk2"]

    def test_pin_wildcards(self, resolver):
        res = resolver.resolve(ObjectRef.pins("and1/*"))
        assert set(res.pins) == {"and1/A", "and1/B", "and1/Z"}

    def test_question_mark(self, resolver):
        res = resolver.resolve(ObjectRef.cells("r?"))
        assert set(res.cells) == {"rA", "rB", "rC", "rX", "rY", "rZ"}

    def test_clock_patterns(self, resolver):
        res = resolver.resolve(ObjectRef.clocks("clk*"))
        assert res.clocks == ["clkA", "clkB"]

    def test_no_match_is_empty(self, resolver):
        res = resolver.resolve(ObjectRef.ports("nope*"))
        assert res.is_empty

    def test_required_raises(self, resolver):
        with pytest.raises(SdcLookupError):
            resolver.resolve(ObjectRef.ports("nope"), required=True)


class TestAutoResolution:
    def test_slash_name_is_pin(self, resolver):
        res = resolver.resolve(ObjectRef.auto("inv1/Z"))
        assert res.pins == ["inv1/Z"]

    def test_bare_name_prefers_port(self, resolver):
        res = resolver.resolve(ObjectRef.auto("sel1"))
        assert res.ports == ["sel1"] and not res.cells

    def test_bare_name_falls_to_cell(self, resolver):
        res = resolver.resolve(ObjectRef.auto("rA"))
        assert res.cells == ["rA"]

    def test_bare_name_falls_to_clock(self, resolver):
        res = resolver.resolve(ObjectRef.auto("clkA"))
        assert res.clocks == ["clkA"]

    def test_role_markers(self, resolver, figure1):
        from repro.sdc.parser import ALL_INPUTS, ALL_REGISTERS

        res = resolver.resolve(ObjectRef.auto(ALL_INPUTS))
        assert set(res.ports) == {p.name for p in figure1.input_ports()}
        res = resolver.resolve(ObjectRef.auto(ALL_REGISTERS))
        assert "rA" in res.cells and len(res.cells) == 6


class TestPinLike:
    def test_cells_expand_to_pins(self, resolver):
        names = resolver.resolve_to_pin_like(ObjectRef.cells("rA"))
        assert set(names) == {"rA/D", "rA/CP", "rA/Q"}

    def test_ports_stay(self, resolver):
        names = resolver.resolve_to_pin_like(ObjectRef.ports("clk1"))
        assert names == ["clk1"]


class TestWithClocks:
    def test_swapping_clock_namespace(self, resolver):
        swapped = resolver.with_clocks(["x", "y"])
        assert swapped.clock_matches(["*"]) == ["x", "y"]
        # Netlist tables shared, untouched.
        assert swapped.resolve(ObjectRef.ports("clk1")).ports == ["clk1"]

    def test_dedup_stable_order(self, resolver):
        res = resolver.resolve(ObjectRef.ports("clk1", "clk*", "clk1"))
        assert res.ports == ["clk1", "clk2"]
