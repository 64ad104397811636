"""Unit tests for the netlist data model."""

import pytest

from repro.errors import ConnectivityError, DuplicateObjectError
from repro.netlist import Netlist, PinDirection


@pytest.fixture
def empty():
    return Netlist("top")


class TestPorts:
    def test_add_and_lookup(self, empty):
        port = empty.add_port("clk", PinDirection.INPUT)
        assert empty.port("clk") is port
        assert port.is_input and not port.is_output
        assert port.full_name == "clk"

    def test_duplicate_port_rejected(self, empty):
        empty.add_port("clk", PinDirection.INPUT)
        with pytest.raises(DuplicateObjectError):
            empty.add_port("clk", PinDirection.OUTPUT)

    def test_direction_filters(self, empty):
        empty.add_port("a", PinDirection.INPUT)
        empty.add_port("z", PinDirection.OUTPUT)
        assert [p.name for p in empty.input_ports()] == ["a"]
        assert [p.name for p in empty.output_ports()] == ["z"]


class TestInstances:
    def test_add_instance_creates_pins(self, empty):
        inst = empty.add_instance("u1", "AND2")
        assert set(inst.pins) == {"A", "B", "Z"}
        assert inst.pin("A").full_name == "u1/A"
        assert not inst.is_sequential

    def test_duplicate_instance_rejected(self, empty):
        empty.add_instance("u1", "INV")
        with pytest.raises(DuplicateObjectError):
            empty.add_instance("u1", "BUF")

    def test_missing_pin_raises(self, empty):
        inst = empty.add_instance("u1", "INV")
        with pytest.raises(ConnectivityError):
            inst.pin("Q")

    def test_sequential_filter(self, empty):
        empty.add_instance("u1", "INV")
        empty.add_instance("r1", "DFF")
        assert [i.name for i in empty.sequential_instances()] == ["r1"]


class TestNets:
    def test_connect_infers_driver_and_loads(self, empty):
        empty.add_port("in1", PinDirection.INPUT)
        empty.add_instance("u1", "INV")
        net = empty.connect("n1", "in1", "u1/A")
        assert net.driver is empty.port("in1")
        assert [l.full_name for l in net.loads] == ["u1/A"]
        assert net.fanout == 1

    def test_double_driver_rejected(self, empty):
        empty.add_instance("u1", "INV")
        empty.add_instance("u2", "INV")
        empty.connect("n1", "u1/Z")
        with pytest.raises(ConnectivityError):
            empty.connect("n1", "u2/Z")

    def test_unknown_endpoint_rejected(self, empty):
        with pytest.raises(ConnectivityError):
            empty.connect("n1", "ghost/Z")

    def test_duplicate_net_rejected(self, empty):
        empty.add_net("n1")
        with pytest.raises(DuplicateObjectError):
            empty.add_net("n1")

    def test_get_or_create_net(self, empty):
        net = empty.get_or_create_net("n1")
        assert empty.get_or_create_net("n1") is net

    @pytest.mark.parametrize("fanout", [1, 7, 8, 30])
    def test_connecting_a_load_twice_lists_it_once(self, empty, fanout):
        # Below and past the fanout at which a net indexes its loads.
        empty.add_instance("drv", "BUF")
        loads = [empty.add_instance(f"u{i}", "INV").pin("A")
                 for i in range(fanout)]
        net = empty.connect("n1", "drv/Z", *[p.full_name for p in loads])
        for pin in loads + loads[::-1]:
            net.connect_load(pin)
        empty.connect("n1", loads[0].full_name, loads[-1].full_name)
        assert net.loads == loads
        assert all(pin.net is net for pin in loads)

    def test_a_load_moved_back_is_still_listed_once(self, empty):
        empty.add_instance("u1", "INV")
        pin = empty.instance("u1").pin("A")
        first, second = empty.add_net("n1"), empty.add_net("n2")
        first.connect_load(pin)
        second.connect_load(pin)
        first.connect_load(pin)
        assert first.loads == [pin] and second.loads == [pin]
        assert pin.net is first


class TestLookups:
    def test_find_pin(self, empty):
        empty.add_instance("u1", "AND2")
        assert empty.find_pin("u1/A").name == "A"
        assert empty.find_pin("u1/Q") is None
        assert empty.find_pin("nope/A") is None
        assert empty.find_pin("noslash") is None

    def test_find_connectable_port(self, empty):
        empty.add_port("clk", PinDirection.INPUT)
        assert empty.find_connectable("clk").name == "clk"
        assert empty.find_connectable("missing") is None


class TestStats:
    def test_stats(self, figure1):
        stats = figure1.stats()
        assert stats["sequential"] == 6
        assert stats["instances"] == stats["sequential"] + stats["combinational"]
        assert figure1.cell_count == stats["instances"]

    def test_connectable_count_is_ports_plus_pins(self, figure1):
        assert figure1.connectable_count == len(figure1.ports) + sum(
            len(inst.pins) for inst in figure1.instances)
        before = figure1.connectable_count
        figure1.add_instance("extra", "AND3")
        figure1.add_port("extra_in", PinDirection.INPUT)
        assert figure1.connectable_count == before + 4 + 1

    def test_all_pins_iteration(self, figure1):
        names = list(figure1.iter_pin_names())
        assert "rA/Q" in names and "inv1/A" in names
        assert len(names) == len(set(names))
