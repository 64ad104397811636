"""Flat gate-level netlist data model.

The model is a flattened design: top-level :class:`Port` objects, cell
:class:`Instance` objects with :class:`Pin` objects, and :class:`Net`
objects connecting one driver to many loads.  Hierarchy is outside the
scope of the paper (its flow operates on a flat timing graph), so the
Verilog reader flattens on ingest.

Naming follows EDA convention: instance pins are addressed as
``instance/PIN`` (e.g. ``rA/Q``), ports by their bare name.  These names
are what SDC object queries (``get_pins``, ``get_ports``) match against.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.errors import ConnectivityError, DuplicateObjectError
from repro.netlist.cells import (
    CellLibrary,
    CellType,
    GENERIC_LIB,
    PinDirection,
)


class Port:
    """A top-level design port."""

    __slots__ = ("name", "direction", "net")

    def __init__(self, name: str, direction: PinDirection):
        self.name = name
        self.direction = direction
        self.net: Optional[Net] = None

    @property
    def is_input(self) -> bool:
        return self.direction is PinDirection.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is PinDirection.OUTPUT

    @property
    def full_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Port({self.name}, {self.direction.value})"


class Pin:
    """A pin on a cell instance."""

    __slots__ = ("instance", "spec", "net")

    def __init__(self, instance: "Instance", spec):
        self.instance = instance
        self.spec = spec
        self.net: Optional[Net] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def full_name(self) -> str:
        return f"{self.instance.name}/{self.spec.name}"

    @property
    def is_input(self) -> bool:
        return self.spec.is_input

    @property
    def is_output(self) -> bool:
        return self.spec.is_output

    @property
    def is_clock_pin(self) -> bool:
        return self.spec.is_clock

    def __repr__(self) -> str:
        return f"Pin({self.full_name})"


class Instance:
    """An instantiation of a :class:`CellType`."""

    __slots__ = ("name", "cell", "pins")

    def __init__(self, name: str, cell: CellType):
        self.name = name
        self.cell = cell
        self.pins: Dict[str, Pin] = {spec.name: Pin(self, spec) for spec in cell.pins}

    def pin(self, pin_name: str) -> Pin:
        try:
            return self.pins[pin_name]
        except KeyError:
            raise ConnectivityError(
                f"cell {self.name!r} of type {self.cell.name!r} has no pin "
                f"{pin_name!r}"
            ) from None

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    @property
    def full_name(self) -> str:
        return self.name

    def input_pins(self) -> List[Pin]:
        return [p for p in self.pins.values() if p.is_input]

    def output_pins(self) -> List[Pin]:
        return [p for p in self.pins.values() if p.is_output]

    def __repr__(self) -> str:
        return f"Instance({self.name}:{self.cell.name})"


#: A net indexes its loads in a set once it has this many, so that
#: connecting a load never scans more than this many.  Few nets get
#: that far: a set on every net would add about 30% to a read
#: netlist's memory, and cut-overs from 4 to 64 read equally fast.
_SCAN_LOADS = 8


class Net:
    """A net with one driver (pin or input port) and many loads."""

    __slots__ = ("name", "driver", "loads", "_load_set")

    def __init__(self, name: str):
        self.name = name
        # Driver is an output Pin, an input Port, or None (undriven).
        self.driver = None
        # Loads are input Pins and output Ports.
        self.loads: List[object] = []
        self._load_set: Optional[Set[object]] = None

    def connect_driver(self, obj) -> None:
        if self.driver is not None and self.driver is not obj:
            raise ConnectivityError(
                f"net {self.name!r} already driven by "
                f"{self.driver.full_name}; cannot also drive from "
                f"{obj.full_name}"
            )
        self.driver = obj
        obj.net = self

    def connect_load(self, obj) -> None:
        """Add ``obj`` to the loads, unless it is one already."""
        indexed = self._load_set
        if indexed is None:
            if obj not in self.loads:
                self.loads.append(obj)
                if len(self.loads) == _SCAN_LOADS:
                    self._load_set = set(self.loads)
        elif obj not in indexed:
            indexed.add(obj)
            self.loads.append(obj)
        obj.net = self

    @property
    def fanout(self) -> int:
        return len(self.loads)

    def __repr__(self) -> str:
        return f"Net({self.name}, fanout={self.fanout})"


class Netlist:
    """A flat design: ports, instances and nets.

    The netlist owns its object namespaces; duplicate names raise
    :class:`~repro.errors.DuplicateObjectError`.
    """

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.name = name
        self.library = library or GENERIC_LIB
        self._ports: Dict[str, Port] = {}
        self._instances: Dict[str, Instance] = {}
        self._nets: Dict[str, Net] = {}
        self._connectables = 0
        #: structures derived from this netlist (timing graph, name
        #: resolver, bound modes), cached here so that they live exactly
        #: as long as the netlist does
        self.derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(self, name: str, direction: PinDirection) -> Port:
        if name in self._ports:
            raise DuplicateObjectError("port", name)
        port = Port(name, direction)
        self._ports[name] = port
        self._connectables += 1
        return port

    def add_instance(self, name: str, cell_type: str) -> Instance:
        if name in self._instances:
            raise DuplicateObjectError("instance", name)
        cell = self.library.get(cell_type)
        inst = Instance(name, cell)
        self._instances[name] = inst
        self._connectables += len(inst.pins)
        return inst

    def add_net(self, name: str) -> Net:
        if name in self._nets:
            raise DuplicateObjectError("net", name)
        net = Net(name)
        self._nets[name] = net
        return net

    def get_or_create_net(self, name: str) -> Net:
        net = self._nets.get(name)
        if net is None:
            net = self.add_net(name)
        return net

    def connect(self, net_name: str, *endpoints: str) -> Net:
        """Connect pins/ports (by name) to a net, inferring driver vs load.

        Endpoint names are either ``inst/PIN`` or a bare port name.  Output
        pins and input ports become the driver; input pins and output ports
        become loads.
        """
        net = self.get_or_create_net(net_name)
        for name in endpoints:
            obj = self.find_connectable(name)
            if obj is None:
                raise ConnectivityError(f"no pin or port named {name!r}")
            is_driver = (
                (isinstance(obj, Pin) and obj.is_output)
                or (isinstance(obj, Port) and obj.is_input)
            )
            if is_driver:
                net.connect_driver(obj)
            else:
                net.connect_load(obj)
        return net

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def port(self, name: str) -> Port:
        return self._ports[name]

    def instance(self, name: str) -> Instance:
        return self._instances[name]

    def net(self, name: str) -> Net:
        return self._nets[name]

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def has_port(self, name: str) -> bool:
        return name in self._ports

    def has_instance(self, name: str) -> bool:
        return name in self._instances

    def find_pin(self, full_name: str) -> Optional[Pin]:
        """Resolve ``inst/PIN`` to a Pin, or None."""
        if "/" not in full_name:
            return None
        inst_name, _, pin_name = full_name.rpartition("/")
        inst = self._instances.get(inst_name)
        if inst is None:
            return None
        return inst.pins.get(pin_name)

    def find_connectable(self, name: str):
        """Resolve a name to a Pin or Port, or None."""
        if "/" in name:
            return self.find_pin(name)
        return self._ports.get(name)

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    @property
    def ports(self) -> List[Port]:
        return list(self._ports.values())

    @property
    def instances(self) -> List[Instance]:
        return list(self._instances.values())

    @property
    def nets(self) -> List[Net]:
        return list(self._nets.values())

    def input_ports(self) -> List[Port]:
        return [p for p in self._ports.values() if p.is_input]

    def output_ports(self) -> List[Port]:
        return [p for p in self._ports.values() if p.is_output]

    def sequential_instances(self) -> List[Instance]:
        return [i for i in self._instances.values() if i.is_sequential]

    def all_pins(self) -> Iterator[Pin]:
        for inst in self._instances.values():
            yield from inst.pins.values()

    def iter_pin_names(self) -> Iterator[str]:
        for pin in self.all_pins():
            yield pin.full_name

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return len(self._instances)

    @property
    def connectable_count(self) -> int:
        """Ports plus instance pins: the nodes of the timing graph."""
        return self._connectables

    def stats(self) -> Dict[str, int]:
        seq = sum(1 for i in self._instances.values() if i.is_sequential)
        return {
            "ports": len(self._ports),
            "instances": len(self._instances),
            "sequential": seq,
            "combinational": len(self._instances) - seq,
            "nets": len(self._nets),
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, cells={len(self._instances)}, "
            f"nets={len(self._nets)}, ports={len(self._ports)})"
        )
