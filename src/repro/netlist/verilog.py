"""Reader for a structural-Verilog subset.

The supported subset is what gate-level netlists emitted by synthesis look
like after flattening: one module, scalar ports and wires, and cell
instantiations with named port connections::

    module top (clk1, in1, out1);
      input clk1, in1;
      output out1;
      wire n1, n2;
      DFF rA (.D(in1), .CP(clk1), .Q(n1));
      INV inv1 (.A(n1), .Z(n2));
      ...
    endmodule

Unsupported constructs (behavioural code, vectors, parameters, `define)
raise :class:`~repro.errors.VerilogSyntaxError` with the offending line so
the user can see what to strip.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NoReturn, Optional, Tuple

from repro.errors import NetlistError, VerilogSyntaxError
from repro.netlist.cells import CellLibrary, PinDirection
from repro.netlist.netlist import Netlist


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<id>[A-Za-z_][\w$]*|\\[^\s]+)
  | (?P<punct>[();,.])
  | (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str, pos: int = 0) -> Iterator[Tuple[str, str, int]]:
    """Yield (kind, value, line) tokens from ``pos``, skipping comments and
    whitespace."""
    line = text.count("\n", 0, pos) + 1
    for match in _TOKEN_RE.finditer(text, pos):
        kind = match.lastgroup
        value = match.group()
        if kind == "newline":
            line += 1
            continue
        if kind == "space":
            continue
        if kind == "comment":
            line += value.count("\n")
            continue
        if kind == "other":
            raise VerilogSyntaxError(f"unexpected character {value!r}", line)
        if kind == "id" and value.startswith("\\"):
            value = value[1:]  # escaped identifier
        yield kind, value, line


def _stray_character(text: str) -> Optional[VerilogSyntaxError]:
    """The error for the first character that starts no token, if any."""
    try:
        for _ in _tokenize(text):
            pass
    except VerilogSyntaxError as error:
        return error
    return None


# ----------------------------------------------------------------------
# statement patterns
#
# Comments are blanked out first, keeping their line breaks, so that the
# patterns see tokens and whitespace only.  Each statement is then matched
# whole by one pattern built from the token grammar above.  Tokens compare
# by value, as the grammar always has: an escaped identifier whose value
# is a keyword or a punctuation mark (``\wire``, ``\;``) stands for it
# wherever a keyword or that mark may stand.  Every token ends where the
# tokenizer would end it (the lookaheads), so a pattern can only accept a
# statement the tokens spell.
# ----------------------------------------------------------------------
#: a comment, or an escaped identifier (which may hold ``//`` or ``/*``)
_COMMENT = re.compile(r"(\\[^\s]+)|//[^\n]*|/\*.*?\*/", re.DOTALL)


def _blank(match: "re.Match[str]") -> str:
    """An escaped identifier as it is; a comment as its line breaks, or
    as one space."""
    if match.group(1) is not None:
        return match.group(1)
    return "\n" * match.group().count("\n") or " "


#: whitespace between tokens
_F = r"[ \t\r\n]*"
#: an identifier; the group is its value, without the backslash of an
#: escaped one (the lookbehinds tell which form took the backslash)
_ID = r"\\?((?<=\\)\S+(?!\S)|(?<!\\)[A-Za-z_][\w$]*(?![\w$]))"
#: the same token without a group
_ID_TOKEN = r"(?:\\\S+(?!\S)|[A-Za-z_][\w$]*(?![\w$]))"


def _value(plain: str) -> str:
    """A token whose value is ``plain`` (a regex): itself or escaped."""
    tail = r"(?![\w$])" if plain[-1].isalpha() else ""
    return rf"(?:(?:{plain}){tail}|\\(?:{plain})(?!\S))"


def _connection(identifier: str) -> str:
    """One item of a connection list: a comma, or ``.PIN(net)`` or
    ``.PIN()``; ``identifier`` is :data:`_ID` or :data:`_ID_TOKEN`."""
    return (rf"{_F}(?:{_COMMA}|{_DOT}{_F}{identifier}{_F}{_LP}{_F}"
            rf"(?:(?!{_RP}){identifier}{_F})?{_RP})")


_STRUCTURAL_KEYWORDS = ("module", "endmodule", "input", "output", "wire",
                        "inout")
_DIRECTION_KEYWORDS = {"input": PinDirection.INPUT,
                       "output": PinDirection.OUTPUT}

_LP, _RP, _COMMA, _SEMI, _DOT = (_value(re.escape(mark)) for mark in "(),;.")
_HEADER = re.compile(
    rf"{_F}{_value('module')}{_F}{_ID}{_F}"
    rf"(?:{_LP}((?:{_F}(?:(?!{_RP}){_ID_TOKEN}|,))*){_F}{_RP}{_F})?{_SEMI}")
#: the groups are a port name, or "" for a comma
_HEADER_PORT = re.compile(rf"{_F}(?:(?!{_RP}){_ID}|,)")

_STATEMENT = re.compile(
    # an instance: cell, name and connection list
    rf"{_F}(?:(?!{_value('|'.join(_STRUCTURAL_KEYWORDS))}){_ID}{_F}{_ID}"
    rf"{_F}{_LP}((?:{_connection(_ID_TOKEN)})*){_F}{_RP}{_F}{_SEMI}"
    # a declaration: keyword, first name, the other names
    rf"|({_value('input|output|wire')}){_F}{_ID}"
    rf"((?:{_F}{_COMMA}{_F}{_ID_TOKEN})*){_F}{_SEMI}"
    # the end of the module
    rf"|{_value('endmodule')})")
#: the groups are the pin and the net ("" for an unconnected pin), both
#: "" for a comma
_CONNECTIONS = re.compile(_connection(_ID))
_NEXT_NAME = re.compile(rf"{_F}{_COMMA}{_F}{_ID}")


def read_verilog(text: str, library: Optional[CellLibrary] = None) -> Netlist:
    """Parse ``text`` (one structural module) into a :class:`Netlist`."""
    try:
        return _read(text, library)
    except NetlistError:
        # A character that starts no token is an error wherever it is,
        # and it is reported ahead of any other.
        stray = _stray_character(text)
        if stray is None:
            raise
    raise stray from None


def _read(text: str, library: Optional[CellLibrary]) -> Netlist:
    if "/" in text:
        text = _COMMENT.sub(_blank, text)
    header = _HEADER.match(text)
    if header is None:
        _statement_error(text, 0, None)
    name, port_list = header.groups()
    netlist = Netlist(name, library)
    # Port list (names only; directions come from declarations).
    header_ports: List[str] = []
    if port_list:
        header_ports = [port for port in _HEADER_PORT.findall(port_list)
                        if port]

    declared: Dict[str, PinDirection] = {}
    statement = _STATEMENT.match
    connections = _CONNECTIONS.findall
    add_instance = netlist.add_instance
    get_or_create_net = netlist.get_or_create_net
    pos = header.end()
    while True:
        match = statement(text, pos)
        if match is None:
            _statement_error(text, pos, netlist)
        pos = match.end()
        cell_name, inst_name, conns, keyword, first, others = match.groups()
        if cell_name is not None:
            inst = add_instance(inst_name, cell_name)
            pins = inst.pins
            for pin_name, net_name in connections(conns):
                if not net_name:
                    continue  # a comma or an unconnected pin
                pin = pins.get(pin_name) or inst.pin(pin_name)
                net = get_or_create_net(net_name)
                if pin.spec.is_output:
                    net.connect_driver(pin)
                else:
                    net.connect_load(pin)
        elif keyword is not None:
            direction = _DIRECTION_KEYWORDS.get(keyword.lstrip("\\"))
            if direction is not None:
                declared[first] = direction
                for port_name in _NEXT_NAME.findall(others):
                    declared[port_name] = direction
        else:
            break  # endmodule
    for _ in _tokenize(text, pos):
        pass  # what follows endmodule is only tokenized

    # Materialize ports in header order, then any declared-only ports.
    order = header_ports + [n for n in declared if n not in header_ports]
    for port_name in order:
        if port_name not in declared:
            raise VerilogSyntaxError(
                f"port {port_name!r} listed in header but never declared"
            )
        netlist.add_port(port_name, declared[port_name])

    _stitch(netlist, declared)
    return netlist


def _statement_error(text: str, pos: int,
                     netlist: Optional[Netlist]) -> NoReturn:
    """Raise the error in the statement at ``pos`` (the module header when
    ``netlist`` is None), which its pattern did not match.

    Walks that statement's tokens as the grammar reads them, so the error
    names the first token that breaks it, and an instance is added before
    its connection list is read (an unknown cell is reported first).
    """
    tokens = _tokenize(text, pos)

    def take() -> Tuple[str, str, int]:
        tok = next(tokens, None)
        if tok is None:
            raise VerilogSyntaxError("unexpected end of file")
        return tok

    def expect(value: str) -> None:
        tok = take()
        if tok[1] != value:
            raise VerilogSyntaxError(
                f"expected {value!r}, found {tok[1]!r}", tok[2])

    def expect_id() -> str:
        tok = take()
        if tok[0] != "id":
            raise VerilogSyntaxError(
                f"expected identifier, found {tok[1]!r}", tok[2])
        return tok[1]

    if netlist is None:
        expect("module")
        expect_id()
        tok = take()
        if tok[1] == "(":
            while True:
                tok = take()
                if tok[1] == ")":
                    break
                if tok[0] != "id" and tok[1] != ",":
                    raise VerilogSyntaxError(
                        f"unexpected {tok[1]!r} in port list", tok[2])
            expect(";")
        elif tok[1] != ";":
            raise VerilogSyntaxError(
                f"expected port list or ';', found {tok[1]!r}", tok[2])
    else:
        tok = next(tokens, None)
        if tok is None:
            raise VerilogSyntaxError("missing endmodule")
        kind, value, line = tok
        if value == "inout":
            raise VerilogSyntaxError("inout ports are not supported", line)
        if value in ("input", "output", "wire"):
            while True:
                expect_id()
                tok = take()
                if tok[1] == ";":
                    break
                if tok[1] != ",":
                    raise VerilogSyntaxError(
                        f"expected ',' or ';', found {tok[1]!r}", tok[2])
        else:
            if kind != "id":
                raise VerilogSyntaxError(
                    f"expected identifier, found {value!r}", line)
            if value in _STRUCTURAL_KEYWORDS:
                raise VerilogSyntaxError(f"unexpected keyword {value!r}",
                                         line)
            netlist.add_instance(expect_id(), value)
            expect("(")
            while True:
                tok = take()
                if tok[1] == ")":
                    break
                if tok[1] == ",":
                    continue
                if tok[1] != ".":
                    raise VerilogSyntaxError(
                        "only named port connections (.PIN(net)) are "
                        "supported", tok[2])
                expect_id()
                expect("(")
                tok = take()
                if tok[1] == ")":
                    continue  # unconnected
                if tok[0] != "id":
                    raise VerilogSyntaxError(
                        f"expected net name, found {tok[1]!r}", tok[2])
                expect(")")
            expect(";")
    raise AssertionError(
        f"a valid statement at offset {pos} did not match its pattern")


def _stitch(netlist: Netlist, declared: Dict[str, PinDirection]) -> None:
    """Attach ports to the nets that carry their names."""
    for port_name, direction in declared.items():
        port = netlist.port(port_name)
        try:
            net = netlist.net(port_name)
        except KeyError:
            net = netlist.add_net(port_name)
        if direction is PinDirection.INPUT:
            net.connect_driver(port)
        else:
            net.connect_load(port)


def write_verilog(netlist: Netlist) -> str:
    """Emit ``netlist`` back as structural Verilog (round-trip capable).

    Nets attached to a port are emitted under the port's name (the reader
    stitches ports to same-named nets), regardless of their internal name.
    """
    lines: List[str] = []
    port_names = [p.name for p in netlist.ports]
    # Internal net name -> emitted name (ports force their own name).
    rename: dict = {}
    for port in netlist.ports:
        if port.net is not None:
            rename.setdefault(port.net.name, port.name)

    def emitted(net) -> str:
        return rename.get(net.name, net.name)

    lines.append(f"module {netlist.name} ({', '.join(port_names)});")
    inputs = [p.name for p in netlist.input_ports()]
    outputs = [p.name for p in netlist.output_ports()]
    if inputs:
        lines.append(f"  input {', '.join(inputs)};")
    if outputs:
        lines.append(f"  output {', '.join(outputs)};")
    taken = set(port_names)
    wire_names = sorted({emitted(n) for n in netlist.nets} - taken)
    if wire_names:
        lines.append(f"  wire {', '.join(wire_names)};")
    lines.append("")
    for inst in netlist.instances:
        conns = []
        for pin in inst.pins.values():
            if pin.net is not None:
                conns.append(f".{pin.name}({emitted(pin.net)})")
        lines.append(f"  {inst.cell.name} {inst.name} ({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
