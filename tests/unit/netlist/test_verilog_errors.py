"""Error corpus of the structural-Verilog reader.

Every message :mod:`repro.netlist.verilog` raises, and the netlist errors
a design can trip while it is read (unknown cell, duplicate instance,
unknown pin, two drivers), pinned by exception type, message and line.
The inputs are multi-line and carry ``//`` and ``/* */`` comments and
escaped identifiers, one of which holds ``;``, ``(`` and ``$``.
"""

import pytest

from repro.errors import (ConnectivityError, DuplicateObjectError,
                          UnknownCellError, VerilogSyntaxError)
from repro.netlist import read_verilog

#: A valid design; each case below breaks one line of it.  ``\n;(2$`` is
#: an escaped identifier: a backslash, then everything up to whitespace.
GOOD = r"""// error corpus design
/* block comment spanning
   two lines; with (parens) */
module \top$1 (clk, din, dout);
  input clk, din; // clock and data
  output dout;
  wire n1, \n;(2$ ;
  DFF \r;(A$ (.D(din), .CP(clk), .Q(n1));
  INV u1 (.A(n1), /* inline; .A(x) */ .Z(\n;(2$ ));
  DFF rB (.D(\n;(2$ ), .CP(clk), .Q(dout));
endmodule
"""


def _swap(line: int, new: str) -> str:
    """``GOOD`` with its 1-based ``line`` replaced by ``new``."""
    lines = GOOD.split("\n")
    lines[line - 1] = new
    return "\n".join(lines)


CASES = [
    # --- tokenizer -------------------------------------------------------
    ("stray-character", _swap(9, "  INV u1 (.A(n1), .Z(#1));"),
     VerilogSyntaxError, "unexpected character '#'", 9),
    ("unterminated-block-comment", GOOD.replace("endmodule", "/* endmodule"),
     VerilogSyntaxError, "unexpected character '/'", 11),
    ("form-feed-is-not-whitespace", _swap(6, "  output\fdout;"),
     VerilogSyntaxError, "unexpected character '\\x0c'", 6),
    ("lone-backslash", _swap(7, "  wire n1, \\ ;"),
     VerilogSyntaxError, "unexpected character '\\\\'", 7),
    # A stray character anywhere wins over an earlier statement error.
    ("stray-character-after-a-syntax-error",
     _swap(5, "  input clk din;") + "// trailing\n`define X\n",
     VerilogSyntaxError, "unexpected character '`'", 13),
    ("stray-character-after-endmodule", GOOD + "\n  1'b0\n",
     VerilogSyntaxError, "unexpected character '1'", 13),
    # --- header ----------------------------------------------------------
    ("expected-module", GOOD.replace("module \\top$1", "macromodule top"),
     VerilogSyntaxError, "expected 'module', found 'macromodule'", 4),
    ("module-name-missing", GOOD.replace("module \\top$1 (", "module (\n"),
     VerilogSyntaxError, "expected identifier, found '('", 4),
    ("punctuation-in-port-list",
     GOOD.replace("(clk, din, dout);", "(clk, din;\n dout);"),
     VerilogSyntaxError, "unexpected ';' in port list", 4),
    ("header-needs-semicolon",
     GOOD.replace("(clk, din, dout);", "(clk, din, dout)"),
     VerilogSyntaxError, "expected ';', found 'input'", 5),
    ("no-port-list-or-semicolon",
     GOOD.replace("(clk, din, dout);", "  /* no ports */"),
     VerilogSyntaxError, "expected port list or ';', found 'input'", 5),
    ("header-port-never-declared",
     GOOD.replace("(clk, din, dout);", "(clk, din, dout, \\ghost;($ );"),
     VerilogSyntaxError, "port 'ghost;($' listed in header but never "
                         "declared", 0),
    ("duplicate-header-port",
     GOOD.replace("(clk, din, dout);", "(clk, din, dout, din);"),
     DuplicateObjectError, "duplicate port 'din'", None),
    # --- declarations ----------------------------------------------------
    ("name-list-needs-separator", _swap(5, "  input clk din; // no comma"),
     VerilogSyntaxError, "expected ',' or ';', found 'din'", 5),
    ("escaped-name-is-not-a-separator", _swap(7, "  wire n1 \\x;($ ;"),
     VerilogSyntaxError, "expected ',' or ';', found 'x;($'", 7),
    ("name-list-needs-a-name", _swap(7, "  wire n1, /* none */ ;"),
     VerilogSyntaxError, "expected identifier, found ';'", 7),
    ("inout", _swap(6, "  output dout; inout \\bus;($ ;"),
     VerilogSyntaxError, "inout ports are not supported", 6),
    ("missing-endmodule", GOOD.replace("endmodule\n", "// the end\n"),
     VerilogSyntaxError, "missing endmodule", 0),
    # --- instances -------------------------------------------------------
    ("nested-module", _swap(9, "  module sub (a);"),
     VerilogSyntaxError, "unexpected keyword 'module'", 9),
    ("cell-must-be-an-identifier", _swap(9, "  (.A(n1));"),
     VerilogSyntaxError, "expected identifier, found '('", 9),
    ("instance-name-missing", _swap(9, "  INV (.A(n1), .Z(\\n;(2$ ));"),
     VerilogSyntaxError, "expected identifier, found '('", 9),
    ("instance-needs-connection-list", _swap(9, "  INV u1 .A(n1);"),
     VerilogSyntaxError, "expected '(', found '.'", 9),
    ("positional-connections", _swap(9, "  INV u1 (n1, \\n;(2$ );"),
     VerilogSyntaxError, "only named port connections (.PIN(net)) are "
                         "supported", 9),
    ("pin-name-missing", _swap(9, "  INV u1 (.(n1), .Z(\\n;(2$ ));"),
     VerilogSyntaxError, "expected identifier, found '('", 9),
    ("pin-needs-parenthesis", _swap(9, "  INV u1 (.A n1, .Z(\\n;(2$ ));"),
     VerilogSyntaxError, "expected '(', found 'n1'", 9),
    ("net-name-missing", _swap(9, "  INV u1 (.A(;), .Z(\\n;(2$ ));"),
     VerilogSyntaxError, "expected net name, found ';'", 9),
    ("one-net-per-pin", _swap(9, "  INV u1 (.A(n1 \\n;(2$ ));"),
     VerilogSyntaxError, "expected ')', found 'n;(2$'", 9),
    ("instance-needs-semicolon",
     _swap(9, "  INV u1 (.A(n1), .Z(\\n;(2$ )) // no semicolon"),
     VerilogSyntaxError, "expected ';', found 'DFF'", 10),
    ("end-of-file-mid-instance", GOOD[:GOOD.index("  DFF rB")] + "  DFF rB (",
     VerilogSyntaxError, "unexpected end of file", 0),
    ("end-of-file-mid-name-list", GOOD[:GOOD.index(" \\n;(2$ ;")],
     VerilogSyntaxError, "unexpected end of file", 0),
    # --- netlist errors raised while reading ---------------------------
    ("unknown-cell", _swap(9, "  NAND9 u1 (.A(n1), .Z(\\n;(2$ ));"),
     UnknownCellError, "cell type 'NAND9' not in library 'generic'", None),
    # The instance is created before its connections are read.
    ("unknown-cell-before-bad-connections", _swap(9, "  NAND9 u1 (n1);"),
     UnknownCellError, "cell type 'NAND9' not in library 'generic'", None),
    ("duplicate-instance", _swap(9, "  INV \\r;(A$ (.A(n1), .Z(\\n;(2$ ));"),
     DuplicateObjectError, "duplicate instance 'r;(A$'", None),
    ("duplicate-instance-before-bad-connections",
     _swap(9, "  INV \\r;(A$ (n1);"),
     DuplicateObjectError, "duplicate instance 'r;(A$'", None),
    ("unknown-pin", _swap(9, "  INV u1 (.A(n1), .Q(\\n;(2$ ));"),
     ConnectivityError, "cell 'u1' of type 'INV' has no pin 'Q'", None),
    ("two-drivers", _swap(10, "  DFF rB (.D(\\n;(2$ ), .CP(clk), .Q(n1));"),
     ConnectivityError, "net 'n1' already driven by r;(A$/Q; cannot also "
                        "drive from rB/Q", None),
    ("instance-drives-an-input-port",
     _swap(9, "  INV u1 (.A(n1), .Z(din));"),
     ConnectivityError, "net 'din' already driven by u1/Z; cannot also "
                        "drive from din", None),
    # A syntax error is found before a later statement's netlist error.
    ("syntax-error-before-unknown-cell",
     _swap(8, "  DFF \\r;(A$ (.D(din), .CP(clk), .Q(n1))")
     .replace("INV u1", "NAND9 u1"),
     VerilogSyntaxError, "expected ';', found 'NAND9'", 9),
]


@pytest.mark.parametrize("text, exc_type, message, line",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_error(text, exc_type, message, line):
    with pytest.raises(exc_type) as err:
        read_verilog(text)
    assert type(err.value) is exc_type
    if line is None:
        assert str(err.value) == message
    else:
        assert err.value.line == line
        assert str(err.value) == (f"line {line}: {message}" if line
                                  else message)


def test_good_design_reads():
    netlist = read_verilog(GOOD)
    assert netlist.name == "top$1"
    assert [p.name for p in netlist.ports] == ["clk", "din", "dout"]
    assert [i.name for i in netlist.instances] == ["r;(A$", "u1", "rB"]
    assert netlist.find_pin("rB/D").net.name == "n;(2$"
    assert netlist.net("n;(2$").driver.full_name == "u1/Z"
