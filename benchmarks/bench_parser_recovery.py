"""Bench: recovery-mode SDC parsing overhead vs strict parsing.

The recovery machinery (policy checks, per-command try/except, the
``problems()`` validation hook) sits on the parser's hot path, so the
graceful-degradation layer must be close to free when the input is
healthy.  This bench parses a large well-formed constraint deck under
STRICT and PERMISSIVE and asserts the overhead stays under 10%.
"""

from bench_common import paired_ratio, write_bench_json
from repro.diagnostics import DegradationPolicy
from repro.sdc import parse_sdc

#: A representative well-formed deck, repeated to parsing-benchmark size.
DECK_BLOCK = """\
create_clock -name clk{i} -period 10 [get_ports clk{i}]
create_generated_clock -name gck{i} -source [get_ports clk{i}] -divide_by 2 [get_pins div{i}/Q]
set_clock_uncertainty 0.15 -setup [get_clocks clk{i}]
set_input_delay 2.0 -clock clk{i} [get_ports din{i}]
set_output_delay 1.5 -clock clk{i} [get_ports dout{i}]
set_case_analysis 0 [get_ports test_en{i}]
set_false_path -from [get_clocks clk{i}] -to [get_clocks gck{i}]
set_multicycle_path 2 -setup -through [get_pins core{i}/alu/Z]
set_max_delay 5 -from [get_ports din{i}]
set_load 0.4 [get_ports dout{i}]
"""

DECK = "".join(DECK_BLOCK.format(i=i) for i in range(100))


def test_recovery_mode_overhead(benchmark):
    strict = lambda: parse_sdc(DECK)
    permissive = lambda: parse_sdc(DECK, policy=DegradationPolicy.PERMISSIVE)

    # Equivalent output on healthy input.
    assert len(strict().mode) == len(permissive().mode) == 1000
    assert permissive().diagnostics == []

    # Both paths are warm; the median of interleaved pairs filters both
    # noise and drift in host speed.
    ratio, strict_s, permissive_s = paired_ratio(strict, permissive, 21)
    overhead = ratio - 1.0

    print(f"\nstrict:     {strict_s * 1000:8.2f} ms")
    print(f"permissive: {permissive_s * 1000:8.2f} ms")
    print(f"overhead:   {overhead * 100:8.2f} %")
    assert overhead < 0.10, (
        f"recovery-mode parsing costs {overhead:.1%} over strict "
        f"(budget: 10%)")

    # Snapshot for run-to-run comparison via repro.obs.bench_diff; the
    # constraint count is deterministic, timings diff within threshold.
    write_bench_json("parser_recovery",
                     constraints_parsed=len(strict().mode),
                     strict_seconds=strict_s,
                     permissive_seconds=permissive_s)

    benchmark(permissive)
