"""Integration: export a workload to disk and run the CLI on the files.

This closes the loop: generator -> Verilog/SDC files -> readers -> full
merge flow -> merged SDC, all through the public file-level interfaces.
"""

import pytest

from repro.cli import main
from repro.netlist import read_verilog, validate
from repro.sdc import parse_mode
from repro.workloads import ModeGroupSpec, WorkloadSpec, export_workload, generate


@pytest.fixture(scope="module")
def workload():
    return generate(WorkloadSpec(
        name="exported", seed=33, n_domains=2, banks_per_domain=2,
        regs_per_bank=4, cloud_gates=10, n_config_bits=3, n_data_inputs=2,
        groups=(ModeGroupSpec("fast", 2, input_transition=0.1),
                ModeGroupSpec("slow", 1, input_transition=0.3)),
    ))


class TestExport:
    def test_files_written(self, workload, tmp_path):
        written = export_workload(workload, tmp_path / "case")
        assert written["netlist"].exists()
        assert len(written) == 1 + len(workload.modes)

    def test_netlist_roundtrip(self, workload, tmp_path):
        written = export_workload(workload, tmp_path / "case")
        parsed = read_verilog(written["netlist"].read_text())
        assert parsed.cell_count == workload.netlist.cell_count
        assert validate(parsed).ok

    def test_modes_roundtrip(self, workload, tmp_path):
        written = export_workload(workload, tmp_path / "case")
        for mode in workload.modes:
            reparsed = parse_mode(written[mode.name].read_text(), mode.name)
            assert reparsed.constraints == mode.constraints

    def test_cli_merge_on_exported_files(self, workload, tmp_path, capsys,
                                         monkeypatch):
        # The run must exit 0; an ambient seeded chaos plan (the chaos
        # CI job's) would add EXE warnings.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        written = export_workload(workload, tmp_path / "case")
        sdc_paths = [str(written[m.name]) for m in workload.modes]
        out = tmp_path / "merged"
        code = main(["merge", str(written["netlist"]), *sdc_paths,
                     "-o", str(out)])
        assert code == 0
        merged_files = sorted(out.glob("*.sdc"))
        assert len(merged_files) == 2  # fast group merged, slow singleton
        assert "modes: 3 -> 2" in capsys.readouterr().out
