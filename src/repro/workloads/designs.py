"""The paper's design suite A-F, rebuilt as synthetic workloads.

Table 5 of the paper evaluates six industrial designs (0.2M-2.8M cells)
with 95/3/12/3/5/3 modes merging to 16/1/1/1/1/2.  We reproduce the *mode
structure exactly* — the same mode counts and the same merge-group
structure, so the per-design reduction percentages match the paper — and
scale the cell counts by roughly 1/300 so the pure-Python engines stay
laptop-fast (the mode-merging algorithms' behaviour depends on constraint
structure, not raw cell count; see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.generator import ModeGroupSpec, Workload, WorkloadSpec, generate


@dataclass
class PaperDesign:
    """One row of Table 5, with the paper's reported numbers."""

    name: str
    paper_size_mcells: float
    paper_modes: int
    paper_merged: int
    paper_reduction_pct: float
    spec: WorkloadSpec

    @property
    def expected_groups(self) -> int:
        return self.paper_merged


def _groups(sizes: List[int], kinds: Optional[List[str]] = None
            ) -> Tuple[ModeGroupSpec, ...]:
    """Build group specs with pairwise out-of-tolerance transitions."""
    groups = []
    for i, size in enumerate(sizes):
        kind = kinds[i] if kinds else ("scan" if i % 4 == 3 else "func")
        groups.append(ModeGroupSpec(
            name=f"g{i}",
            count=size,
            kind=kind,
            # 1.5x steps keep every cross-group pair >10% apart.
            input_transition=round(0.08 * (1.5 ** i), 6),
            period_scale=1.0 + 0.5 * i,
        ))
    return tuple(groups)


def paper_suite(scale: float = 1.0) -> Dict[str, PaperDesign]:
    """Designs A-F.  ``scale`` multiplies the structural size knobs
    (use < 1 for quick tests, 1.0 for the benchmark runs)."""

    def dim(value: int, minimum: int = 1) -> int:
        return max(minimum, round(value * scale))

    suite: Dict[str, PaperDesign] = {}

    # Design A: 95 modes in 16 merge groups (83.1% reduction).
    a_sizes = [12, 10, 10, 8, 8, 8, 6, 6, 5, 5, 4, 4, 3, 2, 2, 2]
    assert sum(a_sizes) == 95
    suite["A"] = PaperDesign(
        "A", 0.2, 95, 16, 83.1,
        WorkloadSpec(
            name="designA", seed=101,
            n_domains=dim(3), banks_per_domain=dim(4),
            regs_per_bank=dim(8), cloud_gates=dim(36),
            n_config_bits=5, n_data_inputs=4,
            groups=_groups(a_sizes),
        ))

    suite["B"] = PaperDesign(
        "B", 0.2, 3, 1, 66.6,
        WorkloadSpec(
            name="designB", seed=202,
            n_domains=dim(3), banks_per_domain=dim(4),
            regs_per_bank=dim(8), cloud_gates=dim(36),
            n_config_bits=4, n_data_inputs=4,
            groups=_groups([3], kinds=["func"]),
        ))

    # Note: the paper's Table 5 row C is internally inconsistent — it lists
    # 12 -> 1 but reports 75.0% reduction (12 -> 1 would be 91.7%).  The
    # reported percentage is what enters the paper's 67.5% average, so we
    # follow it: 12 modes in 3 merge groups.  See EXPERIMENTS.md.
    suite["C"] = PaperDesign(
        "C", 0.3, 12, 3, 75.0,
        WorkloadSpec(
            name="designC", seed=303,
            n_domains=dim(3), banks_per_domain=dim(5),
            regs_per_bank=dim(10), cloud_gates=dim(40),
            n_config_bits=5, n_data_inputs=5,
            groups=_groups([6, 4, 2], kinds=["func", "func", "scan"]),
        ))

    # D and E carry the richer clocking structures (integrated clock
    # gating and a generated clock) so the suite exercises those merge
    # paths at scale, mirroring the paper's "complex circuitry" claim.
    suite["D"] = PaperDesign(
        "D", 1.4, 3, 1, 66.6,
        WorkloadSpec(
            name="designD", seed=404,
            n_domains=dim(4), banks_per_domain=dim(6),
            regs_per_bank=dim(14), cloud_gates=dim(60),
            n_config_bits=5, n_data_inputs=6,
            with_clock_gating=True,
            groups=_groups([3], kinds=["func"]),
        ))

    suite["E"] = PaperDesign(
        "E", 1.6, 5, 1, 80.0,
        WorkloadSpec(
            name="designE", seed=505,
            n_domains=dim(4), banks_per_domain=dim(6),
            regs_per_bank=dim(16), cloud_gates=dim(64),
            n_config_bits=5, n_data_inputs=6,
            with_generated_clocks=True,
            groups=_groups([5], kinds=["func"]),
        ))

    suite["F"] = PaperDesign(
        "F", 2.8, 3, 2, 33.3,
        WorkloadSpec(
            name="designF", seed=606,
            n_domains=dim(5), banks_per_domain=dim(7),
            regs_per_bank=dim(18), cloud_gates=dim(72),
            n_config_bits=5, n_data_inputs=6,
            groups=_groups([2, 1], kinds=["func", "scan"]),
        ))

    return suite


def load_design(name: str, scale: float = 1.0) -> Workload:
    """Generate one design of the suite by letter."""
    design = paper_suite(scale)[name]
    return generate(design.spec)


def figure2_modes() -> WorkloadSpec:
    """A 9-mode family whose mergeability graph matches the paper's
    Figure 2 shape: three cliques (4 + 3 + 2 modes)."""
    return WorkloadSpec(
        name="figure2", seed=42,
        n_domains=2, banks_per_domain=2, regs_per_bank=4, cloud_gates=12,
        n_config_bits=3, n_data_inputs=3,
        groups=_groups([4, 3, 2], kinds=["func", "func", "scan"]),
    )
