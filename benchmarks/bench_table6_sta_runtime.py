"""Bench: Table 6 — STA runtime reduction and QoR conformity.

For each design of the suite, measures serial STA over all individual
modes vs over the merged modes, and computes the paper's conformity
metric: the percentage of endpoints whose merged-mode worst slack is
within 1% of the capture-clock period of the individual-mode worst slack.

Shape expectations: STA runtime reduction of the same order as the mode
count reduction (the paper averages 62.5%), and conformity at or above
the paper's 99.82% average (the reproduction's merges are exact-by-
construction, so we typically see 100%).
"""

import pytest

from bench_common import BENCH_SCALE, get_conformity, get_sta, once
from repro.analysis.tables import PAPER_TABLE6
from repro.workloads.designs import paper_suite

SUITE = paper_suite(BENCH_SCALE)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_table6_individual_sta(benchmark, name):
    once(benchmark, get_sta, name, "individual")
    result = get_sta(name, "individual")
    print(f"\ndesign {name}: {result.mode_count} individual modes, "
          f"STA {result.total_runtime_seconds:.2f}s")
    assert result.mode_count == SUITE[name].paper_modes


@pytest.mark.parametrize("name", sorted(SUITE))
def test_table6_merged_sta(benchmark, name):
    once(benchmark, get_sta, name, "merged")
    result = get_sta(name, "merged")
    print(f"\ndesign {name}: {result.mode_count} merged modes, "
          f"STA {result.total_runtime_seconds:.2f}s")
    assert result.mode_count == SUITE[name].paper_merged


def test_table6_summary(benchmark):
    def collect():
        return [get_conformity(name) for name in sorted(SUITE)]

    benchmark.pedantic(collect, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print("Table 6: Reduction in overall STA runtime and QoR of merged "
          "modes [Conformity: % endpoints with slack deviation within 1% "
          "of capture clock period]")
    header = (f"{'Design':<7}{'Indiv(s)':>10}{'Merged(s)':>11}{'%Red':>7}"
              f"{'Conform%':>10}{'Paper %Red':>12}{'Paper Conf':>12}")
    print(header)
    reductions = []
    conformities = []
    for name in sorted(SUITE):
        individual = get_sta(name, "individual")
        merged = get_sta(name, "merged")
        conformity = get_conformity(name)
        ind_s = individual.total_runtime_seconds
        mrg_s = merged.total_runtime_seconds
        reduction = 100.0 * (1 - mrg_s / ind_s) if ind_s else 0.0
        paper_red, paper_conf = PAPER_TABLE6[name]
        print(f"{name:<7}{ind_s:>10.2f}{mrg_s:>11.2f}{reduction:>7.1f}"
              f"{conformity.percent:>10.2f}{paper_red:>12.1f}"
              f"{paper_conf:>12.2f}")
        reductions.append(reduction)
        conformities.append(conformity.percent)
        # Shape assertions per design: merging must help, a lot, and must
        # not distort sign-off results.
        assert mrg_s < ind_s
        assert conformity.percent >= 99.0
        assert not conformity.unmatched
    avg_red = sum(reductions) / len(reductions)
    avg_conf = sum(conformities) / len(conformities)
    print(f"{'Average':<7}{'':>10}{'':>11}{avg_red:>7.1f}{avg_conf:>10.2f}"
          f"{62.52:>12.2f}{99.82:>12.2f}")
    # Paper: 62.52% average STA runtime reduction, 99.82% conformity.
    assert avg_red >= 40.0
    assert avg_conf >= 99.8
