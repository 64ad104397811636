"""Bench: Figure 2 — the mergeability graph and its greedy clique cover.

Builds a 9-mode family structured like the paper's Figure 2 (three merge
groups), measures the pairwise mock-merge analysis, and prints the graph:
vertices are modes, edges mergeable pairs, cliques the merge groups M1-M3.
"""

from repro.core import build_mergeability_graph
from repro.workloads import figure2_modes, generate


def test_fig2_mergeability_graph(benchmark):
    workload = generate(figure2_modes())

    analysis = benchmark(
        lambda: build_mergeability_graph(workload.netlist, workload.modes))

    print()
    print("Figure 2: mergeability graph")
    print(analysis.summary())
    print()
    print("Edges (mergeable mode pairs):")
    for u, v in analysis.mergeable_pairs():
        print(f"  {u} -- {v}")
    print()
    print("Non-mergeable pair example reasons:")
    shown = 0
    for pair, reason in sorted(analysis.reasons.items(),
                               key=lambda kv: sorted(kv[0])):
        print(f"  {sorted(pair)}: {reason[:90]}")
        shown += 1
        if shown >= 3:
            break

    # The cover recovers the designed cliques M1 (4 modes), M2 (3), M3 (2).
    assert sorted(map(len, analysis.groups), reverse=True) == [4, 3, 2]
    assert sorted(map(sorted, analysis.groups)) \
        == sorted(map(sorted, workload.expected_groups))
    # Edge count is exactly the sum of within-clique pairs.
    assert len(analysis.mergeable_pairs()) == 6 + 3 + 1
