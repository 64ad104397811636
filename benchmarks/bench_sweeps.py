"""Ablation bench: tolerance sensitivity and mode-count scaling.

Two sweeps the paper's evaluation implies but does not tabulate:

* the **tolerance limit** (Sections 3.1.2/3.1.6) controls how much value
  spread between modes still counts as "common" — the mergeability graph
  gains edges monotonically as it grows;
* the flow's cost splits into the O(#modes^2) pairwise analysis and the
  per-group merges — the **mode-count sweep** shows both phases scaling.
"""

from bench_common import bench_seed
from repro.analysis import sweep_mode_count, sweep_tolerance
from repro.workloads import ModeGroupSpec, WorkloadSpec, generate


def test_tolerance_sweep(benchmark):
    workload = generate(WorkloadSpec(
        name="tolsweep", seed=bench_seed("tolerance_sweep", 23),
        n_domains=2, banks_per_domain=2,
        regs_per_bank=4, cloud_gates=12, n_config_bits=3, n_data_inputs=3,
        groups=(ModeGroupSpec("lo", 3, input_transition=0.10),
                ModeGroupSpec("hi", 3, input_transition=0.13)),
    ))
    sweep = benchmark.pedantic(
        lambda: sweep_tolerance(workload,
                                tolerances=(0.0, 0.05, 0.1, 0.3, 1.0)),
        rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(sweep.format())
    pairs = [p.mergeable_pairs for p in sweep.points]
    assert pairs == sorted(pairs)  # monotone
    assert sweep.points[0].merge_groups > sweep.points[-1].merge_groups


def test_mode_count_scaling(benchmark):
    sweep = benchmark.pedantic(
        lambda: sweep_mode_count(counts=(2, 4, 8, 16),
                                 seed=bench_seed("mode_count_scaling", 77)),
        rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(sweep.format())
    # The quadratic analysis phase grows with the mode count.
    assert sweep.points[-1].analysis_seconds \
        >= sweep.points[0].analysis_seconds
    assert all(p.reduction_percent >= 50.0 for p in sweep.points)
