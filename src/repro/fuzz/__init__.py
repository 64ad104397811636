"""Property-based differential fuzzing of the mode-merging pipeline.

The paper's value proposition is the Section 2 guarantee: a merged mode
preserves every timing constraint of its source modes.  This package
turns that guarantee — and the pipeline's other reproducibility
contracts — into *metamorphic invariants* checked continuously against
adversarial generated workloads:

``equivalence``
    every merged group passes the Section 2 equivalence check (the same
    check ``--signoff-guard`` enforces);
``permutation``
    permuting the input mode order yields the same merge partition and
    byte-identical merged SDC per group;
``jobs``
    ``--jobs 1`` and ``--jobs N`` produce byte-identical merged SDC;
``cache``
    a cold-cache run, the warm rerun and an uncached run are
    byte-identical;
``checkpoint``
    killing a run midway (simulated by deleting the later half of its
    cached group entries) and resuming from the cache reproduces the
    uninterrupted run's bytes.

Layout: :mod:`~repro.fuzz.generator` derives deterministic adversarial
workloads (the ``repro.workloads`` families plus an SDC token mutator)
from a single seed; :mod:`~repro.fuzz.oracles` runs the battery;
:mod:`~repro.fuzz.shrinker` delta-debugs a failing case to a minimal
mode/constraint set; :mod:`~repro.fuzz.corpus` dedups failures by
signature and writes self-contained repro bundles consumable by
``repro-merge fuzz --replay`` and ``repro-merge doctor``;
:mod:`~repro.fuzz.runner` is the budget-driven loop behind the
``repro-merge fuzz`` verb and its schema-versioned ``fuzz.json``.
"""

from __future__ import annotations

#: ``kind`` field of a ``fuzz.json`` run summary.
FUZZ_KIND = "repro-fuzz"

#: ``kind`` field of a ``repro.json`` bundle manifest.
BUNDLE_KIND = "repro-fuzz-bundle"

#: Schema version of both artifacts (bumped together).
FUZZ_SCHEMA_VERSION = 1

#: The five metamorphic invariants, in battery order.
ORACLE_NAMES = ("equivalence", "permutation", "jobs", "cache",
                "checkpoint")

#: Test-only mutation hook: set to an oracle name to deterministically
#: corrupt that oracle's observed output, so the full find->shrink->
#: bundle->replay loop can be exercised without a real pipeline bug.
BREAK_ENV = "REPRO_FUZZ_BREAK"


def __getattr__(name):
    if name in ("FuzzCase", "fuzz_families", "generate_case"):
        from repro.fuzz import generator
        return getattr(generator, name)
    if name in ("CaseVerdict", "OracleBattery", "Violation"):
        from repro.fuzz import oracles
        return getattr(oracles, name)
    if name == "shrink_case":
        from repro.fuzz.shrinker import shrink_case
        return shrink_case
    if name in ("failure_signature", "load_bundle", "replay_bundle",
                "write_bundle"):
        from repro.fuzz import corpus
        return getattr(corpus, name)
    if name in ("FuzzConfig", "FuzzRunner"):
        from repro.fuzz import runner
        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
