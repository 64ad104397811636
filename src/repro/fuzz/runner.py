"""The budget-driven fuzz loop behind ``repro-merge fuzz``.

Cases are drawn round-robin across the enabled families, each fully
determined by ``(seed, family, index)`` — so two runs with the same
seed generate the same workloads and reach the same verdicts, and a
failure found under a time budget can be re-found with ``--max-cases``
(case generation never consumes wall-clock state).

Every violation is shrunk (:mod:`repro.fuzz.shrinker`), deduped by
failure signature and written as a repro bundle into the corpus
(:mod:`repro.fuzz.corpus`).  The run summary — ``fuzz.json``, schema
:data:`~repro.fuzz.FUZZ_SCHEMA_VERSION` — is registered in the
artifact zoo and validated by ``repro.obs.validate --fuzz``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fuzz import FUZZ_KIND, FUZZ_SCHEMA_VERSION, ORACLE_NAMES
from repro.fuzz.corpus import (
    failure_signature,
    load_index,
    save_index,
    write_bundle,
)
from repro.fuzz.generator import fuzz_families, generate_case
from repro.fuzz.oracles import OracleBattery
from repro.fuzz.shrinker import shrink_case


@dataclass
class FuzzConfig:
    """Knobs of one fuzz run (mirrors the CLI flags)."""

    seed: int = 0
    budget_seconds: float = 60.0
    families: Tuple[str, ...] = ()
    corpus_dir: str = "fuzz-corpus"
    max_cases: Optional[int] = None
    jobs: int = 2
    shrink: bool = True
    oracles: Tuple[str, ...] = ORACLE_NAMES

    def resolved_families(self) -> Tuple[str, ...]:
        known = fuzz_families()
        if not self.families:
            return known
        for family in self.families:
            if family not in known:
                raise ValueError(f"unknown fuzz family {family!r}; "
                                 f"known: {', '.join(known)}")
        return tuple(self.families)


@dataclass
class FuzzOutcome:
    """Everything one run produced, pre-serialization."""

    payload: dict
    new_bundles: List[str] = field(default_factory=list)


class FuzzRunner:
    """Generate → check → shrink → bundle, until budget or case cap."""

    def __init__(self, config: FuzzConfig, log=None):
        self.config = config
        self.families = config.resolved_families()
        self.battery = OracleBattery(jobs=config.jobs)
        self._log = log or (lambda message: None)

    def run(self) -> FuzzOutcome:
        config = self.config
        started = time.monotonic()
        index_entries = load_index(config.corpus_dir)
        cases: List[dict] = []
        new_bundles: List[str] = []
        violations = duplicates = rejected = 0
        case_index = 0
        while True:
            if config.max_cases is not None \
                    and case_index >= config.max_cases:
                break
            if config.max_cases is None \
                    and time.monotonic() - started >= \
                    config.budget_seconds:
                break
            family = self.families[case_index % len(self.families)]
            case = generate_case(config.seed, case_index, family)
            verdict = self.battery.run(case, oracles=config.oracles)
            record = verdict.to_dict()
            if verdict.rejected:
                rejected += 1
            for violation in verdict.violations:
                violations += 1
                signature = failure_signature(violation)
                if signature in index_entries:
                    duplicates += 1
                    self._log(f"fuzz: {case.case_id} duplicates known "
                              f"failure {signature}")
                    continue
                minimized = case
                if config.shrink and violation.oracle in ORACLE_NAMES:
                    self._log(f"fuzz: shrinking {case.case_id} "
                              f"({violation.oracle})")
                    minimized = shrink_case(case, violation.oracle,
                                            self.battery)
                bundle = write_bundle(config.corpus_dir, minimized,
                                      violation, signature=signature)
                index_entries[signature] = {
                    "oracle": violation.oracle,
                    "case_id": case.case_id,
                    "family": case.family,
                    "root_seed": case.root_seed,
                    "case_seed": case.case_seed,
                    "detail": violation.detail[:240],
                }
                new_bundles.append(str(bundle))
                self._log(f"fuzz: wrote repro bundle {bundle}")
            cases.append(record)
            case_index += 1
        if violations or index_entries:
            save_index(config.corpus_dir, index_entries)
        payload = {
            "kind": FUZZ_KIND,
            "schema_version": FUZZ_SCHEMA_VERSION,
            "seed": config.seed,
            "families": list(self.families),
            "oracles": list(config.oracles),
            "budget_seconds": config.budget_seconds,
            "max_cases": config.max_cases,
            "jobs": config.jobs,
            "corpus_dir": str(config.corpus_dir),
            "cases": cases,
            "summary": {
                "cases": len(cases),
                "rejected": rejected,
                "violations": violations,
                "new_bundles": len(new_bundles),
                "duplicates": duplicates,
                "elapsed_seconds": round(time.monotonic() - started, 3),
            },
        }
        return FuzzOutcome(payload=payload, new_bundles=new_bundles)
