"""The differential oracle battery.

Every oracle is *metamorphic*: it never needs a golden reference, only
the pipeline run two ways that the project's contracts say must agree —
so any generated workload, however adversarial, is a usable test input.

The battery re-parses each case from its text form (like the CLI
would), runs the full ``merge_all`` pipeline under ``LENIENT`` policy
with the sign-off guard enabled, and compares merged-SDC bytes
(``write_mode(..., header=False)``, keyed by the merged group's mode
set, so legitimate naming/order differences never false-positive).

A pipeline *crash* (any non-:class:`~repro.errors.ReproError`
exception) inside an oracle is itself recorded as a violation of that
oracle — fuzzing exists to find those.  A clean :class:`ReproError`
rejection of a mutated input is not a finding: the case is marked
rejected and skipped.

``REPRO_FUZZ_BREAK=<oracle>`` (test-only) deterministically corrupts
that oracle's observed output so the find → shrink → bundle → replay
loop can be exercised end to end without a real bug.
"""

from __future__ import annotations

import os
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.equivalence import check_mode_equivalence
from repro.core.merger import MergeOptions
from repro.core.mergeability import merge_all
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.errors import ReproError
from repro.fuzz import BREAK_ENV, ORACLE_NAMES
from repro.fuzz.generator import FuzzCase
from repro.netlist import read_verilog
from repro.sdc.parser import parse_mode
from repro.sdc.writer import write_mode
from repro.workloads.seeding import stable_rng

#: Marker line the BREAK_ENV hook appends to a merged text.
_BREAK_MARK = "# fuzz-break"


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with enough context to triage."""

    oracle: str
    detail: str
    mode_names: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail,
                "mode_names": list(self.mode_names)}


@dataclass
class CaseVerdict:
    """The battery's verdict on one case."""

    case: FuzzCase
    oracles_run: Tuple[str, ...] = ()
    violations: List[Violation] = field(default_factory=list)
    #: the case's modes were cleanly rejected as invalid input
    rejected: bool = False
    reject_reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "family": self.case.family,
            "case_seed": self.case.case_seed,
            "ok": self.ok,
            "rejected": self.rejected,
            "reject_reason": self.reject_reason,
            "oracles": list(self.oracles_run),
            "violations": [v.to_dict() for v in self.violations],
        }


#: frozenset(mode names) -> merged SDC bytes (header-free).
MergedTexts = Dict[FrozenSet[str], str]


class OracleBattery:
    """Runs the five invariant oracles over one case at a time."""

    def __init__(self, jobs: int = 2):
        self.jobs = max(2, jobs)

    # -- public ---------------------------------------------------------
    def run(self, case: FuzzCase,
            oracles: Sequence[str] = ORACLE_NAMES) -> CaseVerdict:
        verdict = CaseVerdict(case)
        try:
            netlist, modes = self._load(case)
        except ReproError as exc:
            verdict.rejected = True
            verdict.reject_reason = f"{type(exc).__name__}: {exc}"[:240]
            return verdict
        except Exception:
            verdict.violations.append(Violation(
                "crash", "unhandled exception parsing case:\n"
                + traceback.format_exc(limit=4)[-900:]))
            return verdict
        ran: List[str] = []
        baseline: Optional[Tuple[MergedTexts, object]] = None
        for oracle in oracles:
            if oracle not in ORACLE_NAMES:
                raise ValueError(f"unknown oracle {oracle!r}; "
                                 f"known: {', '.join(ORACLE_NAMES)}")
            try:
                if baseline is None:
                    baseline = self._merged(netlist, modes)
                method = getattr(self, f"_oracle_{oracle}")
                verdict.violations.extend(
                    method(case, netlist, modes, baseline))
                ran.append(oracle)
            except ReproError as exc:
                verdict.rejected = True
                verdict.reject_reason = \
                    f"{type(exc).__name__}: {exc}"[:240]
                break
            except Exception:
                verdict.violations.append(Violation(
                    oracle, "pipeline crash:\n"
                    + traceback.format_exc(limit=4)[-900:]))
                ran.append(oracle)
        verdict.oracles_run = tuple(ran)
        return verdict

    # -- plumbing -------------------------------------------------------
    @staticmethod
    def _options() -> MergeOptions:
        return MergeOptions(policy=DegradationPolicy.LENIENT,
                            signoff_guard=True)

    def _load(self, case: FuzzCase):
        netlist = read_verilog(case.netlist_text)
        collector = DiagnosticCollector(DegradationPolicy.PERMISSIVE)
        modes = [parse_mode(text, name,
                            policy=DegradationPolicy.PERMISSIVE,
                            collector=collector, source=name)
                 for name, text in case.mode_texts]
        return netlist, modes

    def _merged(self, netlist, modes, **kwargs):
        collector = DiagnosticCollector(DegradationPolicy.LENIENT)
        run = merge_all(netlist, list(modes), self._options(),
                        collector=collector, **kwargs)
        texts: MergedTexts = {}
        for outcome in run.outcomes:
            if outcome.result is not None:
                texts[frozenset(outcome.mode_names)] = \
                    write_mode(outcome.result.merged, header=False)
        return texts, run

    @staticmethod
    def _broken(oracle: str, texts: MergedTexts) -> MergedTexts:
        """Apply the test-only corruption hook to a variant run."""
        if os.environ.get(BREAK_ENV, "") != oracle or not texts:
            return texts
        key = sorted(texts, key=sorted)[0]
        corrupted = dict(texts)
        corrupted[key] = texts[key] + _BREAK_MARK + "\n"
        return corrupted

    @staticmethod
    def _diff(oracle: str, base: MergedTexts, variant: MergedTexts,
              label: str) -> List[Violation]:
        violations: List[Violation] = []
        if set(base) != set(variant):
            only_base = [sorted(k) for k in base if k not in variant]
            only_var = [sorted(k) for k in variant if k not in base]
            violations.append(Violation(
                oracle,
                f"merge partition differs {label}: baseline-only groups "
                f"{only_base}, variant-only groups {only_var}",
                tuple(sorted(n for k in base for n in k))))
            return violations
        for key in sorted(base, key=sorted):
            if base[key] != variant[key]:
                violations.append(Violation(
                    oracle,
                    f"merged SDC for group {sorted(key)} differs {label}",
                    tuple(sorted(key))))
        return violations

    # -- the five oracles ----------------------------------------------
    def _oracle_equivalence(self, case, netlist, modes, baseline
                            ) -> List[Violation]:
        _, run = baseline
        by_name = {mode.name: mode for mode in modes}
        violations: List[Violation] = []
        for outcome in run.outcomes:
            if outcome.result is None or len(outcome.mode_names) < 2:
                continue
            candidate = outcome.result.merged
            if os.environ.get(BREAK_ENV, "") == "equivalence":
                text = write_mode(candidate, header=False)
                lines = text.strip().splitlines()
                candidate = parse_mode(
                    "\n".join(lines[:-1]), candidate.name,
                    policy=DegradationPolicy.PERMISSIVE)
            individual = [by_name[name] for name in outcome.mode_names
                          if name in by_name]
            # The merge may rename clocks (a same-named clock with another
            # period becomes CLK1_1), so match clocks through its maps.
            report = check_mode_equivalence(netlist, individual, candidate,
                                            outcome.result.clock_maps)
            if not report.equivalent:
                sample = "; ".join(str(m) for m
                                   in list(report.mismatches)[:3])
                violations.append(Violation(
                    "equivalence",
                    f"merged group {sorted(outcome.mode_names)} fails "
                    f"Section 2 equivalence: {sample}"[:500],
                    tuple(sorted(outcome.mode_names))))
        return violations

    def _oracle_permutation(self, case, netlist, modes, baseline
                            ) -> List[Violation]:
        base, _ = baseline
        shuffled = list(modes)
        stable_rng("fuzz-permutation", case.case_seed).shuffle(shuffled)
        variant, _ = self._merged(netlist, shuffled)
        return self._diff("permutation", base,
                          self._broken("permutation", variant),
                          "under mode-order permutation")

    def _oracle_jobs(self, case, netlist, modes, baseline
                     ) -> List[Violation]:
        base, _ = baseline
        variant, _ = self._merged(netlist, modes, jobs=self.jobs)
        return self._diff("jobs", base, self._broken("jobs", variant),
                          f"between --jobs 1 and --jobs {self.jobs}")

    def _oracle_cache(self, case, netlist, modes, baseline
                      ) -> List[Violation]:
        from repro.cache import ResultCache

        base, _ = baseline
        violations: List[Violation] = []
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") \
                as tmp:
            root = str(Path(tmp) / "cache")
            cold, _ = self._merged(netlist, modes,
                                   cache=ResultCache.open(root))
            violations.extend(self._diff(
                "cache", base, self._broken("cache", cold),
                "between uncached and cold-cache runs"))
            warm, _ = self._merged(netlist, modes,
                                   cache=ResultCache.open(root))
            violations.extend(self._diff(
                "cache", cold, warm,
                "between cold-cache and warm-cache runs"))
        return violations

    def _oracle_checkpoint(self, case, netlist, modes, baseline
                           ) -> List[Violation]:
        from repro.checkpoint import MergeCheckpoint, content_hash

        base, _ = baseline
        input_hash = content_hash(case.netlist_text,
                                  *(t for _, t in case.mode_texts))
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-") \
                as tmp:
            path = Path(tmp) / "run.ckpt"
            self._merged(netlist, modes,
                         checkpoint=MergeCheckpoint.open(
                             str(path), input_hash=input_hash))
            # Simulated kill: keep the header plus roughly half of the
            # completed-group records, exactly what a SIGKILL between
            # appends leaves behind.
            lines = path.read_text().splitlines(keepends=True)
            keep = 1 + max(0, (len(lines) - 1) // 2)
            path.write_text("".join(lines[:keep]))
            resumed, _ = self._merged(
                netlist, modes,
                checkpoint=MergeCheckpoint.open(
                    str(path), input_hash=input_hash))
        return self._diff("checkpoint", base,
                          self._broken("checkpoint", resumed),
                          "after checkpoint kill/resume")
