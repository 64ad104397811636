"""Failure corpus: signatures, repro bundles, replay.

A violation's **signature** identifies the *bug*, not the run: the
oracle name plus its detail text with volatile fragments (numbers,
seeds, generated instance names) masked.  Two seeds hitting the same
underlying defect dedup to one corpus entry.

A **repro bundle** is a self-contained directory::

    corpus/<signature>/
        netlist.v           the (minimized) design
        <mode>.sdc          one file per (minimized) mode
        repro.json          manifest: seeds, oracle, exact command
        blackbox.json       flight-recorder artifact for `doctor`

``repro.json`` carries everything needed to re-run the failure without
the original fuzz session; ``repro-merge fuzz --replay BUNDLE``
re-executes exactly the recorded oracle, and ``repro-merge doctor
BUNDLE/blackbox.json`` renders the forensic view.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.fuzz import BUNDLE_KIND, FUZZ_SCHEMA_VERSION, ORACLE_NAMES
from repro.fuzz.generator import FuzzCase
from repro.fuzz.oracles import OracleBattery, Violation
from repro.obs.blackbox import BlackboxRecorder
from repro.obs.context import current

#: Name of the manifest inside each bundle.
MANIFEST_NAME = "repro.json"

_VOLATILE = re.compile(r"\d+(\.\d+)?")


def failure_signature(violation: Violation) -> str:
    """A short stable id of the underlying defect."""
    masked = _VOLATILE.sub("N", violation.detail)
    # Drop generated identifiers (seeds baked into workload names) so
    # the same defect found via two seeds shares a signature.
    masked = re.sub(r"_sN", "", masked)
    digest = hashlib.sha256(
        f"{violation.oracle}|{masked}".encode()).hexdigest()
    return f"{violation.oracle}-{digest[:10]}"


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------
def write_bundle(corpus_dir, case: FuzzCase, violation: Violation,
                 signature: Optional[str] = None) -> Path:
    """Write one self-contained repro bundle; returns its directory."""
    signature = signature or failure_signature(violation)
    root = Path(corpus_dir) / signature
    root.mkdir(parents=True, exist_ok=True)
    (root / "netlist.v").write_text(case.netlist_text)
    for name, text in case.mode_texts:
        (root / f"{name}.sdc").write_text(text)
    manifest = {
        "kind": BUNDLE_KIND,
        "schema_version": FUZZ_SCHEMA_VERSION,
        "signature": signature,
        "oracle": violation.oracle,
        "detail": violation.detail,
        "violation_modes": list(violation.mode_names),
        "case_id": case.case_id,
        "family": case.family,
        "root_seed": case.root_seed,
        "case_seed": case.case_seed,
        "netlist": "netlist.v",
        "modes": [name for name, _ in case.mode_texts],
        "command": f"repro-merge fuzz --replay {root}",
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write_blackbox(root, manifest)
    return root


#: Wall-clock fields scrubbed from a bundle's blackbox so the whole
#: bundle is byte-identical for the same minimized case (the corpus
#: dedups and diffs bundles; timestamps would defeat both).
_VOLATILE_BLACKBOX_KEYS = ("t", "seconds", "flushed_at",
                           "uptime_seconds", "epoch")


def _scrub_times(node):
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "frame_seconds" and isinstance(value, dict):
                out[key] = {frame: 0.0 for frame in value}
            elif key in _VOLATILE_BLACKBOX_KEYS \
                    and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                out[key] = 0.0
            else:
                out[key] = _scrub_times(value)
        return out
    if isinstance(node, list):
        return [_scrub_times(item) for item in node]
    return node


def _write_blackbox(root: Path, manifest: dict) -> None:
    """A doctor-consumable flight-recorder artifact for the bundle."""
    recorder = BlackboxRecorder()
    recorder.record("fuzz.case", case_id=manifest["case_id"],
                    family=manifest["family"],
                    root_seed=manifest["root_seed"],
                    case_seed=manifest["case_seed"])
    with recorder.flight_ledger().frame("fuzz-oracle",
                                        manifest["oracle"],
                                        verdict="violated"):
        recorder.record("fuzz.violation", oracle=manifest["oracle"],
                        detail=manifest["detail"][:500],
                        modes=manifest["violation_modes"])
        recorder.record("fuzz.replay", command=manifest["command"])
    path = root / "blackbox.json"
    if recorder.flush(path,
                      reason={"kind": "fuzz-violation",
                              "detail": (f"{manifest['oracle']}: "
                                         f"{manifest['detail']}")[:240]},
                      metrics=current().metrics):
        payload = _scrub_times(json.loads(path.read_text()))
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")


def load_bundle(bundle_dir) -> Tuple[FuzzCase, dict]:
    """Load a bundle back into a runnable case + its manifest.

    Raises :class:`ValueError` on a missing or malformed bundle — the
    CLI maps that to exit 2.
    """
    root = Path(bundle_dir)
    manifest_path = root / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise ValueError(f"not a repro bundle (no readable "
                         f"{MANIFEST_NAME}): {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {manifest_path}: {exc}") from exc
    if manifest.get("kind") != BUNDLE_KIND:
        raise ValueError(f"{manifest_path} is not a {BUNDLE_KIND} "
                         f"manifest (kind={manifest.get('kind')!r})")
    if manifest.get("oracle") not in ORACLE_NAMES:
        raise ValueError(f"{manifest_path} names unknown oracle "
                         f"{manifest.get('oracle')!r}")
    try:
        netlist_text = (root / manifest["netlist"]).read_text()
        mode_texts = tuple(
            (name, (root / f"{name}.sdc").read_text())
            for name in manifest["modes"])
    except (OSError, KeyError, TypeError) as exc:
        raise ValueError(f"incomplete bundle {root}: {exc}") from exc
    case = FuzzCase(
        case_id=str(manifest.get("case_id", "replay")),
        family=str(manifest.get("family", "unknown")),
        root_seed=int(manifest.get("root_seed", 0)),
        case_seed=int(manifest.get("case_seed", 0)),
        netlist_text=netlist_text,
        mode_texts=mode_texts,
    )
    return case, manifest


def replay_bundle(bundle_dir, jobs: int = 2) -> Tuple[bool, str]:
    """Re-run a bundle's recorded oracle.

    Returns ``(reproduced, detail)``: ``reproduced`` is True when the
    violation still fires on this build.
    """
    case, manifest = load_bundle(bundle_dir)
    battery = OracleBattery(jobs=jobs)
    verdict = battery.run(case, oracles=(manifest["oracle"],))
    for violation in verdict.violations:
        if violation.oracle == manifest["oracle"] \
                or violation.oracle == "crash":
            return True, violation.detail
    if verdict.rejected:
        return False, f"input rejected: {verdict.reject_reason}"
    return False, "violation no longer reproduces"


# ---------------------------------------------------------------------------
# corpus index
# ---------------------------------------------------------------------------
def load_index(corpus_dir) -> Dict[str, dict]:
    path = Path(corpus_dir) / "index.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    entries = payload.get("entries", {})
    return entries if isinstance(entries, dict) else {}


def save_index(corpus_dir, entries: Dict[str, dict]) -> Path:
    root = Path(corpus_dir)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "index.json"
    path.write_text(json.dumps(
        {"kind": "repro-fuzz-corpus",
         "schema_version": FUZZ_SCHEMA_VERSION,
         "entries": entries},
        indent=2, sort_keys=True) + "\n")
    return path
