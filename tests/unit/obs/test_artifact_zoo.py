"""Contract tests of the artifact zoo (``repro.obs.validate``).

Each ``ARTIFACT_ZOO`` entry is the one declaration of an artifact: the
validator, its ``python -m repro.obs.validate`` switch and the
``repro-merge --version`` banner are generated from it.  So the tests
here are round trips — a real producer's output validates under its
switch, the same file with a foreign ``kind`` does not, and the banner
prints every entry — plus the two docs tables written by hand: the
artifact zoo and ``repro.obs.metrics.METRIC_CONTRACT``.
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs.metrics import METRIC_CONTRACT, MetricsRegistry
from repro.obs.trace import Tracer
from repro.obs.validate import ARTIFACT_ZOO, main as validate_main

DOCS = Path(__file__).parents[3] / "docs" / "OBSERVABILITY.md"


def _table_rows(heading, width):
    """Parse the ``width``-column markdown table under ``heading``."""
    text = DOCS.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip().strip("`").strip()
                 for c in line.strip().strip("|").split("|")]
        if len(cells) == width and cells[0] not in ("artifact", "name",
                                                    "---", ""):
            rows.append(cells)
    return rows


# -- one real producer per artifact with a validator switch --------------
def _trace(out):
    tracer = Tracer()
    with tracer.span("run"):
        tracer.event("diagnostic:SDC002", code="SDC002")
    tracer.write(out)


def _metrics(out):
    registry = MetricsRegistry()
    registry.inc("merge.runs")
    registry.set_gauge("merge.reduction_percent", 50.0)
    registry.observe("sta.run_seconds", 0.01)
    registry.write(out)


def _decisions(out):
    from repro.obs.explain import DecisionLedger

    ledger = DecisionLedger()
    with ledger.frame("run", "run:merge"):
        ledger.decide("mergeability.pair", "pair:A,B", verdict="rejected",
                      evidence=["reason"])
    ledger.write(out)


def _profile(out):
    from repro.obs.profile import Profiler

    profiler = Profiler()
    profiler.start()
    profiler.stop()
    out.write_text(json.dumps(profiler.export()))


def _trends_series(out, html):
    from repro.obs.trends import main as trends_main

    for label, seconds in (("s1", 1.0), ("s2", 2.0)):
        directory = out.parent / label
        directory.mkdir()
        (directory / "BENCH_demo.json").write_text(json.dumps({
            "schema_version": 1, "kind": "repro-metrics", "counters": {},
            "gauges": {"bench.demo.merge_seconds": seconds},
            "histograms": {}}))
    assert trends_main([str(out.parent / "s1"), str(out.parent / "s2"),
                        "-o", str(html), "--json", str(out)]) == 0


def _blackbox(out):
    from repro.obs.blackbox import BlackboxRecorder

    recorder = BlackboxRecorder()
    recorder.record("diagnostic", code="MRG002")
    assert recorder.flush(out, reason={"kind": "budget", "detail": "x"})


def _report_html(out):
    from repro.obs.report_html import write_run_report

    tracer = Tracer()
    with tracer.span("run"):
        pass
    write_run_report(out, tracer=tracer, title="zoo")


def _fuzz(out):
    from repro.fuzz.runner import FuzzConfig, FuzzRunner

    config = FuzzConfig(seed=7, max_cases=1, jobs=1, shrink=False,
                        corpus_dir=str(out.parent / "corpus"),
                        oracles=("permutation",))
    payload = FuzzRunner(config, log=lambda *args: None).run().payload
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))


PRODUCERS = {
    "trace": _trace,
    "metrics": _metrics,
    "decisions": _decisions,
    "profile": _profile,
    "trends": lambda out: _trends_series(out, out.with_suffix(".html")),
    "trends.html": lambda out: _trends_series(out.with_suffix(".json"),
                                              out),
    "blackbox": _blackbox,
    "report.html": _report_html,
    "fuzz": _fuzz,
}


class TestZooRegistry:
    def test_every_kind_has_version_producer_and_unique_name(self):
        for name, artifact in ARTIFACT_ZOO.items():
            assert name == artifact.name and artifact.producer
            assert isinstance(artifact.version, int) \
                and artifact.version >= 1
        switches = [a.switch for a in ARTIFACT_ZOO.values() if a.switch]
        assert len(switches) == len(set(switches))

    def test_every_validator_switch_is_a_real_cli_switch(self, tmp_path,
                                                         capsys):
        # An empty object is invalid for every artifact, so a switch the
        # CLI knows exits 1 and names its entry; an unknown one exits 2.
        path = tmp_path / "empty.json"
        path.write_text("{}")
        for artifact in ARTIFACT_ZOO.values():
            if not artifact.switch:
                continue
            assert validate_main([artifact.switch, str(path)]) == 1
            assert f"{artifact.name} {path}: INVALID" \
                in capsys.readouterr().err

    def test_every_validator_cli_switch_is_in_the_zoo(self, capsys):
        with pytest.raises(SystemExit) as exited:
            validate_main(["--help"])
        assert exited.value.code == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        declared = set(re.findall(r"\[(--[a-z-]+) FILE\]", usage))
        zoo_switches = {a.switch for a in ARTIFACT_ZOO.values()
                        if a.switch}
        assert declared == zoo_switches


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", [a.name for a in ARTIFACT_ZOO.values() if a.switch])
    def test_round_trip(self, name, tmp_path, capsys):
        artifact = ARTIFACT_ZOO[name]
        path = tmp_path / f"artifact.{name}"
        PRODUCERS[name](path)
        assert validate_main([artifact.switch, str(path)]) == 0, \
            capsys.readouterr().err
        # The first quoted kind is the record's (for HTML, the payload's).
        text = path.read_text()
        assert f'"{artifact.kind}"' in text
        path.write_text(text.replace(f'"{artifact.kind}"',
                                     '"repro-other"', 1))
        assert validate_main([artifact.switch, str(path)]) == 1
        assert "repro-other" in capsys.readouterr().err


class TestVersionBanner:
    def test_version_banner_covers_the_zoo(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        banner = capsys.readouterr().out
        for artifact in ARTIFACT_ZOO.values():
            assert f"{artifact.name}={artifact.version}" in banner

    def test_version_banner_keeps_its_line_breaks(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--version"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"repro-merge {__version__}"
        assert lines[1].startswith("artifact schema versions:")


class TestDocsTable:
    def test_docs_have_an_artifact_zoo_section(self):
        assert "## Artifact zoo" in DOCS.read_text()

    def test_docs_table_matches_the_registry_exactly(self):
        documented = _table_rows("Artifact zoo", 4)
        expected = [[a.name, str(a.version), a.producer, a.switch or "—"]
                    for a in ARTIFACT_ZOO.values()]
        assert documented == expected, \
            "docs/OBSERVABILITY.md artifact-zoo table is out of sync " \
            "with repro.obs.validate.ARTIFACT_ZOO"


class TestMetricContractTable:
    def test_every_contract_metric_is_documented_with_its_kind(self):
        documented = {row[0]: row[1]
                      for row in _table_rows("Metric name contract", 3)}
        for name, (kind, _meaning) in METRIC_CONTRACT.items():
            assert documented.get(name) == kind, \
                f"docs/OBSERVABILITY.md metric table lacks {name!r} " \
                f"as a {kind}"
