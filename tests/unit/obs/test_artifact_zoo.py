"""Contract test: the artifact zoo registry, the docs table, the
validator CLI, and ``repro-merge --version`` must agree.

``repro.obs.validate.ARTIFACT_ZOO`` is the source of truth; this test
fails whenever an artifact is added (or re-versioned) without updating
the documentation, the validator switch, or the version banner.  The
same holds for ``repro.obs.metrics.METRIC_CONTRACT`` and the docs'
metric name table.
"""

import re
from pathlib import Path

from repro.cli import _artifact_schema_versions
from repro.obs.metrics import METRIC_CONTRACT
from repro.obs.validate import ARTIFACT_ZOO

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
        if len(cells) == width and cells[0] not in ("kind", "name",
                                                    "---", ""):
            rows.append(cells)
    return rows


def _zoo_table_rows():
    return _table_rows("Artifact zoo", 4)


class TestZooRegistry:
    def test_every_kind_has_version_producer_and_unique_name(self):
        kinds = [row[0] for row in ARTIFACT_ZOO]
        assert len(kinds) == len(set(kinds))
        for kind, version, producer, switch in ARTIFACT_ZOO:
            assert kind and producer
            assert isinstance(version, int) and version >= 1

    def test_every_validator_switch_is_a_real_cli_switch(self):
        import repro.obs.validate as validate

        source = Path(validate.__file__).read_text()
        for kind, _version, _producer, switch in ARTIFACT_ZOO:
            if not switch:
                continue
            assert f'"{switch}"' in source, \
                f"zoo switch {switch} for {kind!r} is not a " \
                f"validator CLI argument"

    def test_every_validator_cli_switch_is_in_the_zoo(self):
        import repro.obs.validate as validate

        source = Path(validate.__file__).read_text()
        declared = set(re.findall(r'add_argument\("(--[a-z-]+)"',
                                  source))
        zoo_switches = {switch for *_ignored, switch in ARTIFACT_ZOO
                        if switch}
        assert declared == zoo_switches


class TestDocsTable:
    def test_docs_have_an_artifact_zoo_section(self):
        assert "## Artifact zoo" in DOCS.read_text()

    def test_docs_table_matches_the_registry_exactly(self):
        documented = _zoo_table_rows()
        expected = [[kind, str(version), producer, switch or "—"]
                    for kind, version, producer, switch in ARTIFACT_ZOO]
        assert documented == expected, \
            "docs/OBSERVABILITY.md artifact-zoo table is out of sync " \
            "with repro.obs.validate.ARTIFACT_ZOO"


class TestVersionBanner:
    def test_version_banner_covers_the_zoo(self):
        versions = _artifact_schema_versions()
        for kind, _version, _producer, _switch in ARTIFACT_ZOO:
            base = kind.split(".", 1)[0]
            assert base in versions or kind.replace(".", "-") in versions, \
                f"--version does not report a schema version for {kind}"


class TestMetricContractTable:
    def test_every_contract_metric_is_documented_with_its_kind(self):
        documented = {row[0]: row[1]
                      for row in _table_rows("Metric name contract", 3)}
        for name, (kind, _meaning) in METRIC_CONTRACT.items():
            assert documented.get(name) == kind, \
                f"docs/OBSERVABILITY.md metric table lacks {name!r} " \
                f"as a {kind}"
