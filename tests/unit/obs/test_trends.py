"""Unit tests for benchmark trend analytics (repro.obs.trends)."""

import json

import pytest

from repro.obs.trends import (
    TrendsError,
    build_trends,
    discover_snapshots,
    load_snapshot,
    main as trends_main,
    render_trends_html,
    write_trends_html,
    write_trends_json,
)
from repro.obs.validate import validate_trends, validate_trends_html


def _snapshot_dir(tmp_path, label, gauges, meta=None):
    directory = tmp_path / label
    directory.mkdir()
    record = {"schema_version": 1, "kind": "repro-metrics",
              "counters": {}, "gauges": gauges, "histograms": {}}
    if meta is not None:
        record["bench_meta"] = meta
    (directory / "BENCH_demo.json").write_text(json.dumps(record))
    return directory


META = {"python": "3.11.9", "schema_version": 1}


@pytest.fixture
def series_dirs(tmp_path):
    """Three snapshots with a synthetic regression at the last step."""
    return [
        _snapshot_dir(tmp_path, "s1",
                      {"bench.demo.merge_seconds": 1.0,
                       "bench.demo.modes_merged": 10.0}, META),
        _snapshot_dir(tmp_path, "s2",
                      {"bench.demo.merge_seconds": 1.05,
                       "bench.demo.modes_merged": 10.0}, META),
        _snapshot_dir(tmp_path, "s3",
                      {"bench.demo.merge_seconds": 2.0,
                       "bench.demo.modes_merged": 6.0}, META),
    ]


class TestLoadAndDiscover:
    def test_load_snapshot_directory(self, series_dirs):
        snap = load_snapshot(series_dirs[0])
        assert snap["label"] == "s1"
        assert snap["metrics"]["bench.demo.merge_seconds"] == 1.0
        assert snap["meta"]["python"] == "3.11.9"

    def test_load_single_file(self, series_dirs):
        snap = load_snapshot(series_dirs[0] / "BENCH_demo.json")
        assert snap["metrics"]["bench.demo.modes_merged"] == 10.0

    def test_load_missing_and_wrong_kind(self, tmp_path):
        with pytest.raises(TrendsError):
            load_snapshot(tmp_path / "nope")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(TrendsError):
            load_snapshot(bad)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(TrendsError):
            load_snapshot(empty)

    def test_discover_sorted_by_name(self, series_dirs, monkeypatch):
        root = series_dirs[0].parent
        monkeypatch.setenv("REPRO_BENCH_DIR", str(root))
        found = discover_snapshots()
        assert [p.rsplit("/", 1)[-1] for p in found] == ["s1", "s2", "s3"]
        monkeypatch.delenv("REPRO_BENCH_DIR")
        assert discover_snapshots() == []


class TestBuildTrends:
    def test_regression_is_direction_marked(self, series_dirs):
        payload = build_trends([load_snapshot(p) for p in series_dirs])
        seconds = payload["series"]["bench.demo.merge_seconds"]
        # +5% then +90%: only the second step crosses the threshold,
        # and only because "seconds" marks the metric regression-gated.
        assert seconds["direction"] == 1
        assert seconds["markers"] == [None, "regression"]
        neutral = payload["series"]["bench.demo.modes_merged"]
        # -40% on a neutral metric: plotted, never marked.
        assert neutral["direction"] == 0
        assert neutral["markers"] == [None, None]
        assert payload["summary"] == {"snapshots": 3, "metrics": 2,
                                      "regressions": 1,
                                      "improvements": 0}

    def test_improvement_marked_on_recovery(self, tmp_path):
        dirs = [_snapshot_dir(tmp_path, "a",
                              {"bench.x.run_seconds": 2.0}, META),
                _snapshot_dir(tmp_path, "b",
                              {"bench.x.run_seconds": 1.0}, META)]
        payload = build_trends([load_snapshot(p) for p in dirs])
        assert payload["series"]["bench.x.run_seconds"]["markers"] \
            == ["improvement"]

    def test_absent_metric_yields_none_not_marker(self, tmp_path):
        dirs = [_snapshot_dir(tmp_path, "a",
                              {"bench.x.run_seconds": 1.0}, META),
                _snapshot_dir(tmp_path, "b", {"bench.y.other": 1.0},
                              META)]
        payload = build_trends([load_snapshot(p) for p in dirs])
        series = payload["series"]["bench.x.run_seconds"]
        assert series["values"] == [1.0, None]
        assert series["markers"] == [None]

    def test_meta_change_marks_comparability_break(self, tmp_path):
        changed = dict(META, python="3.12.1", schema_version=2)
        dirs = [_snapshot_dir(tmp_path, "a", {"bench.x.n": 1.0}, META),
                _snapshot_dir(tmp_path, "b", {"bench.x.n": 1.0},
                              changed)]
        payload = build_trends([load_snapshot(p) for p in dirs])
        assert payload["breaks"] == [{"index": 1,
                                      "changed": ["python",
                                                  "schema_version"]}]

    def test_fewer_than_two_snapshots_raises(self, series_dirs):
        with pytest.raises(TrendsError):
            build_trends([load_snapshot(series_dirs[0])])


class TestOutputs:
    def test_json_and_html_validate(self, series_dirs, tmp_path):
        payload = build_trends([load_snapshot(p) for p in series_dirs])
        json_path = write_trends_json(tmp_path / "trends.json", payload)
        html_path = write_trends_html(tmp_path / "trends.html", payload)
        assert validate_trends(json_path.read_text()) == []
        assert validate_trends_html(html_path.read_text()) == []

    def test_html_marks_regression_and_break(self, tmp_path):
        changed = dict(META, python="3.12.1")
        dirs = [_snapshot_dir(tmp_path, "a",
                              {"bench.x.run_seconds": 1.0}, META),
                _snapshot_dir(tmp_path, "b",
                              {"bench.x.run_seconds": 3.0}, changed)]
        html = render_trends_html(
            build_trends([load_snapshot(p) for p in dirs]))
        assert "class='num regression'" in html
        assert "python" in html
        assert "<svg" in html

    def test_embedded_payload_round_trips(self, series_dirs):
        payload = build_trends([load_snapshot(p) for p in series_dirs])
        html = render_trends_html(payload)
        start = html.find('<script type="application/json"')
        body = html[html.find(">", start) + 1:html.find("</script>",
                                                        start)]
        assert json.loads(body) == json.loads(
            json.dumps(payload, sort_keys=True))


class TestMain:
    def test_main_writes_both_outputs(self, series_dirs, tmp_path,
                                      capsys):
        out_html = tmp_path / "out" / "trends.html"
        out_html.parent.mkdir()
        out_json = tmp_path / "out" / "trends.json"
        code = trends_main([str(p) for p in series_dirs]
                           + ["-o", str(out_html),
                              "--json", str(out_json)])
        assert code == 0
        assert validate_trends_html(out_html.read_text()) == []
        assert validate_trends(out_json.read_text()) == []
        assert "1 regression(s)" in capsys.readouterr().out

    def test_main_needs_two_snapshots(self, series_dirs, capsys,
                                      monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert trends_main([str(series_dirs[0])]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_main_rejects_unreadable_snapshot(self, series_dirs,
                                              tmp_path, capsys):
        assert trends_main([str(series_dirs[0]),
                            str(tmp_path / "missing")]) == 2
        assert "no such snapshot" in capsys.readouterr().err
