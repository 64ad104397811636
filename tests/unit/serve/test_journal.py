"""Unit tests for the durable job journal."""

import json

import pytest

from repro.exec.chaos import ChaosPlan
from repro.serve.journal import (
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournalError,
)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestAppendRecover:
    def test_round_trip(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1", seq=1, modes=["a", "b"])
        journal.append("admit", job="j1")
        journal.append("chaos", key="serve:ckpt", attempt=1)
        journal.close()

        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [r["event"] for r in records] == ["submit", "admit", "chaos"]
        assert records[0]["modes"] == ["a", "b"]

    def test_header_written_once(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.close()
        journal = JobJournal(path)
        journal.append("admit", job="j1")
        journal.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"kind": JOURNAL_KIND,
                          "schema_version": JOURNAL_SCHEMA_VERSION}
        assert sum(1 for line in lines
                   if json.loads(line).get("kind") == JOURNAL_KIND) == 1

    def test_missing_file_is_empty(self, path):
        assert JobJournal(path).recover() == ([], 0)

    def test_append_returns_fsynced_record(self, path):
        journal = JobJournal(path)
        record = journal.append("submit", job="j1", seq=4)
        assert record["event"] == "submit"
        assert record["crc"]
        # durable before the call returned: a fresh reader sees it
        records, _ = JobJournal(path).recover()
        assert records == [record]


class TestTornTail:
    def test_partial_last_line_dropped_and_truncated(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.append("admit", job="j1")
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"event": "start", "job": "j1", "cr')  # torn write

        records, torn = JobJournal(path).recover()
        assert torn == 1
        assert [r["event"] for r in records] == ["submit", "admit"]
        # the debris is gone: appends continue on a clean boundary
        journal = JobJournal(path)
        journal.append("start", job="j1")
        journal.close()
        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [r["event"] for r in records] == ["submit", "admit", "start"]

    def test_corrupted_record_in_tail_dropped(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.close()
        good = path.read_bytes()
        record = {"event": "admit", "job": "j1", "crc": "0" * 16}
        path.write_bytes(good + json.dumps(record).encode() + b"\n")

        records, torn = JobJournal(path).recover()
        assert torn == 1
        assert [r["event"] for r in records] == ["submit"]

    def test_corruption_before_valid_records_raises(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.append("admit", job="j1")
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"mangled\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt record at line 2"):
            JobJournal(path).recover()

    def test_crc_detects_edited_record(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1", seq=1)
        journal.close()
        text = path.read_text().replace('"seq": 1', '"seq": 2')
        path.write_text(text)
        records, torn = JobJournal(path).recover()
        assert torn == 1
        assert records == []

    def test_unsupported_schema_rejected(self, path):
        path.write_text(json.dumps({"kind": JOURNAL_KIND,
                                    "schema_version": 99}) + "\n")
        with pytest.raises(JournalError, match="unsupported journal schema"):
            JobJournal(path).recover()


class TestJournalChaos:
    def test_fault_surfaces_as_journal_error(self, path):
        plan = ChaosPlan.from_spec("corrupt@serve:journal:submit@1")
        journal = JobJournal(path, chaos=plan)
        with pytest.raises(JournalError, match="chaos corrupt"):
            journal.append("submit", job="j1")
        # nothing but the header reached the file: the ack never happened
        records, torn = JobJournal(path).recover()
        assert (records, torn) == ([], 0)
        # attempt 2 passes the one-shot clause
        journal.append("submit", job="j1")
        journal.close()

    def test_crash_kind_also_maps_to_write_failure(self, path):
        # a real SIGKILL inside the journal would re-fire forever across
        # restarts (append attempts are process-local), so every fault
        # kind at a journal key models a failed write instead
        plan = ChaosPlan.from_spec("crash@serve:journal:admit@1")
        journal = JobJournal(path, chaos=plan)
        journal.append("submit", job="j1")
        with pytest.raises(JournalError, match="chaos crash"):
            journal.append("admit", job="j1")
        journal.close()

    def test_chaos_arming_records_are_never_struck(self, path):
        # failing the record that arms a service strike would count a
        # one-shot fault without ever applying it
        plan = ChaosPlan.from_spec("corrupt@serve:journal:chaos@1")
        journal = JobJournal(path, chaos=plan)
        journal.append("chaos", key="serve:ckpt", attempt=1, kind="crash")
        journal.close()
        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [(r["event"], r["key"], r["attempt"], r["kind"])
                for r in records] == [("chaos", "serve:ckpt", 1, "crash")]
