"""Unit tests for the deterministic chaos injection plans."""

import pickle

import pytest

from repro.exec.chaos import (
    CHAOS_ENV,
    FAULT_KINDS,
    SEEDED_MAX_ATTEMPT,
    ChaosFault,
    ChaosPlan,
    CorruptPayload,
)


class TestChaosFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault kind"):
            ChaosFault(kind="meltdown")

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt must be >= 1"):
            ChaosFault(kind="crash", attempt=0)

    def test_matches_glob_and_attempt(self):
        fault = ChaosFault(kind="hang", pattern="scan:*", attempt=2)
        assert fault.matches("scan:a+b", 2)
        assert not fault.matches("scan:a+b", 1)
        assert not fault.matches("group:a+b", 2)

    def test_spec_round_trip(self):
        fault = ChaosFault(kind="hang", pattern="group:a+b",
                           attempt=3, seconds=1.5)
        assert fault.to_spec() == "hang@group:a+b@3@1.5"
        plan = ChaosPlan.from_spec(fault.to_spec())
        assert plan.faults == [fault]


class TestChaosPlanSpec:
    def test_empty_spec_means_no_plan(self):
        assert ChaosPlan.from_spec(None) is None
        assert ChaosPlan.from_spec("") is None
        assert ChaosPlan.from_spec("  ;  ") is None

    def test_explicit_faults_parse(self):
        plan = ChaosPlan.from_spec("crash@group:a+b@1;hang@scan:*@2@30")
        assert [f.kind for f in plan.faults] == ["crash", "hang"]
        assert plan.faults[1].seconds == 30.0
        assert plan.seed is None

    def test_seed_with_rate(self):
        plan = ChaosPlan.from_spec("seed:11:0.3")
        assert plan.seed == 11
        assert plan.rate == 0.3
        assert plan.faults == []

    def test_full_round_trip(self):
        spec = "crash@group:a+b@1;hang@scan:*@2@30;seed:7:0.25"
        plan = ChaosPlan.from_spec(spec)
        assert ChaosPlan.from_spec(plan.to_spec()).to_spec() \
            == plan.to_spec()

    @pytest.mark.parametrize("bad", [
        "crash@only-two-fields",
        "crash@k@notanint",
        "hang@k@1@notafloat",
        "seed:notanint",
        "seed:",
    ])
    def test_malformed_spec_raises(self, bad):
        with pytest.raises(ValueError):
            ChaosPlan.from_spec(bad)

    def test_rate_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            ChaosPlan.from_spec("seed:1:1.5")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert ChaosPlan.from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "seed:42")
        plan = ChaosPlan.from_env()
        assert plan is not None and plan.seed == 42


class TestSeededSchedule:
    def test_deterministic_across_instances(self):
        a = ChaosPlan.seeded(11, rate=0.5)
        b = ChaosPlan.from_spec(a.to_spec())
        for i in range(50):
            for attempt in (1, 2):
                fa = a.fault_for(f"task:{i}", attempt)
                fb = b.fault_for(f"task:{i}", attempt)
                assert (fa is None) == (fb is None)
                if fa is not None:
                    assert fa.kind == fb.kind

    def test_never_fires_past_seeded_max_attempt(self):
        plan = ChaosPlan.seeded(3, rate=1.0)
        for i in range(100):
            assert plan.fault_for(f"k:{i}", SEEDED_MAX_ATTEMPT + 1) is None

    def test_rate_zero_never_fires(self):
        plan = ChaosPlan.seeded(3, rate=0.0)
        assert all(plan.fault_for(f"k:{i}", 1) is None for i in range(100))

    def test_rate_one_always_fires_valid_kind(self):
        plan = ChaosPlan.seeded(3, rate=1.0)
        for i in range(20):
            fault = plan.fault_for(f"k:{i}", 1)
            assert fault is not None and fault.kind in FAULT_KINDS

    def test_explicit_fault_wins_over_seed(self):
        plan = ChaosPlan(faults=[ChaosFault(kind="corrupt", pattern="k")],
                         seed=3, rate=1.0)
        assert plan.fault_for("k", 1).kind == "corrupt"


class TestStrike:
    def test_corrupt_returns_sentinel(self):
        plan = ChaosPlan(faults=[ChaosFault(kind="corrupt", pattern="k")])
        payload = plan.strike("k", 1)
        assert payload == CorruptPayload("k", 1)

    def test_hang_pooled_outlives_deadline(self):
        fault = ChaosFault(kind="hang", pattern="k")
        assert ChaosPlan._hang_seconds(fault, 0.2) > 0.2

    def test_no_fault_no_effect(self):
        plan = ChaosPlan(faults=[ChaosFault(kind="crash", pattern="other")])
        assert plan.strike("k", 1) is None


class TestCorruptPayload:
    def test_pickle_round_trip(self):
        payload = CorruptPayload("scan:a+b", 2)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone == payload
        assert clone.key == "scan:a+b" and clone.attempt == 2

    def test_inequality(self):
        assert CorruptPayload("a", 1) != CorruptPayload("a", 2)
        assert CorruptPayload("a", 1) != "a"


class TestMalformedSpecRejection:
    """Pinned contract: a typo'd ``REPRO_CHAOS`` is an input error —
    :class:`ChaosSpecError` (an ``EXE009`` :class:`ValueError`), never a
    silent no-op and never a bare traceback."""

    def test_chaos_spec_error_types(self):
        from repro.errors import ChaosSpecError, ExecError

        assert issubclass(ChaosSpecError, ExecError)
        assert issubclass(ChaosSpecError, ValueError)

    @pytest.mark.parametrize("spec", [
        "bogus@*@1",                 # unknown fault kind
        "crash@",                    # missing glob / attempt
        "crash@key@1@2@3@4",         # too many clause fields
        "crash@key@zero",            # non-integer attempt
        "hang@key@1@fast",           # non-numeric seconds
        "seed:abc",                  # non-integer seed
        "seed:1:2.0",                # rate out of [0, 1]
        "seed:1:0.5:x",              # too many seed fields
    ])
    def test_malformed_specs_raise_chaos_spec_error(self, spec):
        from repro.errors import ChaosSpecError

        with pytest.raises(ChaosSpecError) as excinfo:
            ChaosPlan.from_spec(spec)
        assert excinfo.value.spec == spec

    def test_maps_to_exe009_with_hint(self):
        from repro.diagnostics import DegradationPolicy, \
            DiagnosticCollector
        from repro.errors import ChaosSpecError

        collector = DiagnosticCollector(DegradationPolicy.STRICT)
        try:
            ChaosPlan.from_spec("bogus@*@1")
        except ChaosSpecError as exc:
            diagnostic = collector.capture(exc, source=CHAOS_ENV)
        assert diagnostic.code == "EXE009"
        assert "REPRO_CHAOS" in diagnostic.hint

    def test_from_env_validates(self, monkeypatch):
        from repro.errors import ChaosSpecError

        monkeypatch.setenv(CHAOS_ENV, "notakind@x@1")
        with pytest.raises(ChaosSpecError):
            ChaosPlan.from_env()

    def test_well_formed_specs_still_parse(self):
        plan = ChaosPlan.from_spec(
            "cache-corrupt@results:*@1;seed:3:0.5")
        assert plan.faults[0].kind == "cache-corrupt"
        assert plan.seed == 3
