"""The versioned spec wire format: spec_dict ⇄ spec_from_dict.

``spec_dict`` doubles as the artifact store's canonical form *and* the
serving layer's wire format, so these tests pin two properties at once:
the JSON round trip reconstructs every registered scenario exactly (same
dataclass, same content hash), and versioning is tolerant in precisely the
documented way — absent ``spec_version`` means 1, v1 documents never carry
the field (store hashes stay valid), unsupported versions fail loudly.
"""

import json

import pytest

from repro.core.exceptions import ExperimentError
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.spec import (
    CHANNEL_SPEC_VERSION,
    SCHEMA_VERSION,
    SPEC_VERSION,
    MAX_SHARD_SAMPLES,
    SUPPORTED_SPEC_VERSIONS,
    CaseStudyScenario,
    ComparisonScenario,
    spec_dict,
    spec_from_dict,
    spec_key,
)


def wire(spec):
    """The payload exactly as it arrives over HTTP: through JSON bytes."""
    return json.loads(json.dumps(spec_dict(spec)))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_every_registered_scenario_round_trips(self, name):
        spec = get_scenario(name)
        rebuilt = spec_from_dict(wire(spec))
        assert rebuilt == spec
        assert type(rebuilt) is type(spec)
        assert spec_key(rebuilt) == spec_key(spec)

    def test_tuple_fields_come_back_as_tuples(self):
        rebuilt = spec_from_dict(wire(get_scenario("table1-smoke")))
        assert isinstance(rebuilt, ComparisonScenario)
        assert isinstance(rebuilt.tags, tuple)
        assert isinstance(rebuilt.cases, tuple)
        assert isinstance(rebuilt.cases[0].lengths, tuple)
        assert isinstance(rebuilt.cases[0].schedules, tuple)

    def test_integral_attacked_sensor_survives_json(self):
        spec = get_scenario("table2-proxy")
        payload = wire(spec)
        if isinstance(payload.get("attacked_sensor"), (int, float)):
            payload["attacked_sensor"] = float(payload["attacked_sensor"])
            rebuilt = spec_from_dict(payload)
            assert isinstance(rebuilt, CaseStudyScenario)
            assert rebuilt.attacked_sensor == spec.attacked_sensor


class TestVersioning:
    def test_v1_documents_omit_spec_version(self):
        # The store-hash compatibility guarantee: while SPEC_VERSION == 1,
        # serialised specs are byte-for-byte what they were before the wire
        # format was versioned at all.
        assert SPEC_VERSION == 1
        payload = spec_dict(get_scenario("table1-smoke"))
        assert "spec_version" not in payload
        assert payload["schema"] == SCHEMA_VERSION

    def test_absent_spec_version_implies_one(self):
        spec = get_scenario("table1-smoke")
        assert spec_from_dict(wire(spec)) == spec

    def test_explicit_version_one_is_tolerated(self):
        spec = get_scenario("table1-smoke")
        assert spec_from_dict({**wire(spec), "spec_version": 1}) == spec

    @pytest.mark.parametrize("version", [0, 3, "one", None])
    def test_unsupported_versions_rejected_with_supported_list(self, version):
        payload = {**wire(get_scenario("table1-smoke")), "spec_version": version}
        with pytest.raises(ExperimentError, match="unsupported spec_version"):
            spec_from_dict(payload)
        assert 1 in SUPPORTED_SPEC_VERSIONS

    def test_wrong_schema_rejected(self):
        payload = {**wire(get_scenario("table1-smoke")), "schema": 999}
        with pytest.raises(ExperimentError, match="schema"):
            spec_from_dict(payload)

    def test_channel_free_specs_never_mention_the_channel(self):
        # The hash-stability half of the channel versioning contract:
        # without a channel, the serialised form is byte-for-byte the
        # pre-channel wire format — no `channel` keys, no `spec_version`.
        payload = spec_dict(get_scenario("table1-smoke"))
        assert "spec_version" not in payload
        assert all("channel" not in case for case in payload["cases"])

    def test_channel_specs_are_version_two(self):
        payload = spec_dict(get_scenario("sweep-lossy-smoke"))
        assert payload["spec_version"] == CHANNEL_SPEC_VERSION
        assert payload["cases"][0]["channel"]["model"] == "iid"

    def test_v1_payload_carrying_a_channel_is_rejected(self):
        payload = wire(get_scenario("sweep-lossy-smoke"))
        payload.pop("spec_version")
        with pytest.raises(ExperimentError, match="spec_version"):
            spec_from_dict(payload)


class TestRejection:
    @pytest.mark.parametrize(
        "scenario, fields",
        [
            ("table1-smoke", {"seed": -1}),
            ("table1-smoke", {"seed": 1.5}),
            ("table1-smoke", {"seed": True}),
            ("table1-smoke", {"samples": 150.5}),
            ("table1-smoke", {"schedules": ["fixed:a"]}),
            ("table1-smoke", {"attacked_indices": [5]}),
            ("table1-smoke", {"fault_probability": 2.0}),
            ("table1-smoke", {"lengths": ["NaN", 1, 2]}),
            ("table1-smoke", {"lengths": 5}),
            ("table2-proxy", {"n_steps": 2.5}),
            ("table2-proxy", {"n_replicas": True}),
            ("table2-proxy", {"attacker": "exact", "expectation_grid": [1, 1]}),
            ("table2-proxy", {"attacker": "exact", "expectation_grid": [1, 0, 1]}),
        ],
    )
    def test_invalid_field_values_are_experiment_errors(self, scenario, fields):
        payload = wire(get_scenario(scenario))
        for name, value in fields.items():
            (payload if name in payload else payload["cases"][0])[name] = value
        with pytest.raises(ExperimentError):
            spec_from_dict(payload)

    def test_non_object_payload(self):
        with pytest.raises(ExperimentError, match="JSON object"):
            spec_from_dict(["not", "a", "spec"])

    def test_unknown_kind(self):
        with pytest.raises(ExperimentError, match="unknown scenario kind"):
            spec_from_dict({"kind": "mystery", "name": "x"})

    def test_unknown_fields_named_in_the_error(self):
        payload = {**wire(get_scenario("table1-smoke")), "bogus_knob": 3}
        with pytest.raises(ExperimentError, match="bogus_knob"):
            spec_from_dict(payload)

    def test_unknown_case_fields_named_in_the_error(self):
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"][0]["bogus_case_knob"] = 3
        with pytest.raises(ExperimentError, match="bogus_case_knob"):
            spec_from_dict(payload)

    def test_malformed_case_shape(self):
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"] = ["not-an-object"]
        with pytest.raises(ExperimentError, match="comparison case"):
            spec_from_dict(payload)

    def test_dataclass_validation_still_runs(self):
        payload = {**wire(get_scenario("table1-smoke")), "samples": -5}
        with pytest.raises(ExperimentError, match="samples"):
            spec_from_dict(payload)

    @pytest.mark.parametrize("scenario", ["table1-smoke", "optimize-table1-row6"])
    @pytest.mark.parametrize("engine", [5, ["batch"], ""])
    def test_engine_must_be_a_name_or_null(self, scenario, engine):
        # A non-string engine used to pass validation and crash the runner
        # (a 500 over HTTP) instead of being rejected as a bad spec.
        payload = {**wire(get_scenario(scenario)), "engine": engine}
        with pytest.raises(ExperimentError, match="engine must be"):
            spec_from_dict(payload)

    def test_engine_check_covers_dataclasses_replace(self):
        import dataclasses

        with pytest.raises(ExperimentError, match="engine must be"):
            dataclasses.replace(get_scenario("table1-smoke"), engine=5)

    @pytest.mark.parametrize("scenario", ["table2-proxy", "fig1-marzullo"])
    @pytest.mark.parametrize("engine", [5, ["batch"], ""])
    def test_engine_check_covers_case_study_and_figure_kinds(self, scenario, engine):
        # The check lives on the shared base spec, so every kind rejects a
        # non-name engine before its own field checks run.
        payload = {**wire(get_scenario(scenario)), "engine": engine}
        with pytest.raises(ExperimentError, match="engine must be"):
            spec_from_dict(payload)

    @pytest.mark.parametrize("engine", [None, "batch", "scalar"])
    def test_engine_accepts_null_and_names(self, engine):
        payload = {**wire(get_scenario("table1-smoke")), "engine": engine}
        assert spec_from_dict(payload).engine == engine

    def test_case_study_shard_rounds_bounded(self):
        # One shard of 8 replicas x 10^6 vehicles x 10^9 steps used to pass
        # validation and allocate 8 * 10^6-row arrays on every step.
        payload = wire(get_scenario("table2-proxy"))
        payload.update(n_vehicles=10**6, n_steps=10**9, shard_replicas=8)
        with pytest.raises(ExperimentError, match="rounds; at most"):
            spec_from_dict(payload)

    def test_case_study_shard_rounds_bound_is_inclusive(self):
        # A batch shard steps min(n_replicas, shard_replicas) platoons; the
        # scalar oracle steps one platoon per shard.
        CaseStudyScenario(
            name="edge", n_replicas=2, shard_replicas=8, n_vehicles=1, n_steps=MAX_SHARD_SAMPLES // 2
        )
        with pytest.raises(ExperimentError, match="rounds; at most"):
            CaseStudyScenario(
                name="edge", n_replicas=2, shard_replicas=8, n_vehicles=1, n_steps=MAX_SHARD_SAMPLES // 2 + 1
            )
        oracle = dict(name="edge", engine="scalar", attacker="expectation-grid", n_vehicles=1)
        CaseStudyScenario(n_steps=MAX_SHARD_SAMPLES, **oracle)
        with pytest.raises(ExperimentError, match="rounds; at most"):
            CaseStudyScenario(n_steps=MAX_SHARD_SAMPLES + 1, **oracle)

