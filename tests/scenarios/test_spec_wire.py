"""The versioned spec wire format: spec_dict ⇄ spec_from_dict.

``spec_dict`` doubles as the artifact store's canonical form *and* the
serving layer's wire format, so these tests pin two properties at once:
the JSON round trip reconstructs every registered scenario exactly (same
dataclass, same content hash), and versioning is tolerant in precisely the
documented way — absent ``spec_version`` means 1, v1 documents never carry
the field (store hashes stay valid), unsupported versions fail loudly.
"""

import json
import sys

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

    # Each of these used to validate and then fail mid-run (a 500 over HTTP)
    # or be served under a store key of its own.
    @pytest.mark.parametrize("value", [1.0, True, "1"])
    def test_fa_must_be_an_integer(self, value):
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"][0]["fa"] = value
        with pytest.raises(ExperimentError, match="fa and f must be integers"):
            spec_from_dict(payload)

    @pytest.mark.parametrize("value", [1.0, True])
    def test_f_must_be_an_integer_or_null(self, value):
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"][0]["f"] = value
        with pytest.raises(ExperimentError, match="fa and f must be integers"):
            spec_from_dict(payload)
        payload["cases"][0]["f"] = 1
        assert spec_from_dict(payload).cases[0].f == 1

    @pytest.mark.parametrize("scenario", ["table1-smoke", "table2-proxy"])
    @pytest.mark.parametrize(
        "schedule, match",
        [
            ("fixed:0,1", "covers 2 sensors"),
            ("trust-aware:1", "covers 1 sensors"),
            ("trust-aware:nan,1,2", "finite"),
        ],
    )
    def test_schedules_are_checked_against_the_sensor_count(self, scenario, schedule, match):
        payload = wire(get_scenario(scenario))
        (payload if "schedules" in payload else payload["cases"][0])["schedules"] = [schedule]
        with pytest.raises(ExperimentError, match=match):
            spec_from_dict(payload)

    @pytest.mark.parametrize("scenario", ["table1-smoke", "table2-proxy"])
    def test_schedules_matching_the_sensor_count_are_accepted(self, scenario):
        payload = wire(get_scenario(scenario))
        sensors = 4 if scenario == "table2-proxy" else len(payload["cases"][0]["lengths"])
        schedules = [
            "fixed:" + ",".join(str(i) for i in reversed(range(sensors))),
            "trust-aware:" + ",".join(str(float(i)) for i in range(sensors)),
        ]
        (payload if "schedules" in payload else payload["cases"][0])["schedules"] = schedules
        spec_from_dict(payload)

    def test_lengths_whose_width_sums_overflow_are_rejected(self):
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"][0]["lengths"] = [1e308, 1e308, 1e308]
        with pytest.raises(ExperimentError, match="overflow the summed fusion widths"):
            spec_from_dict(payload)

    def test_width_sum_bound_is_samples_times_the_widest_length(self):
        payload = wire(get_scenario("table1-smoke"))
        samples = payload["samples"]
        widest = sys.float_info.max / samples
        payload["cases"][0]["lengths"] = [widest / 4, widest / 2, widest]
        spec_from_dict(payload)
        payload["cases"][0]["lengths"][-1] = widest * 1.001
        with pytest.raises(ExperimentError, match="overflow"):
            spec_from_dict(payload)

    def test_optimization_lengths_are_bounded_too(self):
        payload = wire(get_scenario("optimize-table1-row6"))
        payload["case"]["lengths"] = [1e308] * len(payload["case"]["lengths"])
        with pytest.raises(ExperimentError, match="overflow"):
            spec_from_dict(payload)

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("case", "label", 5),
            ("spec", "description", 5),
            ("spec", "tags", [5]),
            ("spec", "tags", ["paper", None]),
        ],
    )
    def test_labels_and_descriptions_must_be_strings(self, where, field, value):
        payload = wire(get_scenario("table1-smoke"))
        (payload["cases"][0] if where == "case" else payload)[field] = value
        with pytest.raises(ExperimentError, match="must be a string|must be strings"):
            spec_from_dict(payload)

    def test_non_object_payload(self):
        with pytest.raises(ExperimentError, match="JSON object"):
            spec_from_dict(["not", "a", "spec"])

    def test_unknown_kind(self):
        with pytest.raises(ExperimentError, match="unknown scenario kind"):
            spec_from_dict({"kind": "mystery", "name": "x"})

    def test_non_string_kind_is_rejected(self):
        # An unhashable kind used to escape as a TypeError from the kind lookup.
        with pytest.raises(ExperimentError, match="unknown scenario kind"):
            spec_from_dict({"kind": [], "name": "x"})

    def test_non_string_schedule_spec_is_rejected(self):
        # A number in a case's schedules used to escape as an AttributeError.
        payload = wire(get_scenario("table1-smoke"))
        payload["cases"][0]["schedules"] = [5]
        with pytest.raises(ExperimentError, match="schedule spec must be a string"):
            spec_from_dict(payload)

    def test_non_string_name_is_rejected(self):
        # A numeric name used to be accepted and served.
        payload = {**wire(get_scenario("table1-smoke")), "name": 5}
        with pytest.raises(ExperimentError, match="non-empty name"):
            spec_from_dict(payload)

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

