import hashlib
import re
import tracemalloc

import numpy as np
import pytest
import yaml

from conftest import BAD_SCENARIO_FIELDS, scenario_error_names, set_scenario_key
from fogplan.errors import ParseError, UnknownVersion
from fogplan.scenario import (
    DEFAULT_FCM,
    DEFAULT_SERVICE_TEMPLATES,
    Latencies,
    Resources,
    ScenarioSpec,
    build_instance,
    build_landscape,
    load,
    paper_scenario,
    save,
    scaled_scenario,
    scaled_spec,
)


def fcm_count(prob):
    """Colonies in the instance: each has exactly one FCM."""
    return sum(r.kind.value == "fcm" for r in prob.landscape.resources)


class TestPaperScenario:
    def test_deadlines(self):
        prob = paper_scenario(42)
        assert [app.deadline for app in prob.apps] == [300.0, 60.0, 180.0, 240.0, 120.0]

    def test_fc_characteristics(self):
        prob = paper_scenario(7)
        fcs = [r for r in prob.landscape.resources if r.kind.value == "fc"]
        assert len(fcs) == 8
        for fc in fcs:
            assert (fc.cpu_capacity, fc.ram_capacity, fc.failure_probability) == (250, 256, 0.20)

    def test_shape(self):
        prob = paper_scenario(0)
        assert len(prob.apps) == 5
        assert all(len(app.services) == 5 for app in prob.apps)
        assert prob.n_services == 25
        assert fcm_count(prob) == 2

    def test_deterministic_per_seed(self):
        a, b = paper_scenario(3), paper_scenario(3)
        assert np.array_equal(a.service_avail_req, b.service_avail_req)
        c = paper_scenario(4)
        assert not np.array_equal(a.service_avail_req, c.service_avail_req)

    def test_availability_draws_within_template_ranges(self):
        for seed in range(20):
            prob = paper_scenario(seed)
            for app in prob.apps:
                for svc, template in zip(app.services, DEFAULT_SERVICE_TEMPLATES):
                    assert template.availability_lo <= svc.availability_req <= template.availability_hi

    def test_chain_topology(self):
        prob = paper_scenario(0)
        for app in prob.apps:
            assert app.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


class TestScaledScenario:
    def test_factor_one_is_identity(self):
        spec = ScenarioSpec(seed=5)
        a = build_instance(spec)
        b = scaled_scenario(spec, 1)
        assert a.n_services == b.n_services
        assert np.array_equal(a.service_avail_req, b.service_avail_req)
        assert len(a.landscape.resources) == len(b.landscape.resources)

    def test_factor_two_doubles_services(self):
        prob = scaled_scenario(ScenarioSpec(), 2)
        assert prob.n_services == 50
        assert fcm_count(prob) == 4

    def test_factor_four(self):
        prob = scaled_scenario(ScenarioSpec(), 4)
        assert prob.n_services == 100
        assert fcm_count(prob) == 8

    @pytest.mark.parametrize("factor", [2.5, 2.0, True, 0, -1])
    def test_factor_must_be_an_integer_of_at_least_one(self, factor):
        with pytest.raises(ValueError, match="replication factor"):
            scaled_scenario(ScenarioSpec(), factor)

    def test_numpy_integer_factor(self):
        assert scaled_scenario(ScenarioSpec(), np.int64(2)).n_services == 50

    def test_huge_factor_fails_before_allocating_for_it(self):
        # 1 + 2e6 * 5 resources exceed MAX_RESOURCES: the spec is refused
        # without first copying its deadlines and rates a million times
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="MAX_RESOURCES"):
                scaled_spec(ScenarioSpec(), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpecCounts:
    @pytest.mark.parametrize("name, value", [
        ("colonies", True),
        ("seed", True),
        ("seed", False),
        ("colonies", 2.5),
        ("services_per_app", 2.0),
        ("cells_per_colony", np.float64(3.0)),
        ("apps", "3"),
        ("seed", 1.5),
    ])
    def test_non_integer_or_bool_rejected(self, name, value):
        with pytest.raises(ParseError, match=name):
            ScenarioSpec(**{name: value})

    def test_numpy_integers_accepted(self):
        spec = ScenarioSpec(colonies=np.int64(1), seed=np.int32(3))
        assert build_instance(spec).n_services == 25


class TestSections:
    def test_sections_reach_the_landscape(self):
        spec = ScenarioSpec(resources=Resources(fc=DEFAULT_FCM), latencies=Latencies(fcm_cloud_ms=50.0))
        scape = build_landscape(spec)
        assert scape.latencies == Latencies(2.0, 10.0, 50.0)
        assert {r.cpu_capacity for r in scape.resources if r.kind.value != "cloud"} == {DEFAULT_FCM.cpu}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = ScenarioSpec(seed=9, apps=3, reserve_fraction=0.2)
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        assert load(path) == spec

    def test_missing_field_named(self, tmp_path):
        spec = ScenarioSpec()
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        doc = yaml.safe_load(path.read_text())
        del doc["deadlines"]
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert "deadlines" in str(exc.value)

    def test_negative_failure_rejected(self, tmp_path):
        spec = ScenarioSpec()
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        doc = yaml.safe_load(path.read_text())
        doc["resources"]["fc"]["failure"] = -0.1
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError):
            load(path)

    def test_unknown_service_kind_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        doc = yaml.safe_load(path.read_text())
        doc["service_templates"][0]["kind"] = "sensor"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError, match="sensor"):
            load(path)

    @pytest.mark.parametrize("key, value", [
        ("fcm_fcm_ms", -10.0),
        ("fcm_cloud_ms", -100.0),
        ("fc_fcm_ms", float("inf")),
        ("fcm_cloud_ms", float("nan")),
        *BAD_SCENARIO_FIELDS,
    ])
    def test_bad_latency_rejected(self, tmp_path, key, value):
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        doc = yaml.safe_load(path.read_text())
        set_scenario_key(doc, key, value)
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError, match=scenario_error_names(key)):
            load(path)

    @pytest.mark.parametrize("key, value", [
        ("colonnies", 7),
        ("latencies.fcm_fcm_msec", 1),
        ("resources.edge", {"cpu": 500, "ram": 256, "storage": 1000, "failure": 0.1}),
    ])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        # every field is there too: the extra key is all that is wrong
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        doc = yaml.safe_load(path.read_text())
        set_scenario_key(doc, key, value)
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError, match=re.escape(f"unknown keys {[key]}")):
            load(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["service_templates"][0].update(gpu=1),
                     "service_templates[0]: unknown keys ['service_templates[0].gpu']", id="template-extra"),
        pytest.param(lambda doc: doc["service_templates"][0].pop("cpu"),
                     "service_templates[0].cpu: required field missing", id="template-missing"),
        pytest.param(lambda doc: doc["service_templates"].__setitem__(0, 5),
                     "service_templates[0]: expected a mapping, got 5", id="template-not-mapping"),
        pytest.param(lambda doc: doc["resources"]["fc"].update(gpu=1),
                     "resources.fc: unknown keys ['resources.fc.gpu']", id="fc-extra"),
        pytest.param(lambda doc: doc["resources"]["fc"].pop("cpu"),
                     "resources.fc.cpu: required field missing", id="fc-missing"),
        pytest.param(lambda doc: doc.update(resources=5), "resources: expected a mapping, got 5", id="resources-5"),
        pytest.param(lambda doc: doc.update(latencies=[1, 2, 3]),
                     "latencies: expected a mapping, got [1, 2, 3]", id="latencies-list"),
        pytest.param(lambda doc: doc.pop("resources"), "resources: required field missing", id="resources-missing"),
    ])
    def test_nested_key_named(self, tmp_path, edit, message):
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        doc = yaml.safe_load(path.read_text())
        edit(doc)
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc["service_templates"][0].update(availability_lo=0.99) or doc,
                     "service_templates[0]: availability_lo: must satisfy 0 <= availability_lo <= availability_hi <= 1",
                     id="availability_lo-above-hi"),
        pytest.param(lambda doc: doc.update(apps=0) or doc, "apps: count must be >= 1", id="apps-0"),
        pytest.param(lambda doc: doc.update(deadlines=60) or doc, "deadlines: expected a list, got 60",
                     id="deadlines-scalar"),
        pytest.param(lambda doc: [doc], "<document>: scenario file must be a mapping", id="document-list"),
    ])
    def test_rejected_document_named(self, tmp_path, edit, message):
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        path.write_text(yaml.safe_dump(edit(yaml.safe_load(path.read_text()))))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load(path)

    @pytest.mark.parametrize("spec, digest", [
        pytest.param(ScenarioSpec(), "3155db5a24dd44f58a768f71f2d8b1b3d8118d4040f4036e6449f5059ca63407", id="paper"),
        pytest.param(ScenarioSpec(colonies=1, cells_per_colony=2, apps=2, services_per_app=3),
                     "0425bb018d5630f6d338e723709d1c835e34d9915213c9c19d3a6bef559cbd08", id="tiny"),
    ])
    def test_saved_bytes_pinned(self, tmp_path, spec, digest):
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("numpy_spec, spec", [
        pytest.param(ScenarioSpec(seed=np.int64(3)), ScenarioSpec(seed=3), id="seed"),
        pytest.param(scaled_spec(ScenarioSpec(), np.int64(2)), scaled_spec(ScenarioSpec(), 2), id="scaled"),
        pytest.param(ScenarioSpec(deadlines=(np.float64(300.0),)), ScenarioSpec(deadlines=(300.0,)), id="deadline"),
    ])
    def test_numpy_numbers_saved_as_python_numbers(self, tmp_path, numpy_spec, spec):
        # the counts take numpy integers and the float fields any number, so save writes them too
        saved, plain = tmp_path / "numpy.yaml", tmp_path / "plain.yaml"
        save(numpy_spec, saved)
        save(spec, plain)
        assert saved.read_bytes() == plain.read_bytes()
        assert load(saved) == spec

    def test_unknown_version(self, tmp_path):
        spec = ScenarioSpec()
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        doc = yaml.safe_load(path.read_text())
        doc["schema_version"] = 99
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(UnknownVersion):
            load(path)

    def test_bool_version_rejected(self, tmp_path):
        # true == 1, the supported version, in Python
        path = tmp_path / "scenario.yaml"
        save(ScenarioSpec(), path)
        doc = yaml.safe_load(path.read_text())
        doc["schema_version"] = True
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(UnknownVersion):
            load(path)

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        for content in (b"{unbalanced: [", b"\xff\xfe not utf-8"):
            path.write_bytes(content)
            with pytest.raises(ParseError):
                load(path)
