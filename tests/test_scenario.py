import numpy as np
import pytest
import yaml

from fogplan.errors import ParseError, UnknownVersion
from fogplan.scenario import (
    DEFAULT_SERVICE_TEMPLATES,
    ScenarioSpec,
    build_instance,
    load,
    paper_scenario,
    save,
    scaled_scenario,
)


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
        assert len(prob.landscape.colonies) == 2

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
        assert len(prob.landscape.colonies) == 4

    def test_factor_four(self):
        prob = scaled_scenario(ScenarioSpec(), 4)
        assert prob.n_services == 100
        assert len(prob.landscape.colonies) == 8


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

    def test_unknown_version(self, tmp_path):
        spec = ScenarioSpec()
        path = tmp_path / "scenario.yaml"
        save(spec, path)
        doc = yaml.safe_load(path.read_text())
        doc["schema_version"] = 99
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(UnknownVersion):
            load(path)

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("{unbalanced: [")
        with pytest.raises(ParseError):
            load(path)
