import csv
import os

import pytest

from fogplan.cli import ConfigError, _parse_params, main
from fogplan.scenario import ScenarioSpec, save


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestEvolutionExperiment:
    def test_all_algorithms_two_seeds(self, tmp_path):
        rc = main([
            "--experiment", "evolution", "--algo", "all", "--scenario", "paper",
            "--seeds", "0..1", "--evals", "120", "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = read_rows(tmp_path / "evolution.csv")
        assert rows[0] == [
            "algorithm", "seed", "evaluations", "best_fog_utilization",
            "best_availability", "compromise_fog_utilization",
            "compromise_availability", "hypervolume", "feasible_fraction",
        ]
        assert {r[0] for r in rows[1:]} == {"nsga2", "mopso", "moead"}
        assert {r[1] for r in rows[1:]} == {"0", "1"}
        for row in rows[1:]:
            assert int(row[2]) <= 120
            for cell in row[3:]:
                float(cell)  # finite numerics only

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--algo", "nsga2", "--seeds", "0,1", "--evals", "100",
                "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "evolution.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "evolution.csv").read_bytes() == first

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        args = ["--algo", "all", "--seeds", "0,1", "--evals", "100",
                "--out", str(tmp_path)]
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(args) == 0
        serial = (tmp_path / "evolution.csv").read_bytes()
        monkeypatch.setenv("FOGPLAN_WORKERS", "3")
        assert main(args) == 0
        assert (tmp_path / "evolution.csv").read_bytes() == serial

    def test_budget_below_population_exits_2(self, tmp_path, capsys):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "10",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "population" in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_unknown_algorithm_exits_2(self, tmp_path):
        assert main(["--algo", "simulated-annealing", "--out", str(tmp_path)]) == 2

    def test_scenario_file(self, tmp_path):
        spec = ScenarioSpec(apps=2, services_per_app=2, seed=1)
        scenario_path = tmp_path / "small.yaml"
        save(spec, scenario_path)
        rc = main(["--algo", "moead", "--scenario", str(scenario_path),
                   "--seeds", "0", "--evals", "80", "--out", str(tmp_path)])
        assert rc == 0


class TestDeadlineExperiment:
    def test_paper_deadlines_in_rows(self, tmp_path):
        rc = main(["--experiment", "deadline", "--algo", "nsga2", "--seeds", "0",
                   "--evals", "120", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "deadline.csv")
        assert rows[0] == ["algorithm", "seed", "app", "response_time_s",
                           "deadline_s", "satisfied"]
        by_app = {row[2]: row for row in rows[1:]}
        assert by_app["0"][4] == "300"
        assert by_app["1"][4] == "60"
        for row in rows[1:]:
            assert row[5] in ("true", "false")
            if row[3] != "SAT":
                float(row[3])


class TestScalingExperiment:
    def test_factor_column(self, tmp_path):
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0",
                   "--evals", "80", "--factors", "1,2", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "scaling.csv")
        assert [r[1] for r in rows[1:]] == ["25", "50"]
        for row in rows[1:]:
            assert float(row[2]) > 0 and float(row[3]) > 0

    def test_empty_factors_exits_2(self, tmp_path):
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0",
                   "--evals", "80", "--factors", "", "--out", str(tmp_path)])
        assert rc == 2


class TestParamOverrides:
    def test_population_override(self, tmp_path):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "40",
                   "--param", "population_size=10", "--out", str(tmp_path)])
        assert rc == 0

    def test_unknown_param_exits_2(self, tmp_path):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "40",
                   "--param", "bogus=1", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_seeds_exits_2(self, tmp_path):
        rc = main(["--algo", "nsga2", "--seeds", "zero", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("pair", [
        "population_size=3",
        "archive_capacity=0",
        "neighborhood_size=0",
        "grid_divisions=2.5",
        "inertia=nan",
    ])
    def test_bad_param_value_exits_2(self, tmp_path, capsys, pair):
        rc = main(["--algo", "all", "--seeds", "0", "--evals", "40",
                   "--param", pair, "--out", str(tmp_path)])
        assert rc == 2
        assert pair.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_param_types_follow_annotations(self):
        parsed = _parse_params(["population_size=40.0", "inertia=1", "mutation_prob=0.5"])
        assert parsed == {"population_size": 40, "inertia": 1.0, "mutation_prob": 0.5}
        assert type(parsed["population_size"]) is int and type(parsed["inertia"]) is float
        with pytest.raises(ConfigError, match="integer"):
            _parse_params(["weight_resolution=7.5"])
