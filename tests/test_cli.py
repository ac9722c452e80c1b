import csv
import hashlib
import os
import tracemalloc
from collections import Counter

import pytest
import yaml

from conftest import BAD_SCENARIO_FIELDS, scenario_error_names, set_scenario_key
from fogplan import cli, scenario
from fogplan.cli import ConfigError, _parse_params, _parse_seeds, main
from fogplan.moea import ALGORITHMS, AlgoParams, ParetoArchive, common
from fogplan.scenario import ScenarioSpec, build_instance, load, save, scaled_scenario, scaled_spec

DEADLINE_CSV_SHA256 = "bf043726256422dab148c2909008332faccd43ea93cf20bddbcaac88d5677c8d"


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

    def test_worker_count_capped_at_run_count(self, tmp_path, monkeypatch):
        # a forking pool starts every worker at its first submit: a stand-in
        # records the count asked for and runs the jobs in this process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr("fogplan.cli.ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("FOGPLAN_WORKERS", "64")
        assert main(["--algo", "nsga2", "--seeds", "0,1", "--evals", "40", "--out", str(tmp_path)]) == 0
        assert asked == [2]

    def test_paper_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # Pins the results, not only their repeatability: a change that
        # alters results on purpose re-pins this digest and says why in
        # CHANGES.md; a speed-up must leave it alone.
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "evolution", "--algo", "all", "--seeds", "0",
                     "--evals", "200", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
        assert digest == "2e249b90ab316f3e232f7d620ae7b2aba530c17d5f3ee3877f373e3b06edb47e"

    def test_truncated_archive_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # paper fronts hold at most 17 points, so the default capacity of 50
        # never truncates: capacity 5 pins the truncation rule's results too
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "evolution", "--algo", "all", "--seeds", "0..2", "--evals", "400",
                     "--param", "archive_capacity=5", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
        assert digest == "ef325567c91b4642a3321d4484debf3d76c5f45055de39fc8c83e6e54591836e"

    @pytest.mark.parametrize(("extra", "expected"), [
        (["--seeds", "0..4"], "15cbbf40e2770f2a4ca3c249787f44f97d8397e59a71968aae7fff5f91bab09a"),
    ], ids=["seeds0-4"])
    def test_moead_csv_bytes_pinned(self, tmp_path, monkeypatch, extra, expected):
        # 1013 evaluations: 24 whole generations of 40 and a last one of 13,
        # so the replacement runs over a partial brood too
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "evolution", "--algo", "moead", *extra,
                     "--evals", "1013", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize(("algo", "expected"), [
        ("nsga2", "a7801110e2888b5b0116960b3e55034ae607c2282247b450efe4735fee7828cc"),
        ("mopso", "c7d6479ba833752bef4b0d8c3bfed9549a518959827839e53df69597937e5b08"),
    ])
    def test_partial_generation_csv_bytes_pinned(self, tmp_path, monkeypatch, algo, expected):
        # as test_moead_csv_bytes_pinned: the last generation holds 13 of 40,
        # which the 200- and 400-evaluation pins never reach
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "evolution", "--algo", algo, "--seeds", "0..4",
                     "--evals", "1013", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "evolution.csv").read_bytes()).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize(("experiment", "expected"), [
        ("evolution", "e031e1e5537110980cae2893be8d6f4c2af07e0a545e78f85f6646f48c729251"),
        ("deadline", "389769c9ad01622e7b610fdf614de6df6476b6c528e55b051a5e8692e1135f72"),
    ])
    def test_scaled16_csv_bytes_pinned(self, tmp_path, monkeypatch, experiment, expected):
        # N=400, R=161: the paper pins hold at most 11 resources, this one
        # pins the kernel and the anchors where apps hold many sinks
        scenario_path = tmp_path / "scaled16.yaml"
        save(scaled_spec(ScenarioSpec(), 16), scenario_path)
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", experiment, "--algo", "all", "--seeds", "0..1", "--evals", "400",
                     "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / f"{experiment}.csv").read_bytes()).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize(("algo", "expected"), [
        ("nsga2", "8577ae510f8b266fe94d6b4d263bb80ad8a1ccbe0fb01475912317ac3480b127"),
        ("mopso", "c9e3ca39d22086aaa7e6efc2ac79a4c6279650b21f78bbbebd34ad3a0501c078"),
        ("moead", "5437c29123dd5969498d34ac9b334679e3b27dd7edf0c13d192826e25d80a9a4"),
    ])
    def test_scaled16_truncated_archive_pinned(self, monkeypatch, algo, expected):
        # a 400-service front outgrows the default capacity of 50, so this
        # run decides truncation 38-244 times: the final archive, member by
        # member in archive order, pins the truncation rule at scale.  Each
        # decision refuses an offer that no member dominates or drops a member
        decisions = []
        place, truncate = ParetoArchive.place, ParetoArchive._truncate

        def counting_place(self, u, a, total):
            at = place(self, u, a, total)
            if at is None and total == self.violation == 0 and not any(
                    pu >= u and pa >= a for pu, pa in zip(self._us, self._as)):
                decisions.append("refused")
            return at

        monkeypatch.setattr(ParetoArchive, "place", counting_place)
        monkeypatch.setattr(ParetoArchive, "_truncate", lambda self: decisions.append("dropped") or truncate(self))
        archive = ALGORITHMS[algo](scaled_scenario(ScenarioSpec(), 16), AlgoParams(seed=0, max_evaluations=1000))
        digest = hashlib.sha256()
        for m in archive:
            digest.update(repr((m.genotype.tolist(), m.objectives.as_tuple(), m.total_violation)).encode())
        assert len(decisions) >= 38
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("FOGPLAN_WORKERS", workers)
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "40", "--out", str(tmp_path)])
        assert rc == 2
        assert "FOGPLAN_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_budget_below_population_exits_2(self, tmp_path, capsys):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "10",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "population" in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_unknown_algorithm_exits_2(self, tmp_path):
        assert main(["--algo", "simulated-annealing", "--out", str(tmp_path)]) == 2

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        rc = main(["--algo", "nsga2", "--scenario", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "absent.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "below-a-file"])
    def test_out_not_a_directory_exits_2(self, tmp_path, capsys, sub):
        (tmp_path / "file").write_text("")
        assert main(["--algo", "nsga2", "--evals", "40", "--out", str(tmp_path / "file" / sub)]) == 2
        assert "--out" in capsys.readouterr().err

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

    def test_deadline_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # pins the deadline path as test_paper_csv_bytes_pinned pins evolution
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "deadline", "--algo", "all", "--seeds", "0",
                     "--evals", "200", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "deadline.csv").read_bytes()).hexdigest()
        assert digest == DEADLINE_CSV_SHA256

    def test_deadline_runs_report_no_generations(self, tmp_path, monkeypatch):
        # the deadline rows read no trace, so no run builds a GenerationStats
        def unread(*args):
            raise AssertionError("a deadline run built generation stats")

        monkeypatch.setattr(common, "generation_stats", unread)
        monkeypatch.setenv("FOGPLAN_WORKERS", "1")
        assert main(["--experiment", "deadline", "--algo", "all", "--seeds", "0",
                     "--evals", "200", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "deadline.csv").read_bytes()).hexdigest()
        assert digest == DEADLINE_CSV_SHA256

    def test_too_many_resources_fail_before_building_them(self, tmp_path, capsys):
        # 4097 resources: the spec is refused, not a 128 MiB latency matrix built
        scenario_path = tmp_path / "big.yaml"
        save(ScenarioSpec(), scenario_path)
        doc = yaml.safe_load(scenario_path.read_text())
        set_scenario_key(doc, "colonies", 2048)
        set_scenario_key(doc, "cells_per_colony", 1)
        scenario_path.write_text(yaml.safe_dump(doc))
        tracemalloc.start()
        try:
            rc = main(["--experiment", "deadline", "--algo", "nsga2", "--scenario",
                       str(scenario_path), "--seeds", "0", "--evals", "40", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "MAX_RESOURCES = 4096" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("key, value", [
        ("fcm_fcm_ms", -10), ("fcm_cloud_ms", -100), *BAD_SCENARIO_FIELDS,
    ])
    def test_negative_latency_scenario_exits_2(self, tmp_path, capsys, key, value):
        scenario_path = tmp_path / "bad.yaml"
        save(ScenarioSpec(), scenario_path)
        doc = yaml.safe_load(scenario_path.read_text())
        set_scenario_key(doc, key, value)
        scenario_path.write_text(yaml.safe_dump(doc))
        rc = main(["--experiment", "deadline", "--algo", "nsga2", "--scenario",
                   str(scenario_path), "--seeds", "0", "--evals", "40", "--out", str(tmp_path)])
        assert rc == 2
        assert scenario_error_names(key) in capsys.readouterr().err


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_search_where_nothing_is_feasible(tmp_path, algo):
    # at a 1 us deadline every placement overshoots: the runs keep an
    # archive of the least violation found, and no deadline is met
    scenario_path = tmp_path / "unmeetable.yaml"
    save(ScenarioSpec(deadlines=(1e-6,)), scenario_path)
    args = ["--algo", algo, "--scenario", str(scenario_path), "--seeds", "0,1", "--evals", "120",
            "--out", str(tmp_path)]
    assert main(["--experiment", "evolution", *args]) == 0
    assert {row[-1] for row in read_rows(tmp_path / "evolution.csv")[1:]} == {"0"}  # feasible_fraction
    assert main(["--experiment", "deadline", *args]) == 0
    rows = read_rows(tmp_path / "deadline.csv")[1:]
    assert len(rows) == 2 * ScenarioSpec().apps and {row[5] for row in rows} == {"false"}
    archive = ALGORITHMS[algo](build_instance(load(scenario_path)), AlgoParams(seed=0, max_evaluations=120))
    assert len(archive) > 0 and archive.violation > 0
    assert {m.total_violation for m in archive} == {archive.violation}


@pytest.mark.parametrize(("experiment", "extra", "builds", "reports"), [
    ("evolution", ["--seeds", "0..2"], 1, 0),
    ("deadline", ["--seeds", "0..2"], 1, 9),
    ("scaling", ["--factors", "1,2"], 2, 0),
], ids=["evolution", "deadline", "scaling"])
def test_each_instance_is_built_once(tmp_path, monkeypatch, experiment, extra, builds, reports):
    # every (algorithm, seed) job runs on the experiment's one instance, which
    # places its greedy anchors once, and only the deadline rows read a
    # response-time report
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(scenario, "build_instance", counted("build", scenario.build_instance))
    monkeypatch.setattr(cli, "response_time_report", counted("report", cli.response_time_report))
    monkeypatch.setattr(common, "greedy_anchors", counted("anchors", common.greedy_anchors))
    monkeypatch.setenv("FOGPLAN_WORKERS", "1")
    assert main(["--experiment", experiment, "--algo", "all", "--evals", "80", *extra,
                 "--out", str(tmp_path)]) == 0
    assert (calls["build"], calls["report"], calls["anchors"]) == (builds, reports, builds)


def test_pool_workers_receive_the_parents_anchors(tmp_path, monkeypatch):
    # a forked worker inherits this stand-in, and a job that placed the
    # anchors there would fail the run with exit 3
    parent, placed = os.getpid(), []
    place = common.greedy_anchors

    def parent_only(prob):
        assert os.getpid() == parent, "a pool worker placed the anchors"
        placed.append(prob.n_services)
        return place(prob)

    monkeypatch.setattr(common, "greedy_anchors", parent_only)
    monkeypatch.setenv("FOGPLAN_WORKERS", "2")
    assert main(["--algo", "all", "--seeds", "0,1", "--evals", "40", "--out", str(tmp_path)]) == 0
    assert placed == [25]


def test_failed_run_leaves_the_old_csvs(tmp_path, capsys, monkeypatch):
    # every row is computed before the CSV opens: nsga2 runs, mopso fails
    old = {name: f"{name} of an earlier run\n".encode() for name in ("evolution.csv", "deadline.csv")}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)

    def failing(*args, **kwargs):
        raise RuntimeError("mopso failed")

    monkeypatch.setitem(ALGORITHMS, "mopso", failing)
    monkeypatch.setenv("FOGPLAN_WORKERS", "1")
    for experiment in ("evolution", "deadline"):
        assert main(["--experiment", experiment, "--algo", "all", "--seeds", "0", "--evals", "40",
                     "--out", str(tmp_path)]) == 3
        assert "mopso failed" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in old} == old


class TestScalingExperiment:
    def test_factor_column(self, tmp_path):
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0",
                   "--evals", "80", "--factors", "1,2", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "scaling.csv")
        assert [r[1] for r in rows[1:]] == ["25", "50"]
        for row in rows[1:]:
            assert float(row[2]) > 0 and float(row[3]) > 0

    def test_anchors_placed_before_any_timed_run(self, tmp_path, monkeypatch):
        # the first algorithm on a factor would otherwise time the anchors of all
        events = []
        place = common.greedy_anchors
        monkeypatch.setattr(common, "greedy_anchors", lambda prob: events.append(prob.n_services) or place(prob))

        def timed(name, run):
            def call(prob, params):
                events.append(name)
                return run(prob, params)
            return call

        for name, run in list(ALGORITHMS.items()):
            monkeypatch.setitem(ALGORITHMS, name, timed(name, run))
        assert main(["--experiment", "scaling", "--algo", "all", "--seeds", "0",
                     "--evals", "40", "--factors", "1,2", "--out", str(tmp_path)]) == 0
        assert events == [25, 50, *(name for name in ALGORITHMS for _ in range(2))]

    def test_empty_factors_exits_2(self, tmp_path):
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0",
                   "--evals", "80", "--factors", "", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_factor_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 1 + 2000 * (1 + 4) resources exceed MAX_RESOURCES at factor 1000
        runs = []
        monkeypatch.setitem(ALGORITHMS, "mopso", lambda *args: runs.append(args))
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0",
                   "--evals", "80", "--factors", "16,16,16,1000", "--out", str(tmp_path)])
        assert rc == 2
        assert "--factors 1000" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "scaling.csv").exists()

    def test_more_than_one_seed_exits_2(self, tmp_path, capsys):
        rc = main(["--experiment", "scaling", "--algo", "mopso", "--seeds", "0..3",
                   "--evals", "80", "--factors", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "one seed" in capsys.readouterr().err
        assert not (tmp_path / "scaling.csv").exists()


class TestParamOverrides:
    def test_population_override(self, tmp_path):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "40",
                   "--param", "population_size=10", "--out", str(tmp_path)])
        assert rc == 0

    def test_unknown_param_exits_2(self, tmp_path):
        rc = main(["--algo", "nsga2", "--seeds", "0", "--evals", "40",
                   "--param", "bogus=1", "--out", str(tmp_path)])
        assert rc == 2

    def test_neighborhood_size_is_rejected(self, tmp_path, capsys):
        # MOEA/D offers every child to every subproblem: it has no neighbourhood to size
        rc = main(["--algo", "moead", "--seeds", "0", "--evals", "40",
                   "--param", "neighborhood_size=10", "--out", str(tmp_path)])
        assert rc == 2
        assert "neighborhood_size" in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_bad_seeds_exits_2(self, tmp_path):
        for seeds in ("zero", "-1"):
            assert main(["--algo", "nsga2", f"--seeds={seeds}", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("workers, argv, message", [
        pytest.param("abc", [], "FOGPLAN_WORKERS must be an integer, got 'abc'", id="workers-abc"),
        pytest.param("1", ["--experiment", "scaling", "--factors", "1,x"], "bad --factors value '1,x'", id="factors-x"),
        pytest.param("1", ["--param", "population_size"], "--param expects k=v, got 'population_size'",
                     id="param-no-equals"),
        pytest.param("1", ["--param", "population_size=abc"], "--param population_size: expected a number, got 'abc'",
                     id="param-abc"),
        pytest.param("1", ["--seeds", ","], "at least one seed is required", id="seeds-comma"),
    ])
    def test_rejected_input_named(self, tmp_path, capsys, monkeypatch, workers, argv, message):
        # exit 2 is main's code for a FogplanError, ConfigError among them; any other exception exits 3
        monkeypatch.setenv("FOGPLAN_WORKERS", workers)
        assert main(["--algo", "nsga2", "--evals", "40", *argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seeds", ["0,0", "3,1,3,1"])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, seeds):
        rc = main(["--algo", "nsga2", "--seeds", seeds, "--evals", "40", "--out", str(tmp_path)])
        assert rc == 2
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "evolution.csv").exists()

    def test_huge_seed_range_fails_before_building_it(self, tmp_path):
        # a billion seeds with a budget below the population: one check of
        # the parameters, not a billion AlgoParams
        tracemalloc.start()
        try:
            rc = main(["--algo", "nsga2", "--seeds", "0..1000000000", "--evals", "3",
                       "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert peak < 1 << 20
        assert _parse_seeds("0..1000000000") == range(10**9 + 1)

    def test_scaling_seed_range_fails_before_building_it(self, tmp_path, capsys):
        # the scaling experiment takes one seed: it refuses a range before
        # one AlgoParams per seed is built
        tracemalloc.start()
        try:
            rc = main(["--experiment", "scaling", "--algo", "nsga2", "--seeds", "0..100000",
                       "--evals", "40", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "takes one seed" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not (tmp_path / "scaling.csv").exists()

    @pytest.mark.parametrize("pair", [
        "population_size=3",
        "archive_capacity=0",
        "grid_divisions=2.5",
        "inertia=nan",
        "crossover_prob=-3",
        "mutation_rate=5",
        "mutation_prob=1.5",
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
            _parse_params(["grid_divisions=7.5"])

    def test_int_param_digits_stay_exact(self, tmp_path, capsys):
        # through a float, 2**53 + 1 would round to the even 2**53
        parsed = _parse_params(["population_size=9007199254740993", "archive_capacity=1_000"])
        assert parsed == {"population_size": 2**53 + 1, "archive_capacity": 1000}
        assert _parse_params(["grid_divisions=1e3"]) == {"grid_divisions": 1000}
        rc = main(["--algo", "nsga2", "--evals", "40", "--param", "population_size=9007199254740993",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "even" in capsys.readouterr().err
