import numpy as np
import pytest

from conftest import chain_app, make_resource, make_service
from fogplan.errors import LengthMismatch
from fogplan.fsdp import (
    ProblemInstance,
    audit_capacity,
    availability_objective,
    capacity_violation,
    deadline_violation,
    evaluate,
    fog_utilization,
    is_feasible,
)
from fogplan.model import Colony, Landscape, ResourceKind
from fogplan.moea import make_solution
from fogplan.scenario import paper_scenario


def single_colony_landscape():
    resources = (
        make_resource(0, ResourceKind.CLOUD, failure=0.00001, cpu=200000, ram=200000, storage=1e9),
        make_resource(1, ResourceKind.FCM, colony=0, failure=0.10, cpu=1000, ram=512, storage=10000),
        make_resource(2, ResourceKind.FC, colony=0, failure=0.20, cpu=250, ram=256, storage=1000),
    )
    colonies = (Colony(id=0, fcm=1, cells=(2,)),)
    return Landscape(cloud=0, colonies=colonies, resources=resources, cloud_latency={0: 100.0})


class TestFogUtilization:
    def test_all_cloud_is_zero(self, paper_problem):
        dep = [paper_problem.landscape.cloud] * paper_problem.n_services
        assert fog_utilization(dep, paper_problem) == 0.0

    def test_all_fog_is_one(self, paper_problem):
        fcm = paper_problem.landscape.colonies[0].fcm
        assert fog_utilization([fcm] * paper_problem.n_services, paper_problem) == 1.0

    def test_three_of_four_in_fog(self, small_problem):
        # 2 apps x 2 services; one service on cloud
        dep = [1, 2, 5, 0]
        assert fog_utilization(dep, small_problem) == 0.75

    def test_complement_identity(self, paper_problem):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dep = rng.integers(0, paper_problem.n_resources, paper_problem.n_services)
            cloud_count = int((dep == paper_problem.landscape.cloud).sum())
            assert fog_utilization(dep, paper_problem) + cloud_count / paper_problem.n_services == pytest.approx(1.0)

    def test_length_mismatch(self, paper_problem):
        with pytest.raises(LengthMismatch):
            fog_utilization([0, 1], paper_problem)


class TestAvailabilityScore:
    """One service on the single-colony landscape: cloud 0, FCM 1, FC 2."""

    def _score(self, host, avail):
        apps = [chain_app(0, [make_service(0, 0, avail=avail)])]
        return availability_objective([host], ProblemInstance(single_colony_landscape(), apps))

    def test_req_085_on_fc_fails(self):
        assert self._score(2, 0.85) == 0.0  # FC up 0.80

    def test_boundary_equality_satisfies(self):
        assert self._score(1, 0.90) == 1.0  # FCM up 0.90

    def test_cloud_covers_097(self):
        assert self._score(0, 0.97) == 1.0  # cloud up 0.99999


class TestAvailabilityObjective:
    def test_all_satisfied_is_one(self, small_problem):
        # req 0.5 everywhere; any host satisfies
        assert availability_objective([0, 1, 2, 5], small_problem) == 1.0

    def test_none_satisfied_is_zero(self, two_colony_landscape):
        apps = [chain_app(0, [make_service(0, j, avail=0.85) for j in range(2)])]
        prob = ProblemInstance(two_colony_landscape, apps)
        assert availability_objective([2, 3], prob) == 0.0  # FCs: up 0.80 < 0.85

    def test_mixed_two_apps(self, two_colony_landscape):
        # app A: 4 services req 0.85, two on FCM (score) and two on FC (miss)
        # app B: 2 services req 0.5, both score -> (1/2)(2/4 + 2/2) = 0.75
        apps = [
            chain_app(0, [make_service(0, j, avail=0.85) for j in range(4)]),
            chain_app(1, [make_service(1, j, avail=0.5) for j in range(2)]),
        ]
        prob = ProblemInstance(two_colony_landscape, apps)
        dep = [1, 1, 2, 3, 5, 5]
        assert availability_objective(dep, prob) == pytest.approx(0.75)

    def test_exact_count_ratio_bit_for_bit(self):
        from fractions import Fraction

        rng = np.random.default_rng(19)
        for seed in range(5):
            prob = paper_scenario(seed)
            for _ in range(40):
                dep = rng.integers(0, prob.n_resources, prob.n_services)
                exact = Fraction(0)
                hosts = iter(dep)
                for app in prob.apps:
                    met = sum(
                        svc.availability_req <= prob.landscape.resources[next(hosts)].up_probability
                        for svc in app.services
                    )
                    exact += Fraction(met, len(app.services))
                assert availability_objective(dep, prob) == float(exact / len(prob.apps))

    def test_monotone_under_host_upgrade(self, paper_problem):
        rng = np.random.default_rng(11)
        ups = paper_problem.up_probability
        for _ in range(100):
            dep = rng.integers(0, paper_problem.n_resources, paper_problem.n_services)
            svc = int(rng.integers(0, paper_problem.n_services))
            better = [r for r in range(paper_problem.n_resources) if ups[r] > ups[dep[svc]]]
            if not better:
                continue
            upgraded = dep.copy()
            upgraded[svc] = better[int(rng.integers(0, len(better)))]
            assert availability_objective(upgraded, paper_problem) >= availability_objective(
                dep, paper_problem
            )


class TestCapacityViolation:
    def test_single_process_on_fc_fits(self):
        scape = single_colony_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=200, ram=10, storage=30)])]
        prob = ProblemInstance(scape, apps, reserve_fraction=0.1)
        assert capacity_violation([2], prob) == (0.0, 0.0, 0.0)

    def test_two_processes_overload_fc(self):
        scape = single_colony_landscape()
        apps = [
            chain_app(0, [make_service(0, 0, cpu=200, ram=10, storage=30)]),
            chain_app(1, [make_service(1, 0, cpu=200, ram=10, storage=30)]),
        ]
        prob = ProblemInstance(scape, apps, reserve_fraction=0.1)
        cpu, ram, sto = capacity_violation([2, 2], prob)
        denom = 0.9 * (200000 + 1000 + 250)
        assert cpu == pytest.approx(175.0 / denom)
        assert ram == 0.0 and sto == 0.0

    def test_empty_problem_all_zero(self):
        prob = ProblemInstance(single_colony_landscape(), [])
        assert capacity_violation([], prob) == (0.0, 0.0, 0.0)
        assert is_feasible([], prob)


class TestDeadlineViolation:
    def _one_service_problem(self, deadline, rate=0.5):
        scape = single_colony_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=200)], deadline=deadline, rate=rate)]
        return ProblemInstance(scape, apps, reserve_fraction=0.1)

    def test_slack_deadline_zero(self):
        # sojourn 16/15 s vs deadline 60 s
        prob = self._one_service_problem(deadline=60.0)
        assert deadline_violation([2], prob) == 0.0

    def test_exact_deadline_boundary_zero(self):
        from fogplan.timing import Md1Queue, md1_sojourn

        rt = md1_sojourn(Md1Queue(arrival_rate=0.5, service_time=0.8))
        prob = self._one_service_problem(deadline=rt)
        assert deadline_violation([2], prob) == 0.0

    def test_double_deadline_overshoot_one(self):
        prob = self._one_service_problem(deadline=8.0 / 15.0)
        assert deadline_violation([2], prob) == pytest.approx(1.0)

    def test_saturated_penalty(self):
        prob = self._one_service_problem(deadline=60.0, rate=5.0)  # rho = 4
        assert deadline_violation([2], prob) == 10.0


class TestEvaluate:
    def test_all_cloud_paper_scenario(self, paper_problem):
        dep = [paper_problem.landscape.cloud] * paper_problem.n_services
        objectives, violations = evaluate(dep, paper_problem)
        assert objectives.fog_utilization == 0.0
        assert objectives.availability == 1.0  # seed 0: all draws below 0.99999
        assert violations.is_zero()
        assert is_feasible(dep, paper_problem)

    def test_non_integer_genotype_rejected(self, paper_problem):
        n = paper_problem.n_services
        for genotype in ([0.9] * n, [1.7] * n, np.ones(n), np.ones(n, dtype=bool)):
            with pytest.raises(LengthMismatch, match="integer"):
                evaluate(genotype, paper_problem)
            with pytest.raises(LengthMismatch, match="integer"):
                make_solution(genotype, paper_problem)
        assert evaluate(np.zeros(n, dtype=np.int32), paper_problem) == evaluate(
            [0] * n, paper_problem
        )

    def test_deterministic(self, paper_problem):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dep = rng.integers(0, paper_problem.n_resources, paper_problem.n_services)
            assert evaluate(dep, paper_problem) == evaluate(dep, paper_problem)

    def test_overloaded_fc_infeasible(self):
        scape = single_colony_landscape()
        apps = [
            chain_app(0, [make_service(0, 0, cpu=200, ram=10, storage=30)]),
            chain_app(1, [make_service(1, 0, cpu=200, ram=10, storage=30)]),
        ]
        prob = ProblemInstance(scape, apps, reserve_fraction=0.1)
        objectives, violations = evaluate([2, 2], prob)
        assert objectives.fog_utilization == 1.0
        assert violations.cpu_excess > 0
        assert not is_feasible([2, 2], prob)

    def test_zero_violations_match_direct_audit(self, paper_problem):
        rng = np.random.default_rng(17)
        checked_both_ways = 0
        for _ in range(200):
            # bias toward cloud so both feasible and infeasible cases occur
            fog = rng.integers(0, paper_problem.n_resources, paper_problem.n_services)
            dep = np.where(rng.random(paper_problem.n_services) < 0.7, 0, fog)
            cpu, ram, sto = capacity_violation(dep, paper_problem)
            if cpu + ram + sto == 0.0:
                assert audit_capacity(dep, paper_problem)
                checked_both_ways += 1
            else:
                assert not audit_capacity(dep, paper_problem)
        assert checked_both_ways > 0
