import hashlib
import re

import numpy as np
import pytest

from conftest import chain_app, make_resource, make_service, tiny_instance
from fogplan.errors import LengthMismatch
from fogplan.fsdp import (
    MAX_RESOURCES,
    ProblemInstance,
    availability_objective,
    capacity_violation,
    deadline_violation,
    evaluate,
    evaluate_many,
    fog_utilization,
)
from fogplan.model import Application, Landscape, Latencies, ResourceKind, Service
from fogplan.moea import make_solution
from fogplan.scenario import ScenarioSpec, build_landscape, paper_scenario, scaled_scenario
from fogplan.timing import response_time_report
from test_evaluate_reference import audit_capacity, is_feasible, is_zero


def single_colony_landscape():
    resources = (
        make_resource(0, ResourceKind.CLOUD, failure=0.00001, cpu=200000, ram=200000, storage=1e9),
        make_resource(1, ResourceKind.FCM, colony=0, failure=0.10, cpu=1000, ram=512, storage=10000),
        make_resource(2, ResourceKind.FC, colony=0, failure=0.20, cpu=250, ram=256, storage=1000),
    )
    return Landscape(resources, Latencies())


class TestFogUtilization:
    def test_all_cloud_is_zero(self, paper_problem):
        dep = [paper_problem.landscape.cloud] * paper_problem.n_services
        assert fog_utilization(dep, paper_problem) == 0.0

    def test_all_fog_is_one(self, paper_problem):
        fcm = next(r.id for r in paper_problem.landscape.resources if r.kind is ResourceKind.FCM)
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

    # pairwise-coprime app sizes, so L is their product: L * m is 3.96e15 for
    # the primes up to 41, below 2**53 (9.01e15), and 1.83e17 with 43 too
    COPRIME_SIZES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    def _coprime_problem(self, landscape, sizes):
        apps = [chain_app(i, [make_service(i, j, avail=0.85) for j in range(k)]) for i, k in enumerate(sizes)]
        return ProblemInstance(landscape, apps)

    def test_exact_count_ratio_up_to_2_53(self, two_colony_landscape):
        from fractions import Fraction

        prob = self._coprime_problem(two_colony_landscape, self.COPRIME_SIZES)
        assert prob.availability_lcm * len(prob.apps) == 13 * 304250263527210 <= 2**53
        rng = np.random.default_rng(23)
        offsets = np.cumsum((0,) + self.COPRIME_SIZES).tolist()
        for _ in range(40):
            dep = rng.integers(0, prob.n_resources, prob.n_services)
            met = (prob.service_avail_req <= prob.up_probability[dep]).tolist()
            exact = sum(
                Fraction(sum(met[offset:offset + k]), k)
                for offset, k in zip(offsets, self.COPRIME_SIZES)
            )
            assert availability_objective(dep, prob) == float(exact / len(prob.apps))

    def test_scale_past_2_53_rejected(self, two_colony_landscape):
        with pytest.raises(ValueError, match=r"exceeds MAX_AVAILABILITY_SCALE = 2\*\*53"):
            self._coprime_problem(two_colony_landscape, self.COPRIME_SIZES + (43,))

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
        assert response_time_report([], prob).app_rt == {}  # no app, no sink


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


class TestProblemInstance:
    def test_repeated_app_ids_rejected(self, two_colony_landscape):
        # response times are keyed by app id: five apps with id 0 would report one time
        ids = [0, 0, 0, 3, 0, 0, 3, 1]
        apps = [chain_app(i, [make_service(i, j) for j in range(2)]) for i in ids]
        with pytest.raises(ValueError, match=r"app ids \[0, 3\] repeat"):
            ProblemInstance(two_colony_landscape, apps)


class TestEvaluate:
    def test_all_cloud_paper_scenario(self, paper_problem):
        dep = [paper_problem.landscape.cloud] * paper_problem.n_services
        objectives, violations = evaluate(dep, paper_problem)
        assert objectives.fog_utilization == 0.0
        assert objectives.availability == 1.0  # seed 0: all draws below 0.99999
        assert is_zero(violations)
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

    @pytest.mark.parametrize("block", [
        "one-row", "short-rows", "ragged", "unknown-id", "negative-id", "float",
    ])
    def test_bad_block_rejected(self, paper_problem, block):
        n, r = paper_problem.n_services, paper_problem.n_resources
        block = {
            "one-row": [0] * n,
            "short-rows": [[0] * (n - 1)] * 2,
            "ragged": [[0] * n, [0] * (n - 1)],
            "unknown-id": [[0] * n, [0] * (n - 1) + [r]],
            "negative-id": [[-1] + [0] * (n - 1)],
            "float": np.zeros((2, n)),
        }[block]
        with pytest.raises(LengthMismatch):
            evaluate_many(block, paper_problem)

    def test_one_row_where_a_block_is_due_names_the_block_shape(self, paper_problem):
        with pytest.raises(LengthMismatch, match=r"shape \(25,\) != \(P, 25\)$"):
            evaluate_many(np.zeros(25, dtype=int), paper_problem)
        with pytest.raises(LengthMismatch, match=r"shape \(24,\) != \(25,\)$"):
            evaluate(np.zeros(24, dtype=int), paper_problem)

    def test_block_of_int32_rows(self, paper_problem):
        block = np.zeros((3, paper_problem.n_services), dtype=np.int32)
        objectives, violations = evaluate_many(block, paper_problem)
        o, v = evaluate(block[0], paper_problem)
        assert objectives.tolist() == [[o.fog_utilization, o.availability]] * 3
        assert violations.tolist() == [[v.cpu_excess, v.ram_excess, v.storage_excess, v.deadline_excess]] * 3

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


def join_fork_instance():
    # a diamond (0 forks to 1 and 2, which join at 3) whose join forks
    # into sinks 4 and 5, next to a chain and a lone service; demands and
    # requirements vary by service
    def app(i, k, edges, rate):
        services = tuple(
            Service((i, j), 10.0 + 7 * j, 20.0 - j, 5.0 + i, 0.5 + 0.05 * j) for j in range(k)
        )
        return Application(i, services, tuple(edges), deadline=2.0 + i, request_rate=rate)

    apps = [
        app(0, 6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)], 0.5),
        app(1, 3, [(0, 1), (1, 2)], 0.25),
        app(2, 1, [], 0.125),
    ]
    return ProblemInstance(build_landscape(ScenarioSpec(colonies=2, cells_per_colony=2)), apps)


def instance_tables_digest(prob):
    """SHA-1 over every ndarray attribute of ``prob`` in name order, each
    with its name, dtype and shape (``level_order`` and ``sink_ranks`` are
    among them), then ``level_links`` and every ``level_steps`` entry."""
    h = hashlib.sha1()

    def feed(name, a):
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())

    for name, value in sorted(vars(prob).items()):
        if isinstance(value, np.ndarray):
            feed(name, value)
    for a in prob.level_links:
        feed("level_links", a)
    for nodes, preds, links in prob.level_steps:
        h.update(f"nodes {nodes.start} {nodes.stop}".encode())
        feed("preds", preds)
        h.update(f"links {links.start} {links.stop}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("build, expected", [
    pytest.param(lambda: tiny_instance(0), "0f190c935196e509e9e18c057c095de5d5fdd57d", id="tiny"),
    pytest.param(paper_scenario, "b488f5f88489aa5e0c335e333b180fdbf3d2912f", id="paper"),
    pytest.param(lambda: scaled_scenario(ScenarioSpec(), 16), "6ca1791a334ddede42376897b542cea095e1c4b1", id="scaled16"),
    pytest.param(join_fork_instance, "d870b4828194caecd63c32e2619d8202145bb4bd", id="join-fork"),
])
def test_instance_tables_pinned(build, expected):
    # every table the kernel reads, bit for bit; the service and resource
    # rows, like every other table, stay C-contiguous
    prob = build()
    assert instance_tables_digest(prob) == expected
    for name, value in vars(prob).items():
        if isinstance(value, np.ndarray):
            assert value.flags.c_contiguous, name


def one_colony(fcs):
    """A cloud and one colony of an FCM and ``fcs`` cells."""
    resources = [make_resource(0, ResourceKind.CLOUD), make_resource(1, ResourceKind.FCM, colony=0)]
    resources += [make_resource(2 + i, ResourceKind.FC, colony=0) for i in range(fcs)]
    return Landscape(tuple(resources), Latencies())


@pytest.mark.parametrize("fcs, reserve_fraction, message", [
    pytest.param(2, 1.0, "reserve_fraction must lie in [0, 1)", id="reserve-1.0"),
    pytest.param(MAX_RESOURCES - 1, 0.1, f"{MAX_RESOURCES + 1} resources exceed MAX_RESOURCES = {MAX_RESOURCES}",
                 id="resources-4097"),
])
def test_instance_input_rejected(fcs, reserve_fraction, message):
    apps = [chain_app(0, [make_service(0, 0)])]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        ProblemInstance(one_colony(fcs), apps, reserve_fraction=reserve_fraction)
    assert caught.type is ValueError
