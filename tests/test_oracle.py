import itertools
import math

import numpy as np
import pytest

from conftest import (
    chain_app,
    make_resource,
    make_service,
    rate_bound_instance,
    tight_deadline_instance,
    tiny_instance,
)
from fogplan.errors import Saturated, SearchSpaceTooLarge
from fogplan.fsdp import ProblemInstance, evaluate
from fogplan.model import Landscape, Latencies, ResourceKind
from fogplan import oracle
from fogplan.moea import ALGORITHMS, AlgoParams, make_solution, pareto_dominates
from fogplan.oracle import exact_pareto, md1_simulate
from fogplan.timing import Md1Queue, md1_sojourn
from test_evaluate_reference import is_feasible


def cloud_fc_landscape(fc_cpu=100.0, fc_failure=0.20):
    resources = (
        make_resource(0, ResourceKind.CLOUD, failure=0.00001, cpu=200000, ram=200000, storage=1e9),
        make_resource(1, ResourceKind.FCM, colony=0, failure=0.10, cpu=500, ram=500, storage=500),
        make_resource(2, ResourceKind.FC, colony=0, failure=fc_failure, cpu=fc_cpu, ram=256, storage=1000),
    )
    return Landscape(resources, Latencies())


def pairwise_front(prob):
    """The exact front as a loop over every assignment in
    ``itertools.product`` order: a feasible solution joins unless a
    member dominates it, and drops the members it dominates."""
    front = []
    for assignment in itertools.product(range(prob.n_resources), repeat=prob.n_services):
        sol = make_solution(assignment, prob)
        if not sol.feasible or any(pareto_dominates(f.objectives, sol.objectives) for f in front):
            continue
        front = [f for f in front if not pareto_dominates(sol.objectives, f.objectives)]
        front.append(sol)
    return tuple(front)


class TestExactPareto:
    def test_fog_infeasible_leaves_cloud_only(self):
        # one service too big for every fog resource
        scape = cloud_fc_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=5000, avail=0.5)])]
        prob = ProblemInstance(scape, apps)
        front = exact_pareto(prob)
        assert front.search_space_size == 3
        assert front.objective_set() == {(0.0, 1.0)}

    def test_fog_placement_dominates_when_satisfiable(self):
        scape = cloud_fc_landscape()
        apps = [chain_app(0, [make_service(0, 0, cpu=50, avail=0.75)])]
        prob = ProblemInstance(scape, apps)
        front = exact_pareto(prob)
        assert front.objective_set() == {(1.0, 1.0)}

    def test_matches_naive_double_loop(self):
        prob = tiny_instance(7)
        front = exact_pareto(prob, cap=5000)
        # independent: evaluate everything, quadratic dominance filter
        feasible = []
        for assignment in itertools.product(range(prob.n_resources), repeat=prob.n_services):
            if is_feasible(assignment, prob):
                feasible.append(evaluate(assignment, prob)[0])
        expected = {
            p.as_tuple()
            for p in feasible
            if not any(pareto_dominates(q, p) for q in feasible)
        }
        assert front.objective_set() == expected

    def test_every_feasible_point_covered(self):
        prob = tiny_instance(8)
        front = exact_pareto(prob, cap=5000)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assignment = tuple(rng.integers(0, prob.n_resources, prob.n_services))
            if not is_feasible(assignment, prob):
                continue
            objectives = evaluate(assignment, prob)[0]
            assert any(
                f.objectives.as_tuple() == objectives.as_tuple()
                or pareto_dominates(f.objectives, objectives)
                for f in front.solutions
            )

    def test_invariant_under_resource_relabeling(self):
        # swap the FCM and FC ids; objective multiset must not change
        base = cloud_fc_landscape()
        swapped = Landscape(
            (
                base.resources[0],
                make_resource(1, ResourceKind.FC, colony=0, failure=0.20, cpu=100, ram=256, storage=1000),
                make_resource(2, ResourceKind.FCM, colony=0, failure=0.10, cpu=500, ram=500, storage=500),
            ),
            base.latencies,
        )
        services = [make_service(0, j, cpu=40, avail=0.6) for j in range(2)]
        front_a = exact_pareto(ProblemInstance(base, [chain_app(0, services)]))
        front_b = exact_pareto(ProblemInstance(swapped, [chain_app(0, services)]))
        assert front_a.objective_set() == front_b.objective_set()

    @pytest.mark.parametrize("chunk", [oracle.ENUMERATION_CHUNK, 1000])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_solutions_in_order_as_a_make_solution_loop(self, monkeypatch, seed, chunk):
        # genotypes and scores too, in itertools.product order, whether a
        # chunk holds all 4**6 assignments or the last one holds 96
        monkeypatch.setattr(oracle, "ENUMERATION_CHUNK", chunk)
        prob = tiny_instance(seed)
        expected = pairwise_front(prob)
        front = exact_pareto(prob)
        assert front.solutions == expected
        assert [s.genotype.typecode for s in front.solutions] == ["H"] * len(expected)

    @pytest.mark.parametrize("chunk", [oracle.ENUMERATION_CHUNK, 1000])
    @pytest.mark.parametrize("family", [tight_deadline_instance, rate_bound_instance])
    @pytest.mark.parametrize("seed", range(2))
    def test_deadline_families_match_a_make_solution_loop(self, monkeypatch, seed, family, chunk):
        # the deadline term shapes these fronts, and a chunk's rows can
        # dominate members carried over from earlier chunks
        monkeypatch.setattr(oracle, "ENUMERATION_CHUNK", chunk)
        prob = family(seed)
        assert exact_pareto(prob).solutions == pairwise_front(prob)

    def test_no_services_has_one_empty_assignment(self):
        prob = ProblemInstance(cloud_fc_landscape(), [])
        front = exact_pareto(prob)
        assert front.search_space_size == 1
        assert front.solutions == (make_solution((), prob),)

    def test_cap_enforced(self):
        prob = tiny_instance(0)
        with pytest.raises(SearchSpaceTooLarge):
            exact_pareto(prob, cap=100)


@pytest.mark.parametrize(("family", "seed"), [
    *(pytest.param(tight_deadline_instance, seed, id=str(seed)) for seed in range(20)),
    *(pytest.param(rate_bound_instance, seed, id=f"rate_bound-{seed}") for seed in range(20)),
])
def test_tight_deadline_archives_stay_under_the_exact_front(family, seed):
    # the deadline moves the front in both families, so these invariants see
    # the M/D/1 term; how many exact fronts each optimizer recovers is not asserted
    prob = family(seed)
    front = exact_pareto(prob)
    assert front.objective_set() != exact_pareto(tiny_instance(seed)).objective_set()
    for name, run in ALGORITHMS.items():
        archive = run(prob, AlgoParams(seed=seed, max_evaluations=2000))
        for member in archive:
            objectives, violations = evaluate(member.genotype, prob)
            assert (objectives, violations.total()) == (member.objectives, member.total_violation), name
            assert member.total_violation == 0.0, name
            assert not any(pareto_dominates(member.objectives, e.objectives) for e in front.solutions), name
            assert not any(pareto_dominates(m.objectives, member.objectives) for m in archive), name


class TestMd1Simulate:
    def test_matches_closed_form_at_low_load(self):
        # rho = 0.2: closed form 1.125 s
        mean = md1_simulate(0.2, 1.0, jobs=10**6, seed=1)
        assert mean == pytest.approx(1.125, rel=0.02)

    def test_near_empty_queue(self):
        mean = md1_simulate(0.01, 1.0, jobs=10**5, seed=2)
        assert mean == pytest.approx(1.0, rel=0.01)

    def test_deterministic(self):
        a = md1_simulate(0.5, 1.0, jobs=10**5, seed=3)
        b = md1_simulate(0.5, 1.0, jobs=10**5, seed=3)
        assert a == b

    def test_saturated(self):
        with pytest.raises(Saturated):
            md1_simulate(2.0, 1.0)

    @pytest.mark.parametrize("rate, service, jobs", [
        (0.0, 0.1, 10**5),
        (-1.0, 0.1, 10**5),
        (math.nan, 0.1, 10**5),
        (math.inf, 0.1, 10**5),
        (1.0, -0.5, 10**5),
        (1.0, 0.0, 10**5),
        (1.0, math.nan, 10**5),
        (1.0, math.inf, 10**5),
        (1.0, 0.1, 100000.5),
        (1.0, 0.1, 1e5),
        (1.0, 0.1, True),
    ])
    def test_bad_input_rejected(self, rate, service, jobs):
        with pytest.raises(ValueError):
            md1_simulate(rate, service, jobs=jobs)

    def test_too_few_jobs_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least 1e5 jobs for a stable estimate$") as caught:
            md1_simulate(0.5, 1.0, jobs=10)
        assert caught.type is ValueError

    def test_closed_form_agreement_sweep(self):
        for rho in (0.2, 0.5, 0.8):
            sim = md1_simulate(rho, 1.0, jobs=10**6, seed=int(rho * 10))
            closed = md1_sojourn(Md1Queue(rho, 1.0))
            assert abs(sim - closed) / closed < 0.02
