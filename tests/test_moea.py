import dataclasses
import math
import pickle
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rank, random_solutions, scored_rows, solution, tiny_instance
from fogplan.errors import BadLattice, BudgetTooSmall, EmptyArchive, EmptyFront, LengthMismatch
from fogplan.fsdp import ObjectiveVector, ProblemInstance, ViolationVector, evaluate
from fogplan.moea import (
    ALGORITHMS,
    AlgoParams,
    GenerationStats,
    ParetoArchive,
    Solution,
    constrained_dominates,
    crowding_distance,
    fast_nondominated_sort,
    hypervolume_2d,
    make_solution,
    moead_run,
    mopso_run,
    nsga2_run,
    pareto_dominates,
    select_compromise,
    simplex_lattice_weights,
    tchebycheff,
)
from fogplan.moea import common
from fogplan.moea.common import (
    Scored,
    Search,
    generation_stats,
    greedy_anchors,
    initial_population,
    reset_mutation,
    uniform_crossover,
)
from fogplan.moea.mopso import _draw, _grid
from fogplan.scenario import (
    Resources,
    ResourceTemplate,
    ScenarioSpec,
    ServiceTemplate,
    build_instance,
    paper_scenario,
    scaled_scenario,
)
from test_evaluate_reference import audit_capacity, is_zero

ZERO_V = ViolationVector(0.0, 0.0, 0.0, 0.0)
BAD_V = ViolationVector(0.5, 0.0, 0.0, 0.0)


def feas(u, a, genotype=(0,)):
    return solution(genotype, ObjectiveVector(u, a), ZERO_V)


def infeas(u, a, violation=0.5):
    return solution((9,), ObjectiveVector(u, a), ViolationVector(violation, 0.0, 0.0, 0.0))


class TestGenotype:
    """make_solution stores the genotype as an array('H') of resource ids."""

    def test_orders_like_the_tuple_of_ids(self, paper_problem):
        rng = np.random.default_rng(4)
        n, r = paper_problem.n_services, paper_problem.n_resources
        for _ in range(300):
            a, b = rng.integers(0, r, (2, n))
            k = rng.integers(0, n + 1)
            b[:k] = a[:k]  # a shared prefix; equal genotypes when k == n
            ga = make_solution(a, paper_problem).genotype
            gb = make_solution(b, paper_problem).genotype
            ta, tb = tuple(a.tolist()), tuple(b.tolist())
            assert list(ga) == list(ta) and len(ga) == len(ta) and ga[2] == ta[2]
            assert (ga < gb, ga == gb, ga > gb) == (ta < tb, ta == tb, ta > tb)
            assert ga == make_solution(list(ta), paper_problem).genotype
            assert np.array_equal(np.array(ga, dtype=np.int64), a)
        clone = pickle.loads(pickle.dumps(ga))
        assert type(clone) is array and clone.typecode == "H" and clone == ga

    def test_is_not_equal_to_a_tuple(self, paper_problem):
        ids = [0] * paper_problem.n_services
        assert make_solution(ids, paper_problem).genotype != tuple(ids)

    @pytest.mark.parametrize("ids", [[-1], [11], [70000]])  # 11: the paper's n_resources
    def test_rejects_ids_outside_16_bits(self, paper_problem, ids):
        """Ids below 0, at n_resources, or past 16 bits never get packed."""
        assert paper_problem.n_resources == 11
        with pytest.raises(LengthMismatch):
            make_solution([0] * (paper_problem.n_services - 1) + ids, paper_problem)

    def test_keeps_the_16_bit_ends(self, paper_problem):
        """The lowest and highest ids of the landscape round-trip."""
        ids = [0] * (paper_problem.n_services - 1) + [paper_problem.n_resources - 1]
        assert list(make_solution(ids, paper_problem).genotype) == ids
        no_services = ProblemInstance(paper_problem.landscape, [])
        assert len(make_solution([], no_services).genotype) == 0

    def test_packs_two_bytes_per_service(self):
        prob = scaled_scenario(ScenarioSpec(), 16)
        ids = [i % prob.n_resources for i in range(prob.n_services)]
        assert prob.n_services == 400
        assert sys.getsizeof(make_solution(ids, prob).genotype) < sys.getsizeof(tuple(ids)) / 3

    def test_make_solution_stores_one(self, paper_problem):
        sol = make_solution([0] * paper_problem.n_services, paper_problem)
        assert type(sol.genotype) is array and sol.genotype.typecode == "H"
        assert list(sol.genotype) == [0] * 25


def test_solution_requires_feasibility_and_total():
    # nothing computes the total from per-kind violations, and feasibility
    # is no field: a solution is feasible exactly when its total is 0
    with pytest.raises(TypeError):
        Solution((0,), ObjectiveVector(0.5, 0.5))
    with pytest.raises(TypeError):
        Solution((0,), ObjectiveVector(0.5, 0.5), 0.75, feasible=False)
    infeasible, feasible = (Solution((0,), ObjectiveVector(0.5, 0.5), total) for total in (0.75, 0.0))
    assert (infeasible.feasible, infeasible.total_violation) == (False, 0.75)
    assert (feasible.feasible, feasible.total_violation) == (True, 0.0)
    assert [f.name for f in dataclasses.fields(Solution)] == ["genotype", "objectives", "total_violation"]


class TestConstrainedDominance:
    def test_feasible_beats_infeasible(self):
        assert constrained_dominates(feas(0.8, 0.6), infeas(0.9, 0.9))

    def test_weak_dominance_with_one_strict(self):
        assert constrained_dominates(feas(0.8, 0.6), feas(0.7, 0.6))

    def test_incomparable(self):
        a, b = feas(0.8, 0.5), feas(0.5, 0.8)
        assert not constrained_dominates(a, b)
        assert not constrained_dominates(b, a)

    def test_less_violation_wins_among_infeasible(self):
        assert constrained_dominates(infeas(0.1, 0.1, 0.2), infeas(0.9, 0.9, 0.4))

    def test_irreflexive_and_transitive(self):
        rng = np.random.default_rng(23)
        cases = 0
        for _ in range(60):
            pop = random_solutions(rng, int(rng.integers(3, 33)))
            for s in pop:
                assert not constrained_dominates(s, s)
            for a in pop:
                for b in pop:
                    for c in pop:
                        if constrained_dominates(a, b) and constrained_dominates(b, c):
                            assert constrained_dominates(a, c)
                            cases += 1
        assert cases > 1000


class TestNondominatedSort:
    def test_mutually_nondominated_single_front(self):
        pop = [feas(0.1 * i, 1.0 - 0.1 * i) for i in range(5)]
        fronts = fast_nondominated_sort(pop)
        assert len(fronts) == 1 and len(fronts[0]) == 5

    def test_totally_ordered_chain(self):
        pop = [feas(0.1 * i, 0.1 * i) for i in range(4)]
        fronts = fast_nondominated_sort(pop)
        assert [len(f) for f in fronts] == [1, 1, 1, 1]
        assert fronts[0][0].objectives.fog_utilization == pytest.approx(0.3)

    def test_no_rows_no_fronts(self):
        empty = np.array([])
        assert common.nondominated_rows(empty, empty, empty) == []
        assert fast_nondominated_sort([]) == [] and crowding_distance([]) == []

    def test_matches_bruteforce_audit(self):
        rng = np.random.default_rng(4)
        for trial in range(80):
            # every other population draws its violations from three levels, so
            # infeasible members tie; objectives lie on a 5 x 5 grid and tie too
            pop = random_solutions(
                rng, int(rng.integers(1, 81)), violation_levels=3 if trial % 2 else None
            )
            fronts = fast_nondominated_sort(pop)
            assert sum(len(front) for front in fronts) == len(pop)
            # brute-force front index: 0 iff undominated, k iff dominated
            # only by members of smaller index
            expected = {}
            remaining = list(range(len(pop)))
            level = 0
            while remaining:
                front = [
                    i
                    for i in remaining
                    if not any(
                        constrained_dominates(pop[j], pop[i]) for j in remaining if j != i
                    )
                ]
                for i in front:
                    expected[i] = level
                remaining = [i for i in remaining if i not in front]
                level += 1
            got = {}
            for level, front in enumerate(fronts):
                for sol in front:
                    got[pop.index(sol)] = level
            assert got == expected


class TestCrowdingDistance:
    def test_two_members_both_infinite(self):
        front = [feas(0.1, 0.9), feas(0.9, 0.1)]
        assert crowding_distance(front) == [float("inf")] * 2

    def test_colinear_equispaced_middle(self):
        front = [feas(0.0, 1.0), feas(0.5, 0.5), feas(1.0, 0.0)]
        dist = crowding_distance(front)
        assert dist[0] == dist[2] == float("inf")
        assert dist[1] == pytest.approx(2.0)

    def test_order_independent(self):
        rng = np.random.default_rng(9)
        front = [feas(u, 1.0 - u, genotype=(i,)) for i, u in enumerate(sorted(rng.random(8)))]
        base = dict(zip([f.genotype for f in front], crowding_distance(front)))
        perm = [front[i] for i in rng.permutation(8)]
        shuffled = dict(zip([f.genotype for f in perm], crowding_distance(perm)))
        assert base == shuffled


class TestParetoArchive:
    def test_never_contains_dominated_pair(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            archive = ParetoArchive(capacity=16)
            for sol in random_solutions(rng, 60):
                archive.add(sol)
            for a in archive:
                for b in archive:
                    if a is not b:
                        assert not constrained_dominates(a, b)

    def test_feasible_expels_infeasible(self):
        archive = ParetoArchive(capacity=10)
        archive.add(infeas(0.9, 0.9))
        archive.add(feas(0.1, 0.1))
        assert all(m.feasible for m in archive)

    def test_rejected_solution_never_dominates_archive(self):
        rng = np.random.default_rng(37)
        archive = ParetoArchive(capacity=8)
        rejected = []
        for sol in random_solutions(rng, 100):
            if not archive.add(sol):
                rejected.append(sol)
        for r in rejected:
            for m in archive:
                assert not constrained_dominates(r, m)

    def test_one_member_per_objective_vector(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            archive = ParetoArchive(capacity=16)
            for sol in random_solutions(rng, 60):
                archive.add(sol)
                points = [m.objectives for m in archive]
                assert len(points) == len(set(points))

    def test_equal_objectives_keep_first_genotype(self):
        archive = ParetoArchive(capacity=10)
        assert archive.add(feas(0.5, 0.5, genotype=(1,)))
        assert not archive.add(feas(0.5, 0.5, genotype=(2,)))
        assert [m.genotype for m in archive] == [(1,)]

    def test_feasible_replaces_infeasible_with_equal_objectives(self):
        archive = ParetoArchive(capacity=10)
        archive.add(infeas(0.5, 0.5))
        assert archive.add(feas(0.5, 0.5))
        assert [m.feasible for m in archive] == [True]

    @pytest.mark.parametrize("capacity", [0, -1, 2.5, float("nan"), float("inf"), pytest.param(10**400, id="10**400"), True])
    def test_capacity_must_be_an_integer_of_at_least_one(self, capacity):
        # a NaN capacity never truncates: nan < 1 and len > nan are both False
        with pytest.raises(ValueError, match="capacity"):
            ParetoArchive(capacity=capacity)

    def test_integral_float_capacity_bounds_the_archive(self):
        archive = ParetoArchive(capacity=5.0)
        for i in range(10):
            archive.add(feas(i / 10, 1 - i / 10, genotype=(i,)))
        assert len(archive) == 5

    @pytest.mark.parametrize("capacity", [2, 5, 16])
    def test_members_share_one_violation_and_form_a_staircase(self, capacity):
        # the invariant the staircase rests on, and the staircase itself
        regimes = set()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            archive = ParetoArchive(capacity=capacity)
            for sol in random_solutions(rng, 60, feasible_fraction=0.1 + 0.06 * seed, violation_levels=2):
                archive.add(sol)
                assert all(m.total_violation == archive.violation for m in archive)
                regimes.add(archive.violation)
                assert_staircase(archive)
                if archive.violation == 0:
                    us, as_ = zip(*sorted(m.objectives.as_tuple() for m in archive))
                    assert len(set(us)) == len(us) and len(set(as_)) == len(as_)
                    assert all(x > y for x, y in zip(as_, as_[1:]))
        assert regimes == {0.0, 1.0, 2.0}

    def test_truncation_respects_capacity(self):
        rng = np.random.default_rng(41)
        archive = ParetoArchive(capacity=5)
        dropped = 0  # admitted, then truncated at once
        for u in rng.random(50):
            version, admitted = archive.version, archive.admits(float(u), 1.0 - float(u), 0.0)
            dropped += admitted and not archive.add(feas(float(u), 1.0 - float(u), genotype=(int(u * 1e6),)))
            assert archive.version == version + admitted
        assert len(archive) <= 5 and dropped


# objectives on a grid of quarters and a few violation vectors, two of
# them with the same total, so that ties are common
ARCHIVED = st.builds(
    lambda u, a, v: solution((0,), ObjectiveVector(u / 4, a / 4), v),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(
        [ZERO_V, ZERO_V, BAD_V, ViolationVector(0.25, 0.0, 0.0, 0.25), ViolationVector(1.0, 0.0, 0.0, 0.0)]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ARCHIVED, max_size=8), ARCHIVED)
def test_admits_follows_the_add_rule(members, candidate):
    # an archive that add built from any list, feasible and infeasible
    # mixed: a candidate is admitted unless a member dominates it or shares
    # its objectives without being dominated by it, and exactly when add,
    # with room, keeps it
    archive = ParetoArchive(capacity=len(members) + 1)
    for member in members:
        archive.add(member)
    assert {m.total_violation for m in archive} <= {archive.violation}
    expected = not any(
        constrained_dominates(m, candidate)
        or (m.objectives == candidate.objectives and not constrained_dominates(candidate, m))
        for m in archive
    )
    o = candidate.objectives
    got = archive.admits(o.fog_utilization, o.availability, candidate.total_violation)
    version = archive.version
    assert got == expected == archive.add(candidate)
    assert archive.version == version + expected


def assert_staircase(archive):
    """At every level the i-th point of the archive's lists is its i-th
    member's; at violation 0 the members are sorted by u."""
    points = [m.objectives.as_tuple() for m in archive]
    assert points == list(zip(archive._us, archive._as))
    if archive.violation == 0:
        assert points == sorted(points)


class ReferenceArchive:
    """``ParetoArchive``'s rule as member-by-member scans: the staircase's
    reference.  At violation 0 a member goes in at its place by u, above
    it at the end.  Truncation drops the first member, in that order,
    with the least ``crowding_distance``: at 0 the lowest u of them."""

    def __init__(self, capacity):
        self.capacity, self.members, self.violation = capacity, [], math.inf

    def admits(self, u, a, total):
        if total != self.violation:
            return total < self.violation
        if total:
            return (u, a) not in [m.objectives.as_tuple() for m in self.members]
        return not any(m.objectives.fog_utilization >= u and m.objectives.availability >= a for m in self.members)

    def add(self, candidate):
        o, total = candidate.objectives, candidate.total_violation
        if not self.admits(o.fog_utilization, o.availability, total):
            return False
        if total < self.violation:
            self.violation, self.members = total, []
        elif not total:
            self.members = [m for m in self.members if not pareto_dominates(o, m.objectives)]
        self.members.append(candidate)
        if not total:  # stable, and u is distinct at 0
            self.members.sort(key=lambda m: m.objectives.fog_utilization)
        if len(self.members) <= self.capacity:
            return True
        dist = crowding_distance(self.members)
        return self.members.pop(min(range(len(dist)), key=dist.__getitem__)) is not candidate


# feasible three times in five; on a grid of quarters, so that equal
# objectives and equal crowding distances are common
OFFERED = st.builds(
    lambda u, a, v: Solution(array("H", [0]), ObjectiveVector(u / 4, a / 4), v),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(OFFERED, max_size=40))
def test_archive_matches_the_reference(capacity, offers):
    archive, reference = ParetoArchive(capacity), ReferenceArchive(capacity)
    for candidate in offers:
        # the version moves on every admitted offer, truncated or not, and on no rejected one
        version, o = archive.version, candidate.objectives
        admitted = reference.admits(o.fog_utilization, o.availability, candidate.total_violation)
        assert archive.add(candidate) == reference.add(candidate)
        assert archive.version == version + admitted
        assert archive.violation == reference.violation
        assert len(archive.members) == len(reference.members)
        assert all(m is r for m, r in zip(archive.members, reference.members))
        assert_staircase(archive)


# feasible on a grid of thirteenths, so that the staircase is truncated
# at interior points whose gaps round
STAIRCASE_OFFERED = st.builds(
    lambda u, a: Solution(array("H", [0]), ObjectiveVector(u / 13, a / 13), 0.0),
    st.integers(0, 13),
    st.integers(0, 13),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.lists(STAIRCASE_OFFERED, max_size=60))
def test_staircase_truncation_drops_the_reference_victims(capacity, offers):
    archive, reference = ParetoArchive(capacity), ReferenceArchive(capacity)
    for candidate in offers:
        assert archive.add(candidate) == reference.add(candidate)
        assert len(archive.members) == len(reference.members)
        assert all(m is r for m, r in zip(archive.members, reference.members))
        assert_staircase(archive)


class TestHypervolume:
    REF = ObjectiveVector(0.0, 0.0)

    def test_unit_square(self):
        assert hypervolume_2d([ObjectiveVector(1.0, 1.0)], self.REF) == 1.0

    def test_two_point_union(self):
        front = [ObjectiveVector(1.0, 0.5), ObjectiveVector(0.5, 1.0)]
        assert hypervolume_2d(front, self.REF) == pytest.approx(0.75)

    def test_monotone_under_added_point(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pts = [ObjectiveVector(float(u), float(a)) for u, a in rng.random((4, 2))]
            extra = ObjectiveVector(float(rng.random()), float(rng.random()))
            assert hypervolume_2d(pts + [extra], self.REF) >= hypervolume_2d(pts, self.REF) - 1e-12

    def test_empty_front_raises(self):
        with pytest.raises(EmptyFront):
            hypervolume_2d([], self.REF)

    def test_point_left_of_reference_adds_nothing(self):
        ref = ObjectiveVector(0.6, 0.0)
        assert hypervolume_2d([ObjectiveVector(0.5, 0.9)], ref) == 0.0
        assert hypervolume_2d([ObjectiveVector(0.6, 0.9)], ref) == 0.0
        front = [ObjectiveVector(0.8, 0.2), ObjectiveVector(0.5, 0.9)]
        assert hypervolume_2d(front, ref) == pytest.approx(0.2 * 0.2)


class TestSelectCompromise:
    def _archive(self, sols):
        archive = ParetoArchive(capacity=10)
        for s in sols:
            archive.add(s)
        return archive

    def test_prefers_balanced_mean(self):
        archive = self._archive([feas(0.9, 0.1, genotype=(1,)), feas(0.6, 0.6, genotype=(2,))])
        assert select_compromise(archive).objectives == ObjectiveVector(0.6, 0.6)

    def test_singleton(self):
        archive = self._archive([feas(0.2, 0.3)])
        assert select_compromise(archive).objectives == ObjectiveVector(0.2, 0.3)

    def test_tie_prefers_availability(self):
        archive = self._archive([feas(0.8, 0.4, genotype=(1,)), feas(0.4, 0.8, genotype=(2,))])
        assert select_compromise(archive).objectives == ObjectiveVector(0.4, 0.8)

    def test_empty_raises(self):
        with pytest.raises(EmptyArchive):
            select_compromise(ParetoArchive(capacity=10))

    def test_collinear_front_picks_balanced_middle(self):
        # u + a = 1.44 from (0.44, 1) to (1, 0.44) in steps of 1/25: every
        # member has the same sum, so only the balance can decide
        front = [feas(k / 25, (36 - k) / 25, genotype=(k,)) for k in range(11, 26)]
        archive = ParetoArchive(capacity=len(front))
        for s in front:
            archive.add(s)
        assert len(archive) == len(front)
        assert select_compromise(archive).objectives == ObjectiveVector(0.72, 0.72)

    def test_balance_beats_larger_sum(self):
        archive = self._archive([feas(1.0, 0.5, genotype=(1,)), feas(0.7, 0.7, genotype=(2,))])
        assert select_compromise(archive).objectives == ObjectiveVector(0.7, 0.7)


class TestMoeadPieces:
    def test_lattice_h4(self):
        weights = simplex_lattice_weights(4)
        expected = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]
        assert [tuple(w) for w in weights] == expected

    def test_degenerate_weight_selects_best_first_objective(self):
        rng = np.random.default_rng(2)
        pts = [(float(u), float(a)) for u, a in rng.random((20, 2))]
        ideal = np.array([max(p[0] for p in pts), max(p[1] for p in pts)])
        weights = np.array([1.0, 0.0])
        best = min(pts, key=lambda p: tchebycheff(p, weights, ideal))
        assert best[0] == max(p[0] for p in pts)

    def test_bad_lattice(self):
        # 2.5 would give the weights (1.2, -0.2)
        for resolution in (0, 2.5, math.inf, math.nan, 10**400):
            with pytest.raises(BadLattice):
                simplex_lattice_weights(resolution)


@pytest.mark.parametrize("name", list(ALGORITHMS))
class TestAlgorithms:
    def test_deterministic_given_seed(self, name):
        prob = tiny_instance(1)
        params = AlgoParams(seed=5, max_evaluations=400)
        a = ALGORITHMS[name](prob, params)
        b = ALGORITHMS[name](prob, params)
        assert [m.genotype for m in a] == [m.genotype for m in b]
        assert [m.objectives for m in a] == [m.objectives for m in b]

    def test_budget_respected(self, name):
        prob = tiny_instance(1)
        evals = []
        ALGORITHMS[name](prob, AlgoParams(max_evaluations=250), trace_hook=lambda g: evals.append(g.evaluations))
        assert max(evals) <= 250

    def test_budget_too_small(self, name):
        prob = tiny_instance(1)
        with pytest.raises(BudgetTooSmall):
            ALGORITHMS[name](prob, AlgoParams(population_size=40, max_evaluations=10))
        # the parameters themselves refuse it, before any algorithm runs
        with pytest.raises(BudgetTooSmall):
            AlgoParams(population_size=40, max_evaluations=10)

    def test_scores_only_whole_generations(self, name, monkeypatch):
        import fogplan.fsdp
        import fogplan.moea.common

        def single(*args):
            raise AssertionError("a single child was scored")

        monkeypatch.setattr(fogplan.fsdp, "evaluate", single)
        monkeypatch.setattr(fogplan.moea.common, "make_solution", single)
        batches = []
        evaluate_many = fogplan.moea.common.evaluate_many

        def counting(block, prob):
            batches.append(len(block))
            return evaluate_many(block, prob)

        # the kernel call that every scored block goes through
        monkeypatch.setattr(fogplan.moea.common, "evaluate_many", counting)
        # the initial population, two whole broods, then a partial one, even or odd
        for budget, last in [(130, 10), (127, 7)]:
            batches.clear()
            trace = []
            ALGORITHMS[name](tiny_instance(1), AlgoParams(population_size=40, max_evaluations=budget),
                             trace_hook=trace.append)
            assert batches == [40, 40, 40, last]
            assert trace[-1].evaluations == budget

    def test_archive_feasible_and_hv_monotone(self, name):
        prob = tiny_instance(2)
        trace = []
        archive = ALGORITHMS[name](prob, AlgoParams(seed=3, max_evaluations=600), trace_hook=trace.append)
        assert all(m.feasible for m in archive)
        hvs = [g.hypervolume for g in trace]
        assert all(b >= a - 1e-12 for a, b in zip(hvs, hvs[1:]))

    def test_matches_exact_front_on_tiny_instance(self, name):
        from fogplan.oracle import exact_pareto

        prob = tiny_instance(3)
        front = exact_pareto(prob, cap=5000)
        archive = ALGORITHMS[name](prob, AlgoParams(seed=0, max_evaluations=2000))
        assert front.objective_set() <= archive.objective_set()


def test_search_evaluate_many_matches_a_loop_of_evaluate(monkeypatch):
    # each row of the scored arrays holds make_solution's fields for its
    # genome, and the archive holds what archive.add of every such
    # Solution gives; the genomes near the greedy anchors find more front
    # points than the archive's 3 places
    prob = paper_scenario()
    rng = np.random.default_rng(3)
    anchors = greedy_anchors(prob)
    genomes = list(initial_population(prob, 40, rng))
    genomes += [reset_mutation(np.array(anchors[k % 2]), 0.2, prob.n_resources, rng) for k in range(200)]
    params = AlgoParams(archive_capacity=3)
    batched, looped = Search(prob, params), ParetoArchive(capacity=3)
    offered = []
    add = ParetoArchive.add

    def counting_add(archive, candidate):
        offered.append(candidate)
        return add(archive, candidate)

    monkeypatch.setattr(ParetoArchive, "add", counting_add)
    scored = batched.evaluate_many(genomes)
    offered_by_search = list(offered)
    expected = [make_solution(g, prob) for g in genomes]
    admitted = []
    for sol in expected:
        o = sol.objectives
        if looped.admits(o.fog_utilization, o.availability, sol.total_violation):
            admitted.append(sol)
        looped.add(sol)
    assert scored._fields == ("genotypes", "objectives", "total")
    rows = zip(*(a.tolist() for a in scored), strict=True)
    for (genotype, objectives, total), sol, genome in zip(rows, expected, genomes, strict=True):
        v = evaluate(genome, prob)[1]
        assert genotype == list(sol.genotype)
        assert objectives == [sol.objectives.fog_utilization, sol.objectives.availability]
        # the block's total and feasibility are ViolationVector's, bit for bit
        assert (total, total == 0) == (v.total(), is_zero(v))
    assert (scored.total == 0).any() and not (scored.total == 0).all()
    # the Solution of every row is make_solution's of its genome
    packed = [scored.solution(i) for i in range(len(genomes))]
    assert packed == expected
    assert [s.total_violation for s in packed] == scored.total.tolist()
    assert batched.evaluations == 240

    def fields(members):
        return [(list(m.genotype), m.objectives, m.total_violation) for m in members]

    assert fields(batched.archive.members) == fields(looped.members)
    assert len(batched.archive) == 3
    # only the admitted rows reach add, and every one of them does
    assert offered_by_search == admitted
    assert 0 < len(admitted) < 240


def test_nsga2_sorts_once_per_generation(monkeypatch):
    import fogplan.moea.nsga2 as nsga2

    sorts = []
    row_sort = nsga2.nondominated_rows

    def counting_sort(u, a, total):
        sorts.append(len(total))
        return row_sort(u, a, total)

    monkeypatch.setattr(nsga2, "nondominated_rows", counting_sort)
    reports = []
    nsga2.nsga2_run(tiny_instance(1), AlgoParams(max_evaluations=200), trace_hook=reports.append)
    # the initial population, then one sort of parents plus offspring per generation
    assert len(reports) == 5
    assert sorts == [40] + [80] * 4


def guides(members, divisions, rng, k):
    """The guides of one draw from a grid built on ``members``, their
    genotypes packed as array('H'), as a scored block packs them."""
    packed = [dataclasses.replace(m, genotype=array("H", m.genotype)) for m in members]
    return _draw(_grid(packed, divisions), rng, k)


def test_mopso_rebuilds_its_guide_grid_only_after_an_admission(monkeypatch):
    import fogplan.moea.mopso as mopso

    events, add = [], ParetoArchive.add

    def counting_grid(members, divisions):
        events.append("grid")
        return _grid(members, divisions)

    def counting_draw(grid, rng, k):
        events.append(k)
        return _draw(grid, rng, k)

    def counting_add(archive, candidate):
        events.append("add")
        return add(archive, candidate)

    monkeypatch.setattr(mopso, "_grid", counting_grid)
    monkeypatch.setattr(mopso, "_draw", counting_draw)
    monkeypatch.setattr(ParetoArchive, "add", counting_add)
    reports = []
    mopso.mopso_run(paper_scenario(0), AlgoParams(max_evaluations=1000), trace_hook=reports.append)
    # the initial swarm, then per generation one draw of the whole swarm's guides,
    # from a grid built anew only when an offer was admitted since the last draw
    assert len(reports) == 25
    generations, since = [], []  # the events before each draw
    for event in events:
        if event == "add" or event == "grid":
            since.append(event)
        else:
            generations.append(since)
            since = []
    assert events.count(40) == len(generations) == 24
    for before in generations:
        assert before.count("grid") == ("add" in before)
        assert "grid" not in before or before[-1] == "grid"
    # both happen: a generation that builds the grid and one that reuses it
    assert 0 < sum("grid" in before for before in generations) < 24


RUNS = {
    "paper": (paper_scenario(0), {}),
    "tiny": (tiny_instance(1), dict(max_evaluations=400)),
    "truncated": (paper_scenario(2), dict(archive_capacity=5)),
    # a cloud too slow for the deadlines: every member of the first archive is
    # infeasible, and the violation level drops to 0 during the run
    "infeasible-start": (
        build_instance(ScenarioSpec(
            colonies=1, cells_per_colony=2, apps=2, services_per_app=3, deadlines=(0.6,), seed=1,
            resources=Resources(cloud=ResourceTemplate(cpu=300, ram=200000, storage=1e9, failure=1e-5)),
        )),
        dict(seed=1, max_evaluations=400),
    ),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_reported_stats_are_never_stale(monkeypatch, name, run):
    """Each report's stats equal ``generation_stats`` computed afresh, whether
    or not the archive changed since the last report."""
    prob, knobs = RUNS[run]
    report, fresh, archives = Search.report, [], []

    def checked_report(search, feasible):
        fresh.append(generation_stats(search.archive, feasible, search.evaluations))
        archives.append((search.archive.version, search.archive.violation, len(search.archive)))
        report(search, feasible)

    monkeypatch.setattr(Search, "report", checked_report)
    reported = []
    ALGORITHMS[name](prob, AlgoParams(**knobs), trace_hook=reported.append)
    assert reported == fresh
    versions, levels, sizes = zip(*archives)
    if run == "truncated":
        assert max(sizes) == 5
    else:  # some reports follow no change of the archive, so they reuse the stats
        assert len(set(versions)) < len(versions)
    if run == "infeasible-start":
        assert levels[0] > 0 and levels[-1] == 0
    else:
        assert set(levels) == {0.0}


def reference_generation_stats(archive, feasible, evaluations):
    """``generation_stats`` as a walk over the archive's members: the
    largest of each objective, ``select_compromise``'s key with its
    genotype tie-break, and ``hypervolume_2d``'s sweep over the points in
    descending (u, a) order."""
    points = [m.objectives.as_tuple() for m in archive.members]

    def key(s):
        u, a = s.objectives.as_tuple()
        return (-min(u, a), -max(u, a), -a, s.genotype)

    comp = min(archive.members, key=key).objectives
    hv, best = 0.0, 0.0
    for u, a in sorted(points, key=lambda p: (-p[0], -p[1])):
        if a > best and u > 0.0:
            hv += (u - 0.0) * (a - best)
            best = a
    return GenerationStats(evaluations, max(u for u, _ in points), max(a for _, a in points),
                           comp.fog_utilization, comp.availability, hv, sum(feasible) / len(feasible))


#: objective values: tenths, so that points tie and mirror exactly, or any float in [0, 1]
OBJECTIVE_VALUES = st.sampled_from([k / 10 for k in range(11)]) | st.floats(0.0, 1.0)


@st.composite
def offered_archives(draw):
    """An archive after random offers, each point maybe followed by its
    mirror (a, u), which ties it on min(u, a) and max(u, a).  Every offer
    is feasible, or every offer violates, or both kinds come, so the
    archive ends at violation 0 or above it; a small capacity truncates."""
    archive = ParetoArchive(capacity=draw(st.integers(1, 12)))
    levels = draw(st.sampled_from([(0.0,), (0.5, 1.5), (0.0, 0.5)]))
    offers = st.tuples(OBJECTIVE_VALUES, OBJECTIVE_VALUES, st.booleans(), st.sampled_from(levels),
                       st.lists(st.integers(0, 3), min_size=2, max_size=2))
    for u, a, mirrored, total, genotype in draw(st.lists(offers, min_size=1, max_size=40)):
        for point in [(u, a), (a, u)][:1 + mirrored]:
            archive.add(Solution(array("H", genotype), ObjectiveVector(*point), total))
    return archive


@settings(max_examples=400, deadline=None)
@given(offered_archives(), st.lists(st.booleans(), min_size=1, max_size=8), st.integers(0, 10**6))
def test_generation_stats_match_a_member_walk(archive, feasible, evaluations):
    assert generation_stats(archive, feasible, evaluations) == reference_generation_stats(
        archive, feasible, evaluations)


@pytest.mark.parametrize("total", [0.0, 0.5])
def test_generation_stats_mirrored_points(total):
    # (0.4, 0.6) and (0.6, 0.4) tie on min(u, a) and max(u, a): the higher
    # availability wins, whichever came first
    for points in ([(0.6, 0.4), (0.4, 0.6), (0.1, 0.9)], [(0.4, 0.6), (0.6, 0.4), (0.95, 0.05)]):
        archive = ParetoArchive(capacity=10)
        for i, point in enumerate(points):
            archive.add(Solution(array("H", [9 - i]), ObjectiveVector(*point), total))
        stats = generation_stats(archive, [True, False], 40)
        assert (stats.compromise_fog_utilization, stats.compromise_availability) == (0.4, 0.6)
        assert stats == reference_generation_stats(archive, [True, False], 40)


def test_nsga2_selection_ignores_member_order():
    from fogplan.moea.nsga2 import _environmental_selection

    rng = np.random.default_rng(8)
    for _ in range(20):
        pop = random_solutions(rng, 60, violation_levels=3)
        combined = scored_rows(pop + pop[:20])  # a population may hold one genotype twice
        survivors, rank, standing = _environmental_selection(combined, 40)
        assert standing == sorted(standing) and len(survivors.total) == 40
        assert rank.tolist() == dense_rank(standing)
        for _ in range(5):
            perm = rng.permutation(len(combined.total))
            shuffled, shuffled_rank, shuffled_standing = _environmental_selection(
                Scored(*(column[perm] for column in combined)), 40)
            assert shuffled_standing == standing and shuffled_rank.tolist() == rank.tolist()
            assert all((x == y).all() for x, y in zip(shuffled, survivors))


# sorted (front, -crowding) keys, with ties, and all tied
RANKED = [(0, -np.inf), (0, -np.inf), (0, -0.5), (0, -0.5), (0, -0.5), (0, -0.2), (1, -np.inf), (1, -np.inf),
          (1, -0.0), (2, -np.inf)]


@pytest.mark.parametrize("standing", [RANKED, [(0, -np.inf)] * 10], ids=["ranked", "all-tied"])
def test_nsga2_tournament_lower_key_wins_then_first_drawn(standing):
    from fogplan.moea.nsga2 import _tournament

    rank = np.array(dense_rank(standing))
    assert rank.tolist() == ([0, 0, 1, 1, 1, 2, 3, 3, 4, 5] if standing is RANKED else [0] * 10)
    for seed in range(20):
        first, second = np.random.default_rng(seed).integers(0, 10, size=(2, 40))
        winners = _tournament(rank, (40,), np.random.default_rng(seed))
        assert winners.tolist() == [b if standing[b] < standing[a] else a for a, b in zip(first, second)]
        if len(set(standing)) == 1:
            assert winners.tolist() == first.tolist()


def test_block_operators_copy_and_keep_parent_genes():
    rng = np.random.default_rng(11)
    p1, p2 = rng.integers(0, 50, (2, 40, 25))
    kept = p1.copy(), p2.copy()
    c1 = uniform_crossover(p1, p2, rng)
    assert (p1 == kept[0]).all() and (p2 == kept[1]).all()
    # each gene comes from one parent, and each parent gives some
    assert ((c1 == p1) | (c1 == p2)).all()
    assert (c1 != p1).any() and (c1 != p2).any()
    child = c1.copy()
    mutated = reset_mutation(c1, 0.3, 50, rng)
    assert (c1 == child).all()
    assert 0 < (mutated != c1).mean() < 0.3 and mutated.min() >= 0 and mutated.max() < 50
    unchanged = reset_mutation(c1, 0.0, 50, rng)
    assert unchanged is not c1 and (unchanged == c1).all()


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_uniform_crossover_picks_as_a_select_on_its_coins(dtype):
    # the arithmetic pick against np.where on the same coins; uint16
    # differences wrap, and the sums wrap back
    p1, p2 = np.random.default_rng(12).integers(0, 4096, (2, 40, 400)).astype(dtype)
    coins = np.random.default_rng(13).random(p1.shape) < 0.5
    got, want = uniform_crossover(p1, p2, np.random.default_rng(13)), np.where(coins, p1, p2)
    assert got.dtype == want.dtype and (got == want).all()


@pytest.mark.parametrize("name, knob", [
    # the smallest lattice: each child's two mates are 2 of 4 subproblems
    ("moead", dict(population_size=4)),
    ("nsga2", dict(crossover_prob=0.0)),
    ("nsga2", dict(crossover_prob=1.0)),
])
def test_edge_parameters_reach_the_budget_with_a_feasible_archive(name, knob):
    trace = []
    archive = ALGORITHMS[name](tiny_instance(2), AlgoParams(seed=3, max_evaluations=300, **knob),
                               trace_hook=trace.append)
    assert trace[-1].evaluations == 300
    assert len(archive) > 0 and all(m.feasible for m in archive)


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_moead_keeps_a_front_on_scaled16(seed):
    # instances where replacement inside neighbourhoods of 10 of the 40
    # subproblems left a final archive of 2 members
    prob = scaled_scenario(ScenarioSpec(seed=seed), 16)
    archive = moead_run(prob, AlgoParams(seed=seed, max_evaluations=1000))
    assert len(archive) >= 10


def test_nsga2_archive_honours_capacity():
    prob = scaled_scenario(ScenarioSpec(seed=1), 16)
    params = AlgoParams(population_size=60, archive_capacity=50, max_evaluations=1000)
    assert len(nsga2_run(prob, params)) <= 50


def reference_greedy_anchors(prob):
    """greedy_anchors as numpy calls over every fog host per service."""
    cloud = prob.landscape.cloud
    fog = np.flatnonzero(prob.is_fog)
    fog = fog[np.argsort(prob.up_probability[fog], kind="stable")]  # least available first
    up = prob.up_probability[fog]
    capacity = prob.effective_capacity.T[fog]
    demand = np.stack([prob.service_cpu, prob.service_ram, prob.service_storage], axis=1)
    used = np.zeros_like(capacity)
    order = np.argsort(-prob.service_cpu, kind="stable")

    def room(svc):
        return (used + demand[svc] <= capacity).all(axis=1)

    def place(genotype, svc, k):
        genotype[svc] = fog[k]
        used[k] += demand[svc]

    available = np.full(prob.n_services, cloud, dtype=np.int64)
    for svc in order:
        hosts = np.flatnonzero(room(svc) & (up >= prob.service_avail_req[svc]))
        if hosts.size:
            place(available, svc, hosts[0])
    fog_rich = available.copy()
    for svc in order[fog_rich[order] == cloud]:
        hosts = np.flatnonzero(room(svc))
        if hosts.size:
            place(fog_rich, svc, hosts[np.argmax(capacity[hosts, 0] - used[hosts, 0])])
    return available, fog_rich


@st.composite
def anchor_specs(draw):
    """Float demands and capacities, with the hosts' failure probabilities
    drawn from two or three values, so that up-probabilities tie, and
    some requirements equal to an up-probability."""
    positive = st.floats(1.0, 400.0)
    failures = draw(st.lists(st.floats(0.0, 0.3), min_size=2, max_size=3))

    def host():
        return ResourceTemplate(draw(positive), draw(positive), draw(positive), draw(st.sampled_from(failures)))

    def requirement():
        lo = draw(st.floats(0.6, 0.8) | st.sampled_from([1.0 - f for f in failures]))
        return lo, min(1.0, lo + draw(st.just(0.0) | st.floats(0.0, 0.2)))

    templates = tuple(
        ServiceTemplate("process", draw(positive), draw(positive), draw(positive), *requirement())
        for _ in range(draw(st.integers(1, 4)))
    )
    return ScenarioSpec(
        colonies=draw(st.integers(1, 4)), cells_per_colony=draw(st.integers(1, 5)),
        apps=draw(st.integers(1, 6)), services_per_app=draw(st.integers(1, 6)),
        service_templates=templates, resources=Resources(fcm=host(), fc=host()),
        reserve_fraction=draw(st.floats(0.0, 0.5)), seed=draw(st.integers(0, 100)),
    )


def assert_anchors_match_reference(prob, anchors=None):
    for got, want in zip(anchors or greedy_anchors(prob), reference_greedy_anchors(prob), strict=True):
        assert type(got) is tuple and got == tuple(want.tolist())
        assert all(type(k) is int for k in got)


@settings(max_examples=300, deadline=None)
@given(anchor_specs())
def test_greedy_anchors_match_reference(spec):
    assert_anchors_match_reference(build_instance(spec))


@pytest.mark.parametrize("factor", [1, 4, 16])
def test_greedy_anchors_match_reference_at_scale(factor):
    for seed in range(10):
        assert_anchors_match_reference(scaled_scenario(ScenarioSpec(seed=seed), factor))


def test_anchors_placed_once_per_instance(monkeypatch):
    prob = tiny_instance(2)
    assert "anchors" not in vars(prob)  # lazily, not in ProblemInstance.__init__
    placed = []
    place = common.greedy_anchors
    monkeypatch.setattr(common, "greedy_anchors", lambda p: placed.append(p) or place(p))
    for run in ALGORITHMS.values():
        for seed in (0, 1):
            run(prob, AlgoParams(seed=seed, max_evaluations=80))
    assert placed == [prob]


def test_cached_anchors_are_tuples_and_pickle(monkeypatch):
    prob = paper_scenario(3)
    assert prob.anchors is prob.anchors
    monkeypatch.setattr(common, "greedy_anchors", lambda p: pytest.fail("anchors placed again"))
    copy = pickle.loads(pickle.dumps(prob))
    assert "anchors" in vars(copy)  # carried, not placed again
    for anchors in (prob.anchors, copy.anchors):
        assert_anchors_match_reference(prob, anchors)
    pop, unpickled = (initial_population(p, 40, np.random.default_rng(5)) for p in (prob, copy))
    assert pop.dtype == unpickled.dtype == np.int64 and (pop == unpickled).all()


class TestInitialPopulation:
    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_anchors_feasible_at_front_ends(self, seed):
        prob = paper_scenario(seed)
        available, fog_rich = greedy_anchors(prob)
        for anchor in (available, fog_rich):
            assert audit_capacity(anchor, prob)
            assert make_solution(anchor, prob).feasible
        low = make_solution(available, prob).objectives
        high = make_solution(fog_rich, prob).objectives
        # the two ends of the reference front: (u0, 1) and (1, u0)
        assert low.availability == 1.0 and low.fog_utilization > 0.0
        assert high == ObjectiveVector(1.0, low.fog_utilization)

    def test_anchors_close_the_population(self):
        prob = tiny_instance(0)
        pop = initial_population(prob, 8, np.random.default_rng(0))
        assert len(pop) == 8
        assert (pop[-3] == prob.landscape.cloud).all()
        for got, want in zip(pop[-2:], greedy_anchors(prob)):
            assert (got == want).all()


class TestMopsoFrozenDynamics:
    def test_negative_move_weight_rejected(self):
        with pytest.raises(ValueError):
            AlgoParams(social=-0.5)

    @pytest.mark.parametrize("knob", [
        # a NaN weight makes pull.sum() > 0 False, which would freeze the swarm
        dict(inertia=math.nan), dict(cognitive=math.inf), dict(social=math.nan),
        dict(archive_capacity=2.5), dict(archive_capacity=math.inf),
        # float() of either overflows
        pytest.param(dict(archive_capacity=10**400), id="archive_capacity=10**400"),
        pytest.param(dict(grid_divisions=10**400), id="grid_divisions=10**400"),
        # an infinite grid would give NaN cells
        dict(grid_divisions=math.inf), dict(grid_divisions=math.nan), dict(grid_divisions=6.5),
        # an infinite or NaN budget never runs out; a float count fails deep in numpy
        dict(max_evaluations=math.inf), dict(max_evaluations=math.nan), dict(max_evaluations=100.5),
        dict(population_size=40.0), dict(seed=1.5),
        # a bool is an int to isinstance, but no count or seed
        dict(seed=True), dict(archive_capacity=True), dict(grid_divisions=True),
    ], ids=lambda knob: "{}={}".format(*next(iter(knob.items()))))
    def test_non_finite_or_fractional_knob_rejected(self, knob):
        with pytest.raises(ValueError):
            AlgoParams(**knob)

    def test_integral_float_counts_accepted(self):
        params = AlgoParams(archive_capacity=5.0, grid_divisions=7.0)
        assert (params.archive_capacity, params.grid_divisions) == (5, 7)

    def test_stationary_swarm(self):
        prob = tiny_instance(4)
        frozen = dict(inertia=0.0, cognitive=0.0, social=0.0, mutation_rate=0.0)
        short = mopso_run(prob, AlgoParams(seed=8, max_evaluations=40, population_size=40, **frozen))
        long = mopso_run(prob, AlgoParams(seed=8, max_evaluations=400, population_size=40, **frozen))
        assert short.objective_set() == long.objective_set()

    @pytest.mark.parametrize("divisions", [10**9, 10**300])
    def test_guide_counts_only_occupied_cells(self, divisions):
        # a cell table of divisions**2 entries would need exabytes here
        members = [feas(0.1 * i, 1.0 - 0.1 * i, genotype=(i,)) for i in range(9)]
        guide = guides(members, divisions, np.random.default_rng(0), 1)[0].tolist()
        assert any(guide == list(m.genotype) for m in members)

    @pytest.mark.parametrize("divisions", [7, 10**9, 2**40])
    def test_guide_cells_match_unique_over_rows(self, divisions):
        """The grid's stable sort of the (row, column) cells gives the cell
        ids, sizes and draws of a unique over axis 0 of the pairs."""

        def axis0_draw(members, rng, k):
            objs = np.array([m.objectives.as_tuple() for m in members])
            lo, hi = objs.min(axis=0), objs.max(axis=0)
            cells = np.minimum(np.floor((objs - lo) / np.where(hi > lo, hi - lo, 1.0) * divisions), divisions - 1)
            _, cell_of, sizes = np.unique(cells, axis=0, return_inverse=True, return_counts=True)
            p = 1.0 / sizes / (1.0 / sizes).sum()
            by_cell, starts = np.argsort(cell_of.ravel(), kind="stable"), np.cumsum(sizes) - sizes
            picked = rng.choice(len(sizes), size=k, p=p)
            return [members[i] for i in by_cell[starts[picked] + rng.integers(0, sizes[picked])]]

        rng = np.random.default_rng(divisions % 1000)
        for trial in range(60):
            count = int(rng.integers(1, 51))
            if trial % 3 == 0:
                members = [feas(float(u), float(a), genotype=(i,)) for i, (u, a) in enumerate(rng.random((count, 2)))]
            elif trial % 3 == 1:
                # a coarse grid of objectives: many members share a cell
                members = random_solutions(rng, count, feasible_fraction=1.0)
            else:
                # rows shared, columns a few cells apart: row * divisions + column
                # would round them together past 2**53
                u = rng.choice([0.0, 0.5, 1.0], count)
                a = rng.integers(0, 8, count) * 1.5 / divisions
                members = [feas(float(x), float(y), genotype=(i,)) for i, (x, y) in enumerate(zip(u, a))]
                members.append(feas(1.0, 1.0, genotype=(count,)))
            seed = int(rng.integers(1 << 30))
            # every member's genotype is its own, so a genotype row names the member drawn
            got = guides(members, divisions, np.random.default_rng(seed), 40)
            want = axis0_draw(members, np.random.default_rng(seed), 40)
            assert got.tolist() == [list(w.genotype) for w in want]

    @pytest.mark.parametrize("divisions", [1, 2, 3, 7, 50])
    def test_guide_roulette_over_occupied_cells(self, divisions):
        """Cells weigh 1 / members in them, in (row, column) order."""
        rng = np.random.default_rng(divisions)
        for _ in range(20):
            members = random_solutions(rng, int(rng.integers(2, 15)), feasible_fraction=1.0)
            objs = np.array([m.objectives.as_tuple() for m in members])
            lo, hi = objs.min(axis=0), objs.max(axis=0)
            cells = ((objs - lo) / np.where(hi > lo, hi - lo, 1.0) * divisions).astype(int)
            keys = np.minimum(cells, divisions - 1) @ [divisions, 1]
            counts = np.bincount(keys)
            occupied = np.flatnonzero(counts)
            weights = 1.0 / counts[occupied]
            seed = int(rng.integers(1 << 30))
            expect = np.random.default_rng(seed)
            cell = occupied[expect.choice(len(occupied), p=weights / weights.sum())]
            candidates = np.flatnonzero(keys == cell)
            want = members[candidates[expect.integers(0, len(candidates))]]
            assert guides(members, divisions, np.random.default_rng(seed), 1).tolist() == [list(want.genotype)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=30)
       .flatmap(lambda points: st.tuples(st.just(points), st.permutations(range(len(points))))),
       st.integers(1, 9))
def test_guide_grid_ignores_member_order(drawn, divisions):
    # the cells, their roulette and each cell's members depend on the
    # members alone, so a new archive order only relabels a cell's draws;
    # points on a grid of eighths share cells, and each genotype names its member
    points, order = drawn
    members = [Solution(array("H", [i]), ObjectiveVector(u / 8, a / 8), 0.0) for i, (u, a) in enumerate(points)]
    grid, permuted = (_grid(ms, divisions) for ms in (members, [members[i] for i in order]))
    assert grid.starts.tolist() == permuted.starts.tolist() and grid.sizes.tolist() == permuted.sizes.tolist()
    assert grid.cdf.tolist() == permuted.cdf.tolist()
    for start, size in zip(grid.starts.tolist(), grid.sizes.tolist()):
        cell = slice(start, start + size)
        assert sorted(grid.genotypes[cell].ravel().tolist()) == sorted(permuted.genotypes[cell].ravel().tolist())
