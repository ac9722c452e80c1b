"""MOEA/D's replacement against a per-child loop.

The reference is the rule as a loop: the brood's feasible children raise
the ideal point, then, child by child in order, each child replaces each
incumbent it beats, in every subproblem, by feasibility (a total
violation of 0), then total violation, then the Tchebycheff value under
that ideal point, in plain Python floats.  The argmin performs the same
float operations per key, so the two must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_app, make_resource, make_service
from fogplan.fsdp import ProblemInstance
from fogplan.model import Landscape, Latencies, ResourceKind
from fogplan.moea import AlgoParams, moead, moead_run
from fogplan.moea.common import Search
from fogplan.moea.moead import _replacement, _two_smallest, simplex_lattice_weights, tchebycheff


def reference_tchebycheff(objectives, weights, ideal):
    return max(w * abs(i - o) for w, i, o in zip(weights, ideal, objectives))


def reference_replacement(weights, ideal, population, brood):
    """(holder of each subproblem, -1 for none; ideal after the brood), child by child."""
    objectives, violation = (a.tolist() for a in population)
    feasible = [v == 0.0 for v in violation]
    ideal = ideal.tolist()
    weights = weights.tolist()
    holder = [-1] * len(objectives)
    children = [(obj, viol == 0.0, viol) for obj, viol in zip(*(a.tolist() for a in brood))]
    for obj, feas, _ in children:
        if feas:
            ideal = [max(best, got) for best, got in zip(ideal, obj)]
    for i, (obj, feas, viol) in enumerate(children):
        for j in range(len(objectives)):
            if feas != feasible[j]:
                better = feas
            elif not feas:
                better = viol < violation[j]
            else:
                better = reference_tchebycheff(obj, weights[j], ideal) < reference_tchebycheff(
                    objectives[j], weights[j], ideal
                )
            if better:
                objectives[j], feasible[j], violation[j], holder[j] = obj, feas, viol, i
    return holder, ideal


def members(count, top):
    """(objectives, total violation) of ``count`` members; 0 violation
    is feasible.  Objectives lie on a grid of eighths up to
    ``top``, so that equal objectives are common, or anywhere below it."""
    objective = st.one_of(st.integers(0, top).map(lambda x: x / 8), st.floats(0.0, top / 8))
    violation = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0]), st.floats(0.0, 3.0))
    return st.lists(
        st.tuples(objective, objective, violation), min_size=count, max_size=count
    ).map(lambda rows: (
        np.array([r[:2] for r in rows]),
        np.array([r[2] for r in rows]),
    ))


@st.composite
def replacement_cases(draw):
    n_sub = draw(st.integers(2, 12))
    k = draw(st.integers(1, n_sub))
    # children may pass the population's best, which raises the ideal point
    return draw(members(n_sub, 6)), draw(members(k, 8))


def replaced(population, brood, ideal=None):
    """The holders after ``brood``, checked against the per-child loop;
    the ideal point defaults to the best of the feasible incumbents."""
    population = tuple(np.array(a, dtype=float) for a in population)
    brood = tuple(np.array(a, dtype=float) for a in brood)
    weights = simplex_lattice_weights(len(population[0]) - 1)
    if ideal is None:
        ideal = population[0][population[1] == 0].max(axis=0, initial=0.0)
    ideal = np.array(ideal, dtype=float)
    holder, new_ideal = _replacement(weights, ideal, population, brood)
    want_holder, want_ideal = reference_replacement(weights, ideal, population, brood)
    assert holder.tolist() == want_holder
    assert new_ideal.tolist() == want_ideal
    return holder.tolist()


@settings(max_examples=300, deadline=None)
@given(replacement_cases())
def test_replacement_matches_per_child_loop(case):
    replaced(*case)


@pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
def test_ties_keep_the_incumbent_then_the_earlier_child(feasible):
    # every child is offered both subproblems
    weights = simplex_lattice_weights(1)
    ideal = np.array([1.0, 1.0])
    objectives = np.array([[0.5, 0.5], [0.25, 0.0]])
    violation = np.zeros(2) if feasible else np.array([1.0, 2.0])
    population = (objectives, violation)
    # children 1 and 2 are equal, the best of the brood in both subproblems
    # and child 0 worse: they equal incumbent 0 and beat incumbent 1
    children = np.array([[0.25, 0.25], [0.5, 0.5], [0.5, 0.5]])
    brood = (children, np.zeros(3) if feasible else np.array([1.5, 1.0, 1.0]))
    holder, _ = _replacement(weights, ideal, population, brood)
    assert holder.tolist() == [-1, 1]


def test_no_feasible_child_goes_to_the_first_of_the_least_violation():
    # the brood's least violation is 1.0, first reached by child 1; only the
    # incumbent that violates more than that is replaced
    objectives = [[0.5, 0.5]] * 4
    incumbents = (objectives, [0.0, 0.5, 1.0, 2.0])
    brood = ([[0.9, 0.9], [0.1, 0.1], [0.8, 0.8]], [1.5, 1.0, 1.0])
    assert replaced(incumbents, brood) == [-1, -1, -1, 1]


def test_feasible_children_tied_on_a_key_go_to_the_earliest():
    # under weight (0.5, 0.5) the two children's keys are both 0.375; the
    # other two weights each prefer one child; every incumbent is beaten
    incumbents = ([[0.0, 0.0]] * 3, [0.0] * 3)
    brood = ([[0.5, 0.25], [0.25, 0.5]], [0.0, 0.0])
    assert replaced(incumbents, brood, ideal=[1.0, 1.0]) == [1, 0, 0]


@pytest.mark.parametrize(("violation", "want"), [(0.0, [-1, -1]), (1.0, [0, 0])],
                         ids=["feasible-stays", "infeasible-replaced"])
def test_a_child_tied_with_its_incumbent(violation, want):
    # the child's key equals each incumbent's: it shares incumbent 0's availability,
    # which alone counts under weight (0, 1), and incumbent 1's fog utilization,
    # which alone counts under (1, 0); only a feasible incumbent keeps its place
    incumbents = ([[0.5, 0.5], [0.25, 0.9]], [violation, violation])
    brood = ([[0.25, 0.5]], [0.0])
    assert replaced(incumbents, brood, ideal=[1.0, 1.0]) == want


@pytest.mark.parametrize("child_violation", [0.0, 1.0], ids=["feasible", "infeasible"])
def test_one_child_brood(child_violation):
    objectives = [[0.2, 0.9], [0.4, 0.7], [0.6, 0.5], [0.8, 0.3], [0.9, 0.1]]
    incumbents = (objectives, [0.0, 2.0, 0.0, 0.5, 3.0])
    holder = replaced(incumbents, ([[0.7, 0.7]], [child_violation]))
    assert -1 in holder and 0 in holder


def test_partial_brood():
    # three children for six subproblems, one of them infeasible
    objectives = [[0.1, 0.95], [0.3, 0.8], [0.5, 0.6], [0.6, 0.4], [0.8, 0.2], [0.9, 0.05]]
    incumbents = (objectives, [0.0, 1.0, 0.0, 0.0, 2.0, 0.0])
    brood = ([[0.9, 0.2], [0.5, 0.5], [0.3, 0.95]], [0.0, 1.0, 0.0])
    holder = replaced(incumbents, brood)
    assert -1 in holder and {0, 2} <= set(holder)


@pytest.mark.parametrize("k", range(1, 41))
def test_mates_are_the_two_smallest_keys(k):
    keys = np.random.default_rng(k).random((k, 40))
    want = keys.argsort(axis=1)[:, :2]
    assert np.column_stack(_two_smallest(keys)).tolist() == want.tolist()


def test_ideal_is_the_best_feasible_so_far(monkeypatch):
    # the cloud holds no service; no fog host meets the services' availability, so the
    # first greedy anchor is all-cloud, and the second, placing on the host with most cpu
    # left, strands the last service on the cloud: the initial population is all
    # infeasible, and only the search finds the two fog packings that fit
    resources = (
        make_resource(0, ResourceKind.CLOUD, failure=0.00001, cpu=10),
        make_resource(1, ResourceKind.FCM, colony=0, failure=0.10, cpu=100),
        make_resource(2, ResourceKind.FC, colony=0, failure=0.20, cpu=100),
    )
    landscape = Landscape(resources, Latencies())
    services = [make_service(0, j, cpu=cpu, avail=0.95) for j, cpu in enumerate([50, 50, 40, 30, 30])]
    prob = ProblemInstance(landscape, [chain_app(0, services, deadline=1e6, rate=0.001)], reserve_fraction=0.0)
    scored, seen = [], []
    evaluate_many, replacement = Search.evaluate_many, moead._replacement

    def record_scores(run, genomes):
        scored.append(evaluate_many(run, genomes))
        return scored[-1]

    def record_replacement(weights, ideal, population, brood):
        # the brood is the batch scored last; the ideal covers the batches before it
        before = np.concatenate([s.objectives[s.total == 0] for s in scored[:-1]])
        seen.append((ideal.tolist(), before.max(axis=0, initial=0.0).tolist()))
        return replacement(weights, ideal, population, brood)

    monkeypatch.setattr(Search, "evaluate_many", record_scores)
    monkeypatch.setattr(moead, "_replacement", record_replacement)
    moead_run(prob, AlgoParams(seed=8, max_evaluations=400))
    assert (scored[0].total > 0).all() and (scored[-1].total == 0).any()
    for got, want in seen:
        assert got == want


def test_tchebycheff_is_elementwise():
    objectives = np.array([[0.2, 0.9], [0.5, 0.5]])
    weights = np.array([[0.25, 0.75], [1.0, 0.0]])
    ideal = np.array([1.0, 1.0])
    got = tchebycheff(objectives, weights, ideal)
    assert got.tolist() == [
        reference_tchebycheff(o, w, ideal.tolist()) for o, w in zip(objectives.tolist(), weights.tolist())
    ]
