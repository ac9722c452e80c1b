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
from fogplan.moea.moead import _replacement, simplex_lattice_weights, tchebycheff


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


@settings(max_examples=300, deadline=None)
@given(replacement_cases())
def test_replacement_matches_per_child_loop(case):
    population, brood = case
    objectives, violation = population
    weights = simplex_lattice_weights(len(objectives) - 1)
    ideal = objectives[violation == 0].max(axis=0, initial=0.0)
    holder, new_ideal = _replacement(weights, ideal, population, brood)
    want_holder, want_ideal = reference_replacement(weights, ideal, population, brood)
    assert holder.tolist() == want_holder
    assert new_ideal.tolist() == want_ideal


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
