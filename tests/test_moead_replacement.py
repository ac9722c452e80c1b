"""MOEA/D's neighbourhood replacement fold against a per-child loop.

The reference is the rule as a loop over the brood in child order: a
feasible child raises the ideal point, then the child replaces each
neighbour it beats by feasibility, then total violation, then the
Tchebycheff value under that ideal point, in plain Python floats.  The
fold performs the same float operations per comparison, so the two must
agree exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fogplan.moea.moead import _candidate_table, _replacement_fold, simplex_lattice_weights, tchebycheff


def reference_tchebycheff(objectives, weights, ideal):
    return max(w * abs(i - o) for w, i, o in zip(weights, ideal, objectives))


def reference_replacement(neighborhoods, weights, ideal, population, brood):
    """(holder of each subproblem, -1 for none; ideal after the brood), child by child."""
    objectives, feasible, violation = (a.tolist() for a in population)
    ideal = ideal.tolist()
    weights = weights.tolist()
    holder = [-1] * len(objectives)
    for i, (obj, feas, viol) in enumerate(zip(*(a.tolist() for a in brood))):
        if feas:
            ideal = [max(best, got) for best, got in zip(ideal, obj)]
        for j in neighborhoods[i].tolist():
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
    """(objectives, feasible, total violation) of ``count`` members; 0
    violation is feasible.  Objectives lie on a grid of eighths up to
    ``top``, so that equal objectives are common, or anywhere below it."""
    objective = st.one_of(st.integers(0, top).map(lambda x: x / 8), st.floats(0.0, top / 8))
    violation = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0]), st.floats(0.0, 3.0))
    return st.lists(
        st.tuples(objective, objective, violation), min_size=count, max_size=count
    ).map(lambda rows: (
        np.array([r[:2] for r in rows]),
        np.array([r[2] == 0.0 for r in rows]),
        np.array([r[2] for r in rows]),
    ))


@st.composite
def replacement_cases(draw):
    n_sub = draw(st.integers(2, 12))
    size = min(n_sub, draw(st.sampled_from([1, 3, n_sub])))
    # any neighbourhoods of distinct subproblems, not only the lattice's nearest
    neighborhoods = np.array([
        draw(st.permutations(range(n_sub)))[:size] for _ in range(n_sub)
    ])
    k = draw(st.integers(1, n_sub))
    # children may pass the population's best, which raises the ideal point mid-brood
    return neighborhoods, draw(members(n_sub, 6)), draw(members(k, 8))


@settings(max_examples=300, deadline=None)
@given(replacement_cases())
def test_fold_matches_per_child_loop(case):
    neighborhoods, population, brood = case
    objectives, feasible, _ = population
    weights = simplex_lattice_weights(len(neighborhoods) - 1)
    ideal = objectives[feasible].max(axis=0) if feasible.any() else objectives.max(axis=0)
    holder, new_ideal = _replacement_fold(_candidate_table(neighborhoods), weights, ideal, population, brood)
    want_holder, want_ideal = reference_replacement(neighborhoods, weights, ideal, population, brood)
    assert holder.tolist() == want_holder
    assert new_ideal.tolist() == want_ideal


def test_candidate_table_lists_children_in_order():
    neighborhoods = np.array([[0, 1], [1, 0], [2, 1]])
    # subproblem 0 is in the neighbourhoods of children 0 and 1, 1 in all three, 2 in child 2's
    assert _candidate_table(neighborhoods).tolist() == [[0, 1, 3], [0, 1, 2], [2, 3, 3]]


def test_tchebycheff_is_elementwise():
    objectives = np.array([[0.2, 0.9], [0.5, 0.5]])
    weights = np.array([[0.25, 0.75], [1.0, 0.0]])
    ideal = np.array([1.0, 1.0])
    got = tchebycheff(objectives, weights, ideal)
    assert got.tolist() == [
        reference_tchebycheff(o, w, ideal.tolist()) for o, w in zip(objectives.tolist(), weights.tolist())
    ]
