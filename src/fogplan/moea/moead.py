"""MOEA/D with Tchebycheff decomposition on a simplex-lattice of weights.

One subproblem per weight vector, each keeping the best solution under
its own weight (Zhang & Li, IEEE TEC 2007).  Mates are drawn from the
whole population, and every child is offered to every subproblem.
Less total violation takes precedence over the scalarized value during
replacement.  The initial solutions, anchors included, are assigned to
subproblems in order of fog utilization, so the all-cloud anchor starts
at the availability-only weight and the fog-rich anchor at the fog-only
one.  The population is kept as arrays, one row per subproblem:
genotypes, objectives and total violation, read straight from the
scored block.

Generations are synchronous: k subproblems breed one child each, as one
block, from the population at the generation's start.  Its draws, in
order: a (k, n_sub) block of keys, whose two smallest in a row pick two
distinct subproblems as that child's mates; one crossover mask; one
reset mutation.  The children are scored in one batch; the feasible
ones raise the ideal point, then, as if child by child in index order,
each child replaces the incumbents it beats.  With the ideal fixed for
the brood every key is fixed too, so each subproblem ends with the first
best of its incumbent and the children, in child order: with a feasible
child, one argmin over the feasible children's keys; without one, the
first child of the brood's least violation.  An external archive of
non-dominated feasible solutions is returned.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadLattice
from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Search,
    _is_count,
    initial_population,
    reset_mutation,
    uniform_crossover,
)


def simplex_lattice_weights(resolution: int) -> np.ndarray:
    """Two-objective simplex-lattice weight vectors (i/H, 1 - i/H)."""
    if not _is_count(resolution):
        raise BadLattice(f"lattice resolution {resolution} is not an integer >= 1")
    steps = np.arange(resolution + 1) / resolution
    return np.column_stack([steps, 1.0 - steps])


def tchebycheff(objectives, weights, ideal) -> np.ndarray:
    """Scalarized distance to the ideal point (lower is better):
    max(w0·|i0 − o0|, w1·|i1 − o1|) over the last axis, broadcast
    elementwise over the others."""
    d = np.abs(np.subtract(ideal, objectives))
    return np.maximum(weights[..., 0] * d[..., 0], weights[..., 1] * d[..., 1])


def _replacement(weights, ideal, population, brood) -> tuple[np.ndarray, np.ndarray]:
    """The child that holds each subproblem after a brood's replacements
    (-1 where none does), and the ideal point raised by the brood.

    ``population`` and ``brood`` are (objectives, total violation)
    arrays; the brood is children 0..k-1, each offered to every
    subproblem.  With no feasible child, a subproblem whose incumbent
    violates more than the brood's least goes to the first child of that
    violation.  Otherwise each subproblem's first best feasible child,
    by the Tchebycheff value, wins if it is strictly below the
    incumbent's (inf for an infeasible incumbent).
    """
    objectives, violation = population
    child_objectives, child_violation = brood
    feasible = np.flatnonzero(child_violation == 0)
    if not len(feasible):
        first = child_violation.argmin()
        return np.where(violation > child_violation[first], first, -1), ideal
    ideal = np.maximum(ideal, child_objectives[feasible].max(axis=0))
    keys = tchebycheff(child_objectives[feasible], weights[:, None], ideal)  # (n_sub, f)
    best = keys.argmin(axis=1)
    incumbent = np.where(violation == 0, tchebycheff(objectives, weights, ideal), np.inf)
    return np.where(keys[np.arange(len(keys)), best] < incumbent, feasible[best], -1), ideal


def _two_smallest(keys) -> tuple[np.ndarray, np.ndarray]:
    """The columns of each row's smallest and second smallest keys, by two
    argmins; ``keys`` is overwritten."""
    first = keys.argmin(axis=1)
    keys[np.arange(len(keys)), first] = np.inf
    return first, keys.argmin(axis=1)


def moead_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    weights = simplex_lattice_weights(params.population_size - 1)
    n_sub = len(weights)

    run = Search(prob, params, trace_hook)
    rng = run.rng

    scored = run.evaluate_many(initial_population(prob, n_sub, rng))
    order = np.argsort(scored.objectives[:, 0], kind="stable")  # by fog utilization
    genotypes, objectives, violation = (a[order] for a in scored)
    # the best value of each objective among feasible solutions; objectives lie in [0, 1]
    ideal = objectives[violation == 0].max(axis=0, initial=0.0)
    run.report(violation == 0)

    while run.left:
        k = min(n_sub, run.left)
        # each child's two distinct mates: the subproblems with its two smallest keys
        first, second = _two_smallest(rng.random((k, n_sub)))
        child = uniform_crossover(genotypes[first], genotypes[second], rng)
        children = reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
        brood = run.evaluate_many(children)
        holder, ideal = _replacement(weights, ideal, (objectives, violation), (brood.objectives, brood.total))
        won = np.flatnonzero(holder >= 0)
        winners = holder[won]
        for kept, offspring in zip((genotypes, objectives, violation), brood):
            kept[won] = offspring[winners]
        run.report(violation == 0)

    return run.archive
