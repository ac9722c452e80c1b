"""MOEA/D with Tchebycheff decomposition on a simplex-lattice of weights.

One subproblem per weight vector, each keeping the best solution under
its own weight (Zhang & Li, IEEE TEC 2007).  Mates are drawn from the
whole population, and every child is offered to every subproblem.
Feasibility rules take precedence over the scalarized value during
replacement.  The initial solutions, anchors included, are assigned to
subproblems in order of fog utilization, so the all-cloud anchor starts
at the availability-only weight and the fog-rich anchor at the fog-only
one.  The population is kept as arrays, one row per subproblem:
genotypes, objectives, feasibility and total violation, read straight
from the scored block.

Generations are synchronous: k subproblems breed one child each, as one
block, from the population at the generation's start.  Its draws, in
order: a (k, n_sub) block of keys, whose two smallest in a row pick two
distinct subproblems as that child's mates; one crossover mask; one
reset mutation.  The children are scored in one batch; the feasible
ones raise the ideal point, then, as if child by child in index order,
each child replaces the incumbents it beats.  With the ideal fixed for
the brood every key is fixed too, so each subproblem ends with the first
best of its incumbent and the children, in child order: one argmin.  An
external archive of non-dominated feasible solutions is returned.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadLattice
from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Search,
    initial_population,
    reset_mutation,
    uniform_crossover,
)


def simplex_lattice_weights(resolution: int) -> np.ndarray:
    """Two-objective simplex-lattice weight vectors (i/H, 1 - i/H)."""
    if resolution < 1:
        raise BadLattice(f"lattice resolution {resolution} < 1")
    steps = np.arange(resolution + 1) / resolution
    return np.column_stack([steps, 1.0 - steps])


def tchebycheff(objectives, weights, ideal) -> np.ndarray:
    """Scalarized distance to the ideal point (lower is better):
    max(w0·|i0 − o0|, w1·|i1 − o1|) over the last axis, broadcast
    elementwise over the others."""
    d = np.multiply(weights, np.abs(np.subtract(ideal, objectives)))
    return np.maximum(d[..., 0], d[..., 1])


def _replacement(weights, ideal, population, brood) -> tuple[np.ndarray, np.ndarray]:
    """The child that holds each subproblem after a brood's replacements
    (-1 where none does), and the ideal point raised by the brood.

    ``population`` and ``brood`` are (objectives, feasible, total
    violation) arrays; the brood is children 0..k-1, each offered to
    every subproblem.  A child beats an incumbent if only it is
    feasible, else if its key is lower: the total violation when both
    are infeasible, the Tchebycheff value when both are feasible.  Ties
    keep the incumbent, or the earlier child.
    """
    objectives, feasible, violation = population
    child_objectives, child_feasible, child_violation = brood
    n_sub = len(feasible)
    ideal = np.maximum(ideal, child_objectives[child_feasible].max(axis=0, initial=0.0))
    # column 0 is each subproblem's incumbent, column 1 + i child i
    key = np.column_stack([
        np.where(feasible, tchebycheff(objectives, weights, ideal), violation),
        np.where(child_feasible, tchebycheff(child_objectives, weights[:, None], ideal), child_violation),
    ])
    feasible = np.column_stack([feasible, np.tile(child_feasible, (n_sub, 1))])
    # a feasible candidate beats every infeasible one, so only the best feasibility present competes
    level = feasible.any(axis=1, keepdims=True)
    return np.where(feasible == level, key, np.inf).argmin(axis=1) - 1, ideal


def moead_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    weights = simplex_lattice_weights(params.population_size - 1)
    n_sub = len(weights)

    run = Search(prob, params, trace_hook)
    rng = run.rng

    scored = run.evaluate_many(np.array(initial_population(prob, n_sub, rng), dtype=np.int64))
    order = np.argsort(scored.objectives[:, 0], kind="stable")  # by fog utilization
    genotypes, objectives, feasible, violation = (
        a[order] for a in (scored.genotypes, scored.objectives, scored.feasible, scored.total)
    )
    # the best value of each objective among feasible solutions; objectives lie in [0, 1]
    ideal = objectives[feasible].max(axis=0, initial=0.0)
    run.report(feasible)

    while run.left:
        k = min(n_sub, run.left)
        # each child's two distinct mates: the subproblems with its two smallest keys
        mates = rng.random((k, n_sub)).argsort(axis=1)[:, :2]
        p1, p2 = genotypes[mates.T]
        child, _ = uniform_crossover(p1, p2, rng)
        children = reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
        brood = run.evaluate_many(children)
        holder, ideal = _replacement(
            weights, ideal, (objectives, feasible, violation),
            (brood.objectives, brood.feasible, brood.total),
        )
        won = np.flatnonzero(holder >= 0)
        for kept, offspring in zip(
            (genotypes, objectives, feasible, violation),
            (brood.genotypes, brood.objectives, brood.feasible, brood.total),
        ):
            kept[won] = offspring[holder[won]]
        run.report(feasible)

    return run.archive
