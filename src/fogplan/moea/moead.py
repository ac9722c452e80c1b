"""MOEA/D with Tchebycheff decomposition on a simplex-lattice of weights.

One subproblem per weight vector; mating and replacement happen inside
fixed-size neighborhoods of closest weight vectors (Zhang & Li, IEEE
TEC 2007).  Feasibility rules take precedence over the scalarized value
during replacement.  The initial solutions, anchors included, are
assigned to subproblems in order of fog utilization, so the all-cloud
anchor starts at the availability-only weight and the fog-rich anchor
at the fog-only one.  Generations are synchronous: k subproblems breed
one child each, as one block, from the population at the generation's
start.  Its draws, in order: a (k, T) block of keys, whose two smallest
in a row pick that subproblem's mates; one crossover mask; one reset
mutation.  The children are scored in one batch, then each, in
subproblem order, updates the ideal point and replaces the neighbours
it beats.  An external archive of non-dominated feasible solutions is
returned.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadLattice
from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Search,
    Solution,
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


def tchebycheff(objectives, weights, ideal) -> float:
    """Scalarized distance to the ideal point (lower is better).

    Plain float arithmetic: MOEA/D calls this twice for each neighbour
    of every child, on two-element sequences.
    """
    return max(w * abs(i - o) for w, i, o in zip(weights, ideal, objectives))


def _better(child: Solution, incumbent: Solution, weights, ideal) -> bool:
    if child.feasible != incumbent.feasible:
        return child.feasible
    if not child.feasible:
        return child.total_violation < incumbent.total_violation
    return tchebycheff(child.objectives.as_tuple(), weights, ideal) < tchebycheff(
        incumbent.objectives.as_tuple(), weights, ideal
    )


def moead_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    weights = simplex_lattice_weights(params.population_size - 1)
    n_sub = len(weights)

    run = Search(prob, params, trace_hook)
    rng = run.rng
    dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :], axis=2)
    neighborhoods = np.argsort(dist, axis=1, kind="stable")[:, :params.neighborhood_size]
    weight_rows = weights.tolist()

    population = sorted(
        run.evaluate_many(initial_population(prob, n_sub, rng)),
        key=lambda s: s.objectives.fog_utilization,
    )
    # the best value of each objective among feasible solutions, or
    # among all of them until one is feasible
    anchor = [s for s in population if s.feasible] or population
    ideal = [max(values) for values in zip(*(s.objectives.as_tuple() for s in anchor))]
    run.report(population)

    while run.left:
        k = min(n_sub, run.left)
        # the neighbours with the two smallest keys mate; with T = 1, the one with itself
        picks = rng.random(neighborhoods[:k].shape).argsort(axis=1)[:, :2]
        mates = np.take_along_axis(neighborhoods[:k], picks, axis=1)[:, [0, -1]]
        p1, p2 = np.array([s.genotype for s in population], dtype=np.int64)[mates.T]
        child, _ = uniform_crossover(p1, p2, rng)
        children = reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
        for i, sol in enumerate(run.evaluate_many(children)):
            if sol.feasible:
                ideal = [max(best, got) for best, got in zip(ideal, sol.objectives.as_tuple())]
            for j in neighborhoods[i]:
                if _better(sol, population[j], weight_rows[j], ideal):
                    population[j] = sol
        run.report(population)

    return run.archive
