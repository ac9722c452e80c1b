"""MOEA/D with Tchebycheff decomposition on a simplex-lattice of weights.

One subproblem per weight vector; mating and replacement happen inside
neighborhoods of the ``min(neighborhood_size, population_size)`` closest
weight vectors (Zhang & Li, IEEE TEC 2007).  Feasibility rules take
precedence over the scalarized value during replacement.  The initial
solutions, anchors included, are assigned to subproblems in order of fog
utilization, so the all-cloud anchor starts at the availability-only
weight and the fog-rich anchor at the fog-only one.  The population is
kept as arrays, one row per subproblem: genotypes, objectives,
feasibility and total violation, read straight from the scored block.

Generations are synchronous: k subproblems breed one child each, as one
block, from the population at the generation's start.  Its draws, in
order: a (k, T) block of keys, whose two smallest in a row pick that
subproblem's mates; one crossover mask; one reset mutation.  The
children are scored in one batch; the feasible ones raise the ideal
point, then, as if child by child in index order, each child replaces
the neighbours it beats.  With the ideal fixed for the brood every key
is fixed too, so each subproblem ends with the first best of its
incumbent and the children whose neighbourhood holds it, in child
order: one masked argmin.  An external archive of non-dominated
feasible solutions is returned.
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


def _replacement(neighborhoods, weights, ideal, population, brood) -> tuple[np.ndarray, np.ndarray]:
    """The child that holds each subproblem after a brood's replacements
    (-1 where none does), and the ideal point raised by the brood.

    ``population`` and ``brood`` are (objectives, feasible, total
    violation) arrays; the brood is children 0..k-1, child i offered to
    the subproblems in ``neighborhoods[i]``.  A child beats an incumbent
    if only it is feasible, else if its key is lower: the total
    violation when both are infeasible, the Tchebycheff value when both
    are feasible.  Ties keep the incumbent, or the earlier child.
    """
    objectives, feasible, violation = population
    child_objectives, child_feasible, child_violation = brood
    n_sub, k = len(feasible), len(child_feasible)
    ideal = np.maximum(ideal, child_objectives[child_feasible].max(axis=0, initial=0.0))
    # column 0 is each subproblem's incumbent, column 1 + i child i
    key = np.column_stack([
        np.where(feasible, tchebycheff(objectives, weights, ideal), violation),
        np.where(child_feasible, tchebycheff(child_objectives, weights[:, None], ideal), child_violation),
    ])
    feasible = np.column_stack([feasible, np.tile(child_feasible, (n_sub, 1))])
    offered = np.zeros_like(feasible)
    offered[:, 0] = True
    offered[neighborhoods[:k], np.arange(1, k + 1)[:, None]] = True
    # a feasible candidate beats every infeasible one, so only the best feasibility offered competes
    level = (offered & feasible).any(axis=1, keepdims=True)
    return np.where(offered & (feasible == level), key, np.inf).argmin(axis=1) - 1, ideal


def moead_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    weights = simplex_lattice_weights(params.population_size - 1)
    n_sub = len(weights)

    run = Search(prob, params, trace_hook)
    rng = run.rng
    dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :], axis=2)
    neighborhoods = np.argsort(dist, axis=1, kind="stable")[:, :params.neighborhood_size]

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
        # the neighbours with the two smallest keys mate; with T = 1, the one with itself
        picks = rng.random(neighborhoods[:k].shape).argsort(axis=1)[:, :2]
        mates = np.take_along_axis(neighborhoods[:k], picks, axis=1)[:, [0, -1]]
        p1, p2 = genotypes[mates.T]
        child, _ = uniform_crossover(p1, p2, rng)
        children = reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
        brood = run.evaluate_many(children)
        holder, ideal = _replacement(
            neighborhoods, weights, ideal, (objectives, feasible, violation),
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
