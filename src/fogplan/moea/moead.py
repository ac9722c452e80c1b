"""MOEA/D with Tchebycheff decomposition on a simplex-lattice of weights.

One subproblem per weight vector; mating and replacement happen inside
neighborhoods of the ``min(neighborhood_size, population_size)`` closest
weight vectors (Zhang & Li, IEEE TEC 2007).  Feasibility rules take
precedence over the scalarized value during replacement.  The initial
solutions, anchors included, are assigned to subproblems in order of fog
utilization, so the all-cloud anchor starts at the availability-only
weight and the fog-rich anchor at the fog-only one.  The population is
kept as arrays, one row per subproblem: genotypes, objectives,
feasibility and total violation.

Generations are synchronous: k subproblems breed one child each, as one
block, from the population at the generation's start.  Its draws, in
order: a (k, T) block of keys, whose two smallest in a row pick that
subproblem's mates; one crossover mask; one reset mutation.  The
children are scored in one batch, then, as if child by child in index
order, each feasible child raises the ideal point and each child
replaces the neighbours it beats.

That replacement is one fold of R steps, each vectorized over all
subproblems: step r offers every subproblem the r-th child whose
neighbourhood holds it, in child order, and compares it with the
incumbent under that child's ideal point (the ideal at the generation's
start raised by the feasible children up to it, one running maximum).
It is exact: a subproblem's history depends only on those children, in
that order, and on the ideal each sees, and every comparison is the same
float arithmetic as in a per-child loop.  An external archive of
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


def _candidate_table(neighborhoods: np.ndarray) -> np.ndarray:
    """For each subproblem, the children whose neighbourhood holds it, in
    child order: an (n_sub, R) table, R the largest in-degree, padded with
    n_sub."""
    n_sub, size = neighborhoods.shape
    listed = neighborhoods.ravel()  # child i's neighbours at [i * size, (i + 1) * size)
    order = np.argsort(listed, kind="stable")
    counts = np.bincount(listed, minlength=n_sub)
    rank = np.arange(listed.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((n_sub, counts.max()), n_sub)
    table[listed[order], rank] = order // size
    return table


def _replacement_fold(table, weights, ideal, population, brood) -> tuple[np.ndarray, np.ndarray]:
    """The child that holds each subproblem after a brood's replacements
    (-1 where none does), and the ideal point after the brood.

    ``population`` and ``brood`` are (objectives, feasible, total
    violation) arrays; the brood is children 0..k-1, so table entries of
    k and above are no candidates.  A child beats an incumbent if only it
    is feasible, else if its key is lower: the total violation when both
    are infeasible, the Tchebycheff value under the child's ideal point
    when both are feasible.
    """
    objectives, feasible, violation = population
    child_objectives, child_feasible, child_violation = brood
    k = len(child_feasible)
    # the ideal point each child sees: raised by the feasible children up to it
    seen = np.where(child_feasible[:, None], child_objectives, -np.inf)
    ideals = np.maximum(ideal, np.maximum.accumulate(seen, axis=0))
    # one row per step: the r-th candidate of every subproblem
    steps = table.T
    offered = steps < k
    cand = np.where(offered, steps, 0)
    cand_ideal, cand_objectives = ideals[cand], child_objectives[cand]
    cand_feasible = child_feasible[cand] & offered
    # a table entry past the brood is infeasible with infinite violation: it never wins
    cand_violation = np.where(offered, child_violation[cand], np.inf)
    cand_key = np.where(cand_feasible, tchebycheff(cand_objectives, weights, cand_ideal), cand_violation)
    holder = np.full(len(table), -1)
    for r, c in enumerate(cand):
        f = cand_feasible[r]
        incumbent_key = np.where(feasible, tchebycheff(objectives, weights, cand_ideal[r]), violation)
        better = np.where(f == feasible, cand_key[r] < incumbent_key, f)
        objectives = np.where(better[:, None], cand_objectives[r], objectives)
        feasible = np.where(better, f, feasible)
        violation = np.where(better, cand_violation[r], violation)
        holder = np.where(better, c, holder)
    return holder, ideals[-1]


def _columns(solutions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(objectives, feasible, total violation) arrays of scored solutions."""
    return (
        np.array([s.objectives.as_tuple() for s in solutions]),
        np.array([s.feasible for s in solutions]),
        np.array([s.total_violation for s in solutions]),
    )


def moead_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    weights = simplex_lattice_weights(params.population_size - 1)
    n_sub = len(weights)

    run = Search(prob, params, trace_hook)
    rng = run.rng
    dist = np.linalg.norm(weights[:, None, :] - weights[None, :, :], axis=2)
    neighborhoods = np.argsort(dist, axis=1, kind="stable")[:, :params.neighborhood_size]
    table = _candidate_table(neighborhoods)

    genotypes = np.array(initial_population(prob, n_sub, rng), dtype=np.int64)
    scores = _columns(run.evaluate_many(genotypes))
    order = np.argsort(scores[0][:, 0], kind="stable")  # by fog utilization
    genotypes = genotypes[order]
    objectives, feasible, violation = (a[order] for a in scores)
    # the best value of each objective among feasible solutions, or
    # among all of them until one is feasible
    ideal = objectives[feasible].max(axis=0) if feasible.any() else objectives.max(axis=0)
    run.report(feasible)

    while run.left:
        k = min(n_sub, run.left)
        # the neighbours with the two smallest keys mate; with T = 1, the one with itself
        picks = rng.random(neighborhoods[:k].shape).argsort(axis=1)[:, :2]
        mates = np.take_along_axis(neighborhoods[:k], picks, axis=1)[:, [0, -1]]
        p1, p2 = genotypes[mates.T]
        child, _ = uniform_crossover(p1, p2, rng)
        children = reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
        brood = _columns(run.evaluate_many(children))
        holder, ideal = _replacement_fold(table, weights, ideal, (objectives, feasible, violation), brood)
        won = np.flatnonzero(holder >= 0)
        for kept, offspring in zip((genotypes, objectives, feasible, violation), (children, *brood)):
            kept[won] = offspring[holder[won]]
        run.report(feasible)

    return run.archive
