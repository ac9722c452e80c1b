"""NSGA-II over resource-assignment genotypes.

Binary tournament with the constrained crowded comparison, uniform
crossover and per-gene reset mutation.  A generation's k offspring do
not depend on one another, so they are bred as one block and scored in
one batch.  Its draws, in order: both entrants of 2·ceil(k/2)
tournaments, one crossover mask, one crossover flag per pair, one reset
mutation.  The population is kept as rows (genotypes, objectives, total
violation) in rank order, feasible fronts crowded by staircase point.
An external archive collects every non-dominated feasible solution.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ne

import numpy as np

from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Scored,
    Search,
    initial_population,
    make_solution,  # noqa: F401 - perfbench/selftest.py reads this binding
    nondominated_rows,
    reset_mutation,
    row_crowding,
    staircase_crowding,
    value_walks,
)


def nsga2_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    pop_size = params.population_size
    run = Search(prob, params, trace_hook)
    rng = run.rng

    population = run.evaluate_many(initial_population(prob, pop_size, rng))
    population, rank, _ = _environmental_selection(population, pop_size)
    run.report(population.total == 0)

    while run.left:
        k = min(pop_size, run.left)
        pairs = -(-k // 2)
        children = _children(*population.genotypes[_tournament(rank, (2, pairs), rng)], params.crossover_prob, rng)
        offspring = run.evaluate_many(reset_mutation(children[:k], run.mutation_prob, prob.n_resources, rng))
        combined = Scored(*map(np.concatenate, zip(population, offspring)))
        population, rank, _ = _environmental_selection(combined, pop_size)
        run.report(population.total == 0)

    return run.archive


def _tournament(rank: np.ndarray, size: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Winners of binary tournaments on ranks: the lower rank, then the first drawn."""
    i, j = rng.integers(0, len(rank), size=(2, *size))
    return np.where(rank[j] < rank[i], j, i)


def _children(p1: np.ndarray, p2: np.ndarray, crossover_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Each pair's two children in turn: draws a uniform gene mask, then one
    crossover flag per pair; a crossed pair swaps the genes its mask does not keep."""
    keep = rng.random(p1.shape) < 0.5
    d = (p1 - p2) * ((rng.random(len(p1)) < crossover_prob)[:, None] & ~keep)
    return np.concatenate((p1 - d, p2 + d), axis=1).reshape(2 * len(p1), -1)


def _environmental_selection(combined: Scored, pop_size: int) -> tuple[Scored, np.ndarray, list[tuple[int, float]]]:
    """The ``pop_size`` best rows of ``combined`` by the crowded
    comparison, in rank order; the dense rank of each one's (front,
    -crowding), and that (front, -crowding).

    Rows rank by (front, -crowding, genotype), each crowding distance
    taken on its whole front (Deb et al., IEEE TEC 2002), so the result
    depends on the rows' values and not on their order in ``combined``.
    A genotype compares as its big-endian two-byte ids, like their tuple.
    A feasible front is crowded by its staircase points, an infeasible
    one row by row; each front is then sorted stably by genotype and by
    crowding, so ties keep their order in the front.
    """
    u, a = combined.objectives.T.tolist()
    genotype = combined.genotypes.astype(">u2").view(f"V{2 * combined.genotypes.shape[1]}")[:, 0].tolist()
    dist = [0.0] * len(u)
    standing, kept = [], []
    for level, front in enumerate(nondominated_rows(*combined.objectives.T, combined.total)):
        if combined.total[front[0][0]]:
            rows = front[0]  # one or two rows are all ends, in either order
            row_crowding(dist, value_walks(rows, u, a, genotype) if len(rows) > 2 else (rows, rows), u, a)
        else:
            for group in front:
                if len(group) > 1:
                    group.sort(key=genotype.__getitem__)
            rows = [i for group in front for i in group]
            front.reverse()  # ascending u
            several = [j for j, group in enumerate(front) if len(group) > 1]
            first, last = staircase_crowding([u[g[0]] for g in front], [a[g[0]] for g in front], several)
            for group, df, dl in zip(front, first, last):
                dist[group[0]], dist[group[-1]] = df, dl
        rows.sort(key=genotype.__getitem__)
        rows.sort(key=dist.__getitem__, reverse=True)
        del rows[pop_size - len(kept):]
        standing += [(level, -dist[i]) for i in rows]
        kept += rows
        if len(kept) >= pop_size:
            break
    rank = np.fromiter(accumulate(map(ne, standing[1:], standing), initial=0), np.intp, len(standing))
    kept = np.array(kept)
    return Scored(*(column.take(kept, 0) for column in combined)), rank, standing
