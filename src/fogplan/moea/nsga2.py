"""NSGA-II over resource-assignment genotypes.

Binary tournament with the constrained crowded comparison, uniform
crossover and per-gene reset mutation.  A generation's k offspring do
not depend on one another, so they are bred as one block and scored in
one batch.  Its draws, in order: both entrants of 2·ceil(k/2)
tournaments, one crossover mask, one crossover flag per pair, one reset
mutation.  The population is kept as rows (genotypes, objectives, total
violation) in rank order.  An external archive collects every
non-dominated feasible solution seen during the run.
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
    uniform_crossover,
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
        p1, p2 = population.genotypes[_tournament(rank, (2, pairs), rng)]
        c1, c2 = uniform_crossover(p1, p2, rng)
        cross = (rng.random(pairs) < params.crossover_prob)[:, None]
        # children c1, c2 of each pair in turn
        children = np.stack([np.where(cross, c1, p1), np.where(cross, c2, p2)], axis=1).reshape(2 * pairs, -1)
        children = reset_mutation(children[:k], run.mutation_prob, prob.n_resources, rng)
        offspring = run.evaluate_many(children)
        combined = Scored(*map(np.concatenate, zip(population, offspring)))
        population, rank, _ = _environmental_selection(combined, pop_size)
        run.report(population.total == 0)

    return run.archive


def _tournament(rank: np.ndarray, size: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Winners of binary tournaments on ranks: the lower rank, then the first drawn."""
    i, j = rng.integers(0, len(rank), size=(2, *size))
    return np.where(rank[j] < rank[i], j, i)


def _environmental_selection(combined: Scored, pop_size: int) -> tuple[Scored, np.ndarray, list[tuple[int, float]]]:
    """The ``pop_size`` best rows of ``combined`` by the crowded
    comparison, in rank order; the dense rank of each one's (front,
    -crowding), and that (front, -crowding).

    Rows rank by (front, -crowding, genotype), each crowding distance
    taken on its whole front (Deb et al., IEEE TEC 2002), so the result
    depends on the rows' values and not on their order in ``combined``.
    A genotype compares as its big-endian two-byte ids, like their tuple.
    A feasible front is a staircase of point groups, so its walks in
    ascending u and a are its groups backwards and forwards, each
    group's rows ordered by genotype: only an infeasible front is sorted.
    """
    u, a = combined.objectives.T.tolist()
    total = combined.total.tolist()
    genotype = combined.genotypes.astype(">u2").view(f"V{2 * combined.genotypes.shape[1]}")[:, 0].tolist()
    dist = [0.0] * len(u)
    # (front, -crowding, genotype, position in the front, row): equal keys keep front order
    ranked = []
    for level, front in enumerate(nondominated_rows(u, a, total)):
        if total[front[0][0]]:
            rows = [i for group in front for i in group]
            walks = value_walks(rows, u, a, genotype)
        else:
            for group in front:
                group.sort(key=genotype.__getitem__)
            rows = [i for group in front for i in group]
            walks = [i for group in reversed(front) for i in group], rows
        row_crowding(dist, walks, u, a)
        ranked.extend((level, -dist[i], genotype[i], p, i) for p, i in enumerate(rows))
        if len(ranked) >= pop_size:
            break
    ranked.sort()
    del ranked[pop_size:]
    standing = [r[:2] for r in ranked]
    rank = np.fromiter(accumulate(map(ne, standing[1:], standing), initial=0), np.intp, len(standing))
    kept = np.array([r[4] for r in ranked])
    return Scored(*(column[kept] for column in combined)), rank, standing
