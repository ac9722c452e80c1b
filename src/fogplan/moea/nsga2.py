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
)


def nsga2_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    pop_size = params.population_size
    run = Search(prob, params, trace_hook)
    rng = run.rng

    population = run.evaluate_many(initial_population(prob, pop_size, rng))
    population, standing = _environmental_selection(population, pop_size)
    run.report(population.total == 0)

    while run.left:
        k = min(pop_size, run.left)
        pairs = -(-k // 2)
        p1, p2 = population.genotypes[_tournament(standing, (2, pairs), rng)]
        c1, c2 = uniform_crossover(p1, p2, rng)
        cross = (rng.random(pairs) < params.crossover_prob)[:, None]
        # children c1, c2 of each pair in turn
        children = np.stack([np.where(cross, c1, p1), np.where(cross, c2, p2)], axis=1).reshape(2 * pairs, -1)
        children = reset_mutation(children[:k], run.mutation_prob, prob.n_resources, rng)
        offspring = run.evaluate_many(children)
        combined = Scored(*map(np.concatenate, zip(population, offspring)))
        population, standing = _environmental_selection(combined, pop_size)
        run.report(population.total == 0)

    return run.archive


def _tournament(standing, size: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Winners of binary tournaments on sorted keys: the lower key, then the first drawn."""
    rank = np.cumsum([0] + [a != b for a, b in zip(standing, standing[1:])])  # dense
    i, j = rng.integers(0, len(rank), size=(2, *size))
    return np.where(rank[j] < rank[i], j, i)


def _environmental_selection(combined: Scored, pop_size: int) -> tuple[Scored, list[tuple[int, float]]]:
    """The ``pop_size`` best rows of ``combined`` by the crowded
    comparison, in rank order, and a parallel list of each one's
    (front, -crowding).

    Rows rank by (front, -crowding, genotype), each crowding distance
    taken on its whole front (Deb et al., IEEE TEC 2002), so the result
    depends on the rows' values and not on their order in ``combined``.
    A genotype compares as its big-endian two-byte ids, like their tuple.
    """
    u, a = combined.objectives.T.tolist()
    width, ids = 2 * combined.genotypes.shape[1], combined.genotypes.astype(">u2").tobytes()
    genotype = [ids[i * width:(i + 1) * width] for i in range(len(u))]
    ranked = []
    for level, front in enumerate(nondominated_rows(u, a, combined.total.tolist())):
        ranked.extend(((level, -d), genotype[i], i) for i, d in zip(front, row_crowding(front, u, a, genotype)))
        if len(ranked) >= pop_size:
            break
    ranked.sort(key=lambda r: r[:2])
    del ranked[pop_size:]
    rows = [i for _, _, i in ranked]
    return Scored(*(column[rows] for column in combined)), [key for key, _, _ in ranked]
