"""NSGA-II over resource-assignment genotypes.

Binary tournament with the constrained crowded comparison, uniform
crossover and per-gene reset mutation.  A generation's offspring do not
depend on one another, so they are scored together in one batch.  An
external archive collects every non-dominated feasible solution seen
during the run.
"""

from __future__ import annotations

import numpy as np

from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Search,
    Solution,
    crowding_distance,
    fast_nondominated_sort,
    initial_population,
    make_solution,  # noqa: F401 - perfbench/selftest.py reads this binding
    reset_mutation,
    uniform_crossover,
)


def nsga2_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    pop_size = params.population_size
    run = Search(prob, params, trace_hook)
    rng = run.rng

    population = run.evaluate_many(initial_population(prob, pop_size, rng))
    population, standing = _environmental_selection(population, pop_size)
    run.report(population)

    while run.left:
        brood = min(pop_size, run.left)
        offspring_genomes = []
        while len(offspring_genomes) < brood:
            p1 = _tournament(population, standing, rng)
            p2 = _tournament(population, standing, rng)
            g1 = np.array(p1.genotype, dtype=np.int64)
            g2 = np.array(p2.genotype, dtype=np.int64)
            if rng.random() < params.crossover_prob:
                g1, g2 = uniform_crossover(g1, g2, rng)
            for child in (g1, g2):
                if len(offspring_genomes) < brood:
                    offspring_genomes.append(
                        reset_mutation(child, run.mutation_prob, prob.n_resources, rng)
                    )
        offspring = run.evaluate_many(offspring_genomes)
        population, standing = _environmental_selection(population + offspring, pop_size)
        run.report(population)

    return run.archive


def _tournament(population, standing, rng) -> Solution:
    """The lower (front, -crowding) wins, then the first drawn."""
    i, j = rng.integers(0, len(population), size=2)
    return population[j] if standing[j] < standing[i] else population[i]


def _environmental_selection(combined, pop_size):
    """The ``pop_size`` best of ``combined`` by the crowded comparison, and
    a parallel list of each one's (front, -crowding).

    Members rank by (front, -crowding, genotype), each crowding distance
    taken on its whole front (Deb et al., IEEE TEC 2002), so the result
    depends on the members' values and not on their order in ``combined``.
    """
    ranked = []
    for level, front in enumerate(fast_nondominated_sort(combined)):
        ranked.extend(((level, -d), s.genotype, s) for s, d in zip(front, crowding_distance(front)))
        if len(ranked) >= pop_size:
            break
    ranked.sort(key=lambda r: r[:2])
    del ranked[pop_size:]
    return [s for _, _, s in ranked], [key for key, _, _ in ranked]
