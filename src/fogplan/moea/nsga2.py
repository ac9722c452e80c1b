"""NSGA-II over resource-assignment genotypes.

Binary tournament with the constrained crowded comparison, uniform
crossover and per-gene reset mutation.  An external archive collects
every non-dominated feasible solution seen during the run.
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
    run = Search(prob, params, trace_hook, archive_capacity=max(params.archive_capacity, pop_size))
    rng = run.rng

    population = [run.evaluate(g) for g in initial_population(prob, pop_size, rng)]
    _, standing = _environmental_selection(population, pop_size)
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
        offspring = [run.evaluate(g) for g in offspring_genomes]
        population, standing = _environmental_selection(population + offspring, pop_size)
        run.report(population)

    return run.archive


def _tournament(population, standing, rng) -> Solution:
    """The lower front wins, then the larger crowding distance, then ``a``."""
    i, j = rng.integers(0, len(population), size=2)
    a, b = population[i], population[j]
    return b if standing[id(b)] < standing[id(a)] else a


def _environmental_selection(combined, pop_size):
    """The ``pop_size`` best of ``combined``, and each one's (front, -crowding).

    One sort serves both: every front but the last one reached is kept
    whole, so its members keep the front index and crowding distance of
    that sort.  The last front is cut to its least crowded members, whose
    distances are then taken among themselves.
    """
    survivors, standing = [], {}
    for level, front in enumerate(fast_nondominated_sort(combined)):
        distances = crowding_distance(front)
        need = pop_size - len(survivors)
        if len(front) > need:
            order = sorted(
                range(len(front)), key=lambda i: (-distances[i], front[i].genotype)
            )
            front = [front[i] for i in order[:need]]
            distances = crowding_distance(front)
        survivors.extend(front)
        standing.update((id(s), (level, -d)) for s, d in zip(front, distances))
        if len(survivors) == pop_size:
            break
    return survivors, standing
