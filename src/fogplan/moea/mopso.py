"""Multiobjective PSO with a grid-based external archive.

The paper does not say how its MOPSO encodes a placement.  Resource ids
are labels, not quantities, so a particle here is a genotype of resource
ids, not a point in continuous space: moving it between the cloud (id 0)
and an FCM would otherwise land it on unrelated hosts in between.  Each
move draws every gene from the particle's current host, its personal
best's host or its guide's host, with probabilities in the ratio
inertia : cognitive : social (all zero keeps the particle still), then
applies a one-gene reset mutation.  The swarm moves synchronously
(Coello, Pulido & Lechuga, IEEE TEC 2004): every particle draws its
guide from one grid of the archive's objective-space hypercubes, built
once per generation, by roulette favoring sparsely populated cells;
the whole swarm is scored in one batch, and only then are the personal
bests updated.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable

import numpy as np

from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Search,
    Solution,
    constrained_dominates,
    initial_population,
)


def _guide_grid(members: list[Solution], divisions: int) -> Callable[[np.random.Generator], Solution]:
    """The guide draw of one generation: roulette over the archive's
    hypercube cells, sparse cells favored, then a member of the cell."""
    if len(members) == 1:
        return lambda rng: members[0]
    objs = np.array([[m.objectives.fog_utilization, m.objectives.availability] for m in members])
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    # floats, not ints: any finite number of divisions gives finite cells
    cells = np.minimum(np.floor((objs - lo) / span * divisions), divisions - 1)
    # only the occupied cells, in (row, column) order, each with its members in order
    by_cell = defaultdict(list)
    for cell, member in zip(zip(*cells.T.tolist()), members):
        by_cell[cell].append(member)
    occupied = [by_cell[cell] for cell in sorted(by_cell)]
    weights = 1.0 / np.array([len(cell) for cell in occupied])
    p = weights / weights.sum()

    def draw(rng: np.random.Generator) -> Solution:
        cell = occupied[rng.choice(len(occupied), p=p)]
        return cell[rng.integers(0, len(cell))]

    return draw


def mopso_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    run = Search(prob, params, trace_hook)
    rng = run.rng
    n = prob.n_services
    swarm = params.population_size
    pull = np.array([params.inertia, params.cognitive, params.social], dtype=float)
    pull = pull / pull.sum() if pull.sum() > 0 else None

    current = run.evaluate_many(initial_population(prob, swarm, rng))
    pbest = list(current)
    run.report(current)

    while run.left:
        guide = _guide_grid(run.archive.members, params.grid_divisions)
        moves = []
        for i in range(min(swarm, run.left)):
            hosts = np.array([current[i].genotype, pbest[i].genotype, guide(rng).genotype], dtype=np.int64)
            child = hosts[0] if pull is None else hosts[rng.choice(3, size=n, p=pull), np.arange(n)]
            if rng.random() < params.mutation_rate:
                child[rng.integers(0, n)] = rng.integers(0, prob.n_resources)
            moves.append(child)
        for i, sol in enumerate(run.evaluate_many(moves)):
            current[i] = sol
            if constrained_dominates(sol, pbest[i]) or (
                not constrained_dominates(pbest[i], sol) and rng.random() < 0.5
            ):
                pbest[i] = sol
        run.report(current)

    return run.archive
