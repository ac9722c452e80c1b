"""Multiobjective PSO with a grid-based external archive.

The paper does not say how its MOPSO encodes a placement.  Resource ids
are labels, not quantities, so a particle here is a genotype of resource
ids, not a point in continuous space: moving it between the cloud (id 0)
and an FCM would otherwise land it on unrelated hosts in between.  Each
move draws every gene from the particle's current host, its personal
best's host or its guide's host, with probabilities in the ratio
inertia : cognitive : social (all zero keeps the particle still), then
applies a one-gene reset mutation.  Global guides are drawn from the
archive by roulette over objective-space hypercubes, favoring sparsely
populated cells (Coello, Pulido & Lechuga, IEEE TEC 2004).
"""

from __future__ import annotations

from collections import Counter

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


def _grid_select(members: list[Solution], divisions: int, rng: np.random.Generator) -> Solution:
    """Pick a guide by roulette over hypercube cells, sparse cells favored."""
    if len(members) == 1:
        return members[0]
    objs = np.array([[m.objectives.fog_utilization, m.objectives.availability] for m in members])
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    # floats, not ints: any finite number of divisions gives finite cells
    cells = np.minimum(np.floor((objs - lo) / span * divisions), divisions - 1)
    keys = list(zip(*cells.T.tolist()))
    # only the occupied cells, in (row, column) order
    counts = Counter(keys)
    occupied = sorted(counts)
    weights = 1.0 / np.array([counts[cell] for cell in occupied])
    pick = occupied[rng.choice(len(occupied), p=weights / weights.sum())]
    candidates = [i for i, cell in enumerate(keys) if cell == pick]
    return members[candidates[rng.integers(0, len(candidates))]]


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
        for i in range(swarm):
            if not run.left:
                break
            guide = _grid_select(run.archive.members, params.grid_divisions, rng)
            hosts = np.array([current[i].genotype, pbest[i].genotype, guide.genotype], dtype=np.int64)
            if pull is None:
                child = hosts[0]
            else:
                child = hosts[rng.choice(3, size=n, p=pull), np.arange(n)]
            if rng.random() < params.mutation_rate:
                child[rng.integers(0, n)] = rng.integers(0, prob.n_resources)
            sol = run.evaluate(child)
            current[i] = sol
            if constrained_dominates(sol, pbest[i]) or (
                not constrained_dominates(pbest[i], sol) and rng.random() < 0.5
            ):
                pbest[i] = sol
        run.report(current)

    return run.archive
