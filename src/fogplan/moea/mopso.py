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
the swarm moves as one block and is scored in one batch, and only then
are the personal bests updated.  Swarm and personal bests are rows
(genotypes, objectives, total violation) updated in place, compared on
their floats.  Its draws, in order: k guide cells,
a member of each; each gene's source (unless all move weights are 0);
a mutation flag per particle; the mutants' genes, then their new ids;
the personal-best coin flips.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Scored,
    Search,
    Solution,
    dominates,
    initial_population,
)


def _guide_grid(members: list[Solution], divisions: int) -> Callable[[np.random.Generator, int], list[Solution]]:
    """The guide draw of one generation: ``draw(rng, k)`` picks k cells by
    roulette over the archive's hypercube cells, sparse cells favored,
    then a member of each."""
    objs = np.array([[m.objectives.fog_utilization, m.objectives.availability] for m in members])
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    # floats, not ints: any finite number of divisions gives finite cells
    cells = np.minimum(np.floor((objs - lo) / span * divisions), divisions - 1)
    # only the occupied cells, in (row, column) order: each member's cell, each cell's size;
    # a (row, column) pair read as one complex number sorts the same way, and a 1-D unique
    # is about 3x faster than one over axis 0
    _, cell_of, sizes = np.unique(cells.view(np.complex128).ravel(), return_inverse=True, return_counts=True)
    p = 1.0 / sizes / (1.0 / sizes).sum()
    # the members cell by cell, each cell's in order, and where each cell starts
    by_cell, starts = np.argsort(cell_of, kind="stable"), np.cumsum(sizes) - sizes

    def draw(rng: np.random.Generator, k: int) -> list[Solution]:
        picked = rng.choice(len(sizes), size=k, p=p)
        return [members[i] for i in by_cell[starts[picked] + rng.integers(0, sizes[picked])]]

    return draw


def _contest(u: float, a: float, total: float, bu: float, ba: float, best_total: float) -> tuple[bool, bool]:
    """(wins, loses) of a new row against a personal best: ``constrained_dominates`` both ways, on floats."""
    if total != best_total or total:
        return total < best_total, best_total < total
    return dominates(u, a, bu, ba), dominates(bu, ba, u, a)


def mopso_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    run = Search(prob, params, trace_hook)
    rng = run.rng
    n = prob.n_services
    swarm = params.population_size
    pull = np.array([params.inertia, params.cognitive, params.social], dtype=float)
    pull = pull / pull.sum() if pull.sum() > 0 else None

    current = run.evaluate_many(initial_population(prob, swarm, rng))
    pbest = Scored(*(column.copy() for column in current))
    run.report(current.total == 0)

    while run.left:
        k = min(swarm, run.left)
        guides = _guide_grid(run.archive.members, params.grid_divisions)(rng, k)
        hosts = np.stack([current.genotypes[:k], pbest.genotypes[:k], np.array([s.genotype for s in guides])])
        source = 0 if pull is None else rng.choice(3, size=(k, n), p=pull)
        moves = hosts[source, np.arange(k)[:, None], np.arange(n)]
        mutants = np.flatnonzero(rng.random(k) < params.mutation_rate)
        where = rng.integers(0, n, size=mutants.size)
        moves[mutants, where] = rng.integers(0, prob.n_resources, size=mutants.size)
        scored = run.evaluate_many(moves)
        won = []
        rows = zip(scored.objectives.tolist(), scored.total.tolist(), pbest.objectives.tolist(), pbest.total.tolist())
        for i, ((u, a), total, (bu, ba), best_total) in enumerate(rows):
            wins, loses = _contest(u, a, total, bu, ba, best_total)
            if wins or (not loses and rng.random() < 0.5):
                won.append(i)
        for kept, best, moved in zip(current, pbest, scored):
            kept[:k] = moved
            best[won] = moved[won]
        run.report(current.total == 0)

    return run.archive
