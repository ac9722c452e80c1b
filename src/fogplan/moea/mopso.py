"""Multiobjective PSO with a grid-based external archive.

The paper does not say how its MOPSO encodes a placement.  Resource ids
are labels, not quantities, so a particle here is a genotype of resource
ids, not a point in continuous space: moving it between the cloud (id 0)
and an FCM would otherwise land it on unrelated hosts in between.  Each
move draws every gene from the particle's current host, its personal
best's host or its guide's host, with probabilities in the ratio
inertia : cognitive : social (all zero keeps the particle still), then
applies a one-gene reset mutation.  The swarm moves synchronously
(Coello, Pulido & Lechuga, IEEE TEC 2004): one call per generation
builds a grid of the archive's objective-space hypercubes and draws
every guide's genotype from it, by roulette favoring sparsely populated
cells; the swarm moves as one block and is scored in one batch, and
only then are the personal bests updated, by one mask over the rows.
Swarm and personal bests are rows (genotypes, objectives, total
violation) updated in place, compared on their floats.  Its draws, in
order: k guide cells, a member of each; one uniform per gene, held
against the cumulative move shares as ``Generator.choice`` sums them
(none if all move weights are 0); a mutation flag per particle; the
mutants' genes, then their new ids; one block of personal-best coins,
one per row where neither row dominates.
"""

from __future__ import annotations

import numpy as np

from ..fsdp import ProblemInstance
from .common import (
    AlgoParams,
    ParetoArchive,
    Scored,
    Search,
    Solution,
    initial_population,
)


def _guides(members: list[Solution], divisions: int, rng: np.random.Generator, k: int) -> np.ndarray:
    """The (k, N) genotypes of k guides: k cells by roulette over the
    archive's hypercube cells, sparse cells favored, then a member of each."""
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
    picked = rng.choice(len(sizes), size=k, p=p)
    return np.array([members[i].genotype for i in by_cell[starts[picked] + rng.integers(0, sizes[picked])]])


def _improves(new: Scored, best: Scored, rng: np.random.Generator) -> np.ndarray:
    """Which rows of ``new`` take their personal best's place: those where
    ``constrained_dominates(new, best)``, and a coin where neither dominates."""
    x, y, feasible = new.objectives, best.objectives, (new.total == 0) & (best.total == 0)
    wins = np.where(feasible, (x >= y).all(axis=1) & (x > y).any(axis=1), new.total < best.total)
    ties = ~wins & ~np.where(feasible, (y >= x).all(axis=1) & (y > x).any(axis=1), best.total < new.total)
    wins[ties] = rng.random(np.count_nonzero(ties)) < 0.5
    return wins


def mopso_run(prob: ProblemInstance, params: AlgoParams, trace_hook=None) -> ParetoArchive:
    run = Search(prob, params, trace_hook)
    rng = run.rng
    n = prob.n_services
    swarm = params.population_size
    pull = np.array([params.inertia, params.cognitive, params.social], dtype=float)
    moving = pull.sum() > 0
    # Generator.choice's cdf of the weights: a gene's uniform below the first share
    # keeps its host, below the second takes its personal best's, else its guide's
    shares = (pull / pull.sum()).cumsum() if moving else np.ones(3)
    shares /= shares[-1]

    current = run.evaluate_many(initial_population(prob, swarm, rng))
    pbest = Scored(*(column.copy() for column in current))
    run.report(current.total == 0)

    while run.left:
        k = min(swarm, run.left)
        guides = _guides(run.archive.members, params.grid_divisions, rng, k)
        u = rng.random((k, n)) if moving else 0.0
        moves = np.where(u < shares[0], current.genotypes[:k], np.where(u < shares[1], pbest.genotypes[:k], guides))
        mutants = np.flatnonzero(rng.random(k) < params.mutation_rate)
        where = rng.integers(0, n, size=mutants.size)
        moves[mutants, where] = rng.integers(0, prob.n_resources, size=mutants.size)
        scored = run.evaluate_many(moves)
        won = _improves(scored, Scored(*(column[:k] for column in pbest)), rng)
        for kept, best, moved in zip(current, pbest, scored):
            kept[:k] = moved
            best[:k][won] = moved[won]
        run.report(current.total == 0)

    return run.archive
