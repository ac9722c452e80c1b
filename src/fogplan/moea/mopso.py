"""Multiobjective PSO with a grid-based external archive.

The paper does not say how its MOPSO encodes a placement.  Resource ids
are labels, not quantities, so a particle here is a genotype of resource
ids, not a point in continuous space: moving it between the cloud (id 0)
and an FCM would otherwise land it on unrelated hosts in between.  Each
move draws every gene from the particle's current host, its personal
best's host or its guide's host, with probabilities in the ratio
inertia : cognitive : social (all zero keeps the particle still), then
applies a one-gene reset mutation.  The swarm moves synchronously
(Coello, Pulido & Lechuga, IEEE TEC 2004).  The grid of the archive's
objective-space hypercubes depends on its members alone, so it is
rebuilt only in a generation after the archive changed (its
``version`` moved); each generation then draws every guide's genotype
from its block of two-byte ids (an int64 block made ``scaled16`` runs
10% slower), by roulette favoring sparsely populated cells.  The swarm
moves as one block and is scored in one batch; then one integer key per
row compares each moved row with its personal best's, on their floats,
and masked copies put the winners in place.  The swarm takes each
scored block by reference; only a last, partial generation copies rows.
Its draws, in order, the same whether or not the grid was rebuilt: k
guide cells, as ``Generator.choice`` draws them, and a member of each;
one block of uniforms, one per gene held against the cumulative move
shares as ``Generator.choice`` sums them (none if all move weights are
0), then a mutation flag per particle; the mutants' genes, then their
new ids; one block of personal-best coins, one per row where neither
row dominates.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _Grid(NamedTuple):
    """The archive's objective-space hypercube grid, which depends on its
    members alone: only the occupied cells, in (row, column) order."""

    genotypes: np.ndarray  # (M, N) the members' genotypes, cell by cell, each cell's in member order
    starts: np.ndarray  # (C,) where each cell's members start
    sizes: np.ndarray  # (C,) members per cell
    cdf: np.ndarray  # (C,) the roulette's cdf, sparse cells favored, as Generator.choice sums it


def _grid(members: list[Solution], us: list[float], as_: list[float], divisions: int) -> _Grid:
    """The grid of ``members``, whose objectives are ``us`` and ``as_``
    (the archive's point lists, the i-th point members[i]'s)."""
    objs = np.array((us, as_)).T
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    # floats, not ints: any finite number of divisions gives finite cells
    cells = np.minimum(np.floor((objs - lo) / span * divisions), divisions - 1)
    by_cell = np.lexsort((cells[:, 1], cells[:, 0]))  # stable: each cell's members in order
    ordered = cells[by_cell]
    bounds = np.flatnonzero(np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1), [True])))
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]  # bounds: each cell's start, then the end
    p = 1.0 / sizes / (1.0 / sizes).sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # each genotype is an array('H'), so their joined bytes are the block
    block = np.frombuffer(b"".join([members[i].genotype for i in by_cell.tolist()]), dtype=np.uint16)
    return _Grid(block.reshape(len(members), -1), starts, sizes, cdf)


def _draw(grid: _Grid, rng: np.random.Generator, k: int) -> np.ndarray:
    """The (k, N) genotypes of k guides: k cells by roulette, as
    ``Generator.choice`` draws them, then a member of each."""
    picked = grid.cdf.searchsorted(rng.random(k), side="right")
    return grid.genotypes[grid.starts[picked] + rng.integers(0, grid.sizes[picked])]


def _improves(new: Scored, best: Scored, rng: np.random.Generator) -> np.ndarray:
    """Which rows of ``new`` take their personal best's place: those where
    ``constrained_dominates(new, best)``, and a coin where neither dominates."""
    # one key per row, > 0 where new dominates and 0 where neither does; the
    # totals are compared, not subtracted, since inf - inf is NaN
    lower = np.subtract(new.total < best.total, best.total < new.total, dtype=float)
    d = np.sign(new.objectives - best.objectives)
    key = np.where((new.total == 0) & (best.total == 0), d[:, 0] + d[:, 1], lower)
    wins, ties = key > 0, key == 0
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
    mutation_rate = params.mutation_rate if n else 0.0  # a row with no genes has none to mutate

    current = run.evaluate_many(initial_population(prob, swarm, rng))
    pbest = Scored(*(column.copy() for column in current))
    run.report(current.total == 0)

    archive, grid, grid_version = run.archive, None, -1
    while run.left:
        k = min(swarm, run.left)
        if grid_version != archive.version:
            grid_version = archive.version
            grid = _grid(archive.members, archive._us, archive._as, params.grid_divisions)
        guides = _draw(grid, rng, k)
        drawn = rng.random(k * n + k if moving else k)  # the genes' uniforms, then the mutation flags
        u = drawn[: k * n].reshape(k, n) if moving else 0.0
        moves = np.where(u < shares[0], current.genotypes[:k], np.where(u < shares[1], pbest.genotypes[:k], guides))
        mutants = np.flatnonzero(drawn[-k:] < mutation_rate)
        where = rng.integers(0, n, size=mutants.size)
        moves[mutants, where] = rng.integers(0, prob.n_resources, size=mutants.size)
        scored = run.evaluate_many(moves)
        best = pbest if k == swarm else Scored(*(column[:k] for column in pbest))
        won = _improves(scored, best, rng)
        for column, moved in zip(best, scored):
            np.copyto(column.T, moved.T, where=won)  # transposed, so won spans the rows
        if k < swarm:  # the last generation: its rows replace the first k
            scored = Scored(*(np.concatenate((moved, kept[k:])) for kept, moved in zip(current, scored)))
        current = scored  # a fresh block, so the swarm takes it by reference
        run.report(current.total == 0)

    return archive
