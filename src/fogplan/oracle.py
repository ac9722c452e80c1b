"""Brute-force references: exhaustive Pareto fronts and a queue simulator.

These are deliberately independent of the optimizers and of the
closed-form queueing formula so they can serve as correctness oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Saturated, SearchSpaceTooLarge
from .fsdp import ProblemInstance
from .moea.common import Solution, score_block
from .moea.common import make_solution  # noqa: F401 - perfbench/tracer.py patches this binding

#: assignments scored per ``evaluate_many`` call in ``exact_pareto``:
#: all 4**6 of a six-service, four-host instance, and a few MB of
#: arrays at the 10**6 cap
ENUMERATION_CHUNK = 4096


@dataclass(frozen=True)
class ExactFront:
    solutions: tuple[Solution, ...]
    search_space_size: int

    def objective_set(self) -> set[tuple[float, float]]:
        return {s.objectives.as_tuple() for s in self.solutions}


def exact_pareto(prob: ProblemInstance, cap: int = 10**6) -> ExactFront:
    """Exact Pareto front of all feasible assignments by enumeration.

    Assignments come in ``itertools.product`` order, scored in chunks
    as arrays.  Each chunk's feasible rows join the front carried over
    from earlier chunks, and one ``_nondominated`` mask over both keeps
    the points that no other dominates, equal points all kept, in
    product order.  A Solution is built only for a row the mask keeps.
    """
    r, n = prob.n_resources, prob.n_services
    size = r ** n
    if size > cap:
        raise SearchSpaceTooLarge(f"{size} assignments exceed cap {cap}")
    # assignment i holds the n digits of i in base r, the last varying fastest
    place = r ** np.arange(n - 1, -1, -1)
    front: list[Solution] = []
    points = np.empty((0, 2))  # (u, a) of each front member
    for start in range(0, size, ENUMERATION_CHUNK):
        block = np.arange(start, min(start + ENUMERATION_CHUNK, size))[:, None] // place % r
        scored = score_block(block, prob)
        rows = np.flatnonzero(scored.total == 0)
        points = np.concatenate((points, scored.objectives[rows]))
        keep = _nondominated(points[:, 0], points[:, 1])
        carried, joined = keep[:len(front)].tolist(), rows[keep[len(front):]].tolist()
        front = [sol for sol, kept in zip(front, carried) if kept] + [scored.solution(i) for i in joined]
        points = points[keep]
    return ExactFront(solutions=tuple(front), search_space_size=size)


def _nondominated(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Mask of the points (u[i], a[i]) that no other point dominates.

    In descending (u, a) order a point is dominated by one with larger u
    and no less a, so by the running maximum of a before its u group, or
    by one with its u and larger a, the first of its group.
    """
    order = np.lexsort((-a, -u))
    u, a = u[order], a[order]
    first = np.searchsorted(-u, -u)  # the first row of each row's u group
    above = np.concatenate(([-np.inf], np.maximum.accumulate(a)))[first]
    keep = np.empty(len(order), dtype=bool)
    keep[order] = (a == a[first]) & (a > above)
    return keep


def md1_simulate(arrival_rate: float, service_time: float, jobs: int = 10**6, seed: int = 0) -> float:
    """Mean sojourn time of an M/D/1 queue by discrete-event simulation.

    Exponential interarrivals, deterministic service, FIFO; the first
    10% of jobs are discarded as warm-up.
    """
    if not (0.0 < arrival_rate < math.inf and 0.0 < service_time < math.inf):
        raise ValueError("arrival rate and service time must be finite and > 0")
    if not isinstance(jobs, (int, np.integer)) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an integer, not {jobs!r}")
    if arrival_rate * service_time >= 1.0:
        raise Saturated(f"utilization {arrival_rate * service_time} >= 1")
    if jobs < 10**5:
        raise ValueError("need at least 1e5 jobs for a stable estimate")
    rng = np.random.default_rng(seed)
    inter = rng.exponential(1.0 / arrival_rate, size=jobs)
    # Lindley recursion w_i = max(0, w_{i-1} + D - t_i), vectorized via
    # running-minimum of the prefix sums of (D - t_i).
    steps = service_time - inter
    prefix = np.concatenate([[0.0], np.cumsum(steps)])
    waits = prefix[1:] - np.minimum.accumulate(prefix[:-1])
    waits = np.maximum(waits, 0.0)
    warm = jobs // 10
    return float(waits[warm:].mean() + service_time)
