"""Bi-objective deployment model: objectives, constraints, evaluation.

A deployment assigns every service instance to one concrete resource.
The two maximized objectives are the fraction of services hosted on fog
resources and a normalized per-application availability score.
Constraint handling produces a non-negative violation vector (capacity
overshoot per hardware kind plus deadline overshoot) that is all-zero
exactly for feasible deployments.  ``evaluate_many`` scores a block of
deployments into two arrays, one row per deployment, with no per-row
object; ``evaluate`` is one row of it as an ``ObjectiveVector`` and a
``ViolationVector``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from . import timing
from .errors import LengthMismatch
from .model import (
    Application,
    Landscape,
    ResourceKind,
    latency_matrix,
    service_levels,
)

#: deadline_excess contributed by each application whose critical path
#: touches a saturated queue (utilization >= 1).  Large but finite so
#: saturated deployments stay comparable for the optimizer.
SATURATION_PENALTY = 10.0

#: the most resources a landscape may have: the dense R x R float64
#: latency matrix then takes 128 MiB (65536 resources would take 32 GiB)
MAX_RESOURCES = 4096

#: the largest L * m (L the lcm of the app sizes, m the number of apps)
#: whose availability ratio float64 divides exactly: 2**53
MAX_AVAILABILITY_SCALE = 2**53


@dataclass(frozen=True, slots=True)
class ObjectiveVector:
    fog_utilization: float
    availability: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.fog_utilization, self.availability)


@dataclass(frozen=True, slots=True)
class ViolationVector:
    cpu_excess: float
    ram_excess: float
    storage_excess: float
    deadline_excess: float

    def total(self) -> float:
        return self.cpu_excess + self.ram_excess + self.storage_excess + self.deadline_excess


class ProblemInstance:
    """Immutable problem description with precomputed evaluation arrays."""

    def __init__(self, landscape: Landscape, apps: list[Application], reserve_fraction: float = 0.1):
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must lie in [0, 1)")
        self.landscape = landscape
        self.apps = tuple(apps)
        self.reserve_fraction = reserve_fraction
        # response times and the deadline CSV are keyed by app id
        repeated = sorted(i for i, k in Counter(app.id for app in self.apps).items() if k > 1)
        if repeated:
            raise ValueError(f"app ids {repeated} repeat")

        res = landscape.resources
        self.n_resources = len(res)
        if self.n_resources > MAX_RESOURCES:
            raise ValueError(f"{self.n_resources} resources exceed MAX_RESOURCES = {MAX_RESOURCES}")
        resource_rows = np.array([
            [r.cpu_capacity for r in res],
            [r.ram_capacity for r in res],
            [r.storage_capacity for r in res],
            [r.up_probability for r in res],
        ])
        self.cpu_capacity, self.ram_capacity, self.storage_capacity, self.up_probability = (
            resource_rows
        )
        self.is_fog = np.array([r.kind is not ResourceKind.CLOUD for r in res])
        self.latency_s = latency_matrix(landscape) / 1000.0

        # rows cpu, ram, storage
        self.effective_capacity = (1.0 - reserve_fraction) * resource_rows[:3]
        self.effective_cpu, self.effective_ram, self.effective_storage = self.effective_capacity
        self.capacity_total = self.effective_capacity.sum(axis=1)

        sizes = [len(app.services) for app in self.apps]
        offsets = list(accumulate(sizes, initial=0))
        self.n_services = offsets[-1]
        preds, by_level = [[] for _ in range(self.n_services)], {}
        for offset, app in zip(offsets, self.apps):
            for v, level in enumerate(service_levels(app), offset):
                if level:
                    by_level.setdefault(level, []).append(v)
            for u, v in app.edges:
                preds[offset + v].append(offset + u)
        self.app_deadline = np.array([app.deadline for app in self.apps])
        services = [
            (svc.workload_cpu, svc.ram_req, svc.storage_req, app.request_rate, svc.availability_req)
            for app in self.apps for svc in app.services
        ]
        # one C-contiguous row per column, five even with no service; fromiter
        # reads the floats flat faster than np.array reads the tuples
        service_rows = np.fromiter(chain.from_iterable(services), float).reshape(-1, 5).T.copy()
        # resource_loads sums the first four rows per resource
        self._load_weights = service_rows[:4]
        self.service_cpu, self.service_ram, self.service_storage, self.service_rate = (
            self._load_weights
        )
        self.service_avail_req = service_rows[4]

        # availability as one integer count ratio: a met service of an app
        # with k services weighs L / k, L the lcm of the app sizes, so the
        # objective is (sum of met weights) / (L * m) with a single division.
        # Its float64 division is the exact ratio's correctly rounded float
        # only while both integers are exact floats, L * m <= 2**53
        self.availability_lcm = math.lcm(*sizes)
        if self.availability_lcm * len(sizes) > MAX_AVAILABILITY_SCALE:
            raise ValueError(
                f"L * m = {self.availability_lcm * len(sizes)} (L the lcm of the app sizes, "
                f"m the number of apps) exceeds MAX_AVAILABILITY_SCALE = 2**53"
            )
        self.service_avail_weight = np.array(
            [self.availability_lcm // k for k in sizes for _ in range(k)], dtype=np.int64
        )

        # critical-path DP by global topological level: per level, its k
        # services, a (fan-in, k) table of their predecessors (a service with
        # fewer in-edges repeats its first; a max ignores repeats) and the
        # slice of level_links holding the same links row by row
        src, dst, self.level_steps = [], [], []
        for level in range(1, len(by_level) + 1):
            nodes = by_level[level]
            fan_in = max(len(preds[v]) for v in nodes)
            table = [preds[v][min(j, len(preds[v]) - 1)] for j in range(fan_in) for v in nodes]
            links = slice(len(src), len(src) + len(table))
            self.level_steps.append((np.array(nodes), np.array(table).reshape(fan_in, -1), links))
            src += table
            dst += nodes * fan_in
        self.level_links = src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
        # (K, m) sinks, the services that precede none: row k holds sink
        # k mod c of every app with c sinks (a max ignores repeats)
        sinks = (np.bincount(src, minlength=self.n_services) == 0).nonzero()[0]
        bounds = sinks.searchsorted(offsets)
        first, count = bounds[:-1], bounds[1:] - bounds[:-1]
        self.sink_ranks = sinks[first + np.arange(count.max(initial=1))[:, None] % count]

    @cached_property
    def anchors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``moea.common.greedy_anchors`` of this instance, placed on first
        use: every run on the instance reads them, and a pickled instance
        carries them."""
        from .moea.common import greedy_anchors  # that module imports this one

        return greedy_anchors(self)

    def as_assignment(self, dep, rows: bool = False) -> np.ndarray:
        """One assignment as an (N,) array of int64 resource ids, checked;
        with ``rows``, a (P, N) block of P assignments, checked once."""
        try:
            arr = np.asarray(dep)
        except ValueError as exc:  # ragged rows
            raise LengthMismatch(f"assignments of unequal lengths: {exc}") from None
        n = self.n_services
        if arr.shape != ((*arr.shape[:1], n) if rows else (n,)):
            raise LengthMismatch(f"assignment shape {arr.shape} != {f'(P, {n})' if rows else (n,)}")
        if arr.size and arr.dtype.kind not in "iu":
            raise LengthMismatch(f"assignment must hold integer resource ids, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_resources):
            raise LengthMismatch("assignment references unknown resource ids")
        return arr.astype(np.int64, copy=False)

    def resource_loads(self, a: np.ndarray) -> np.ndarray:
        """Per-resource sums under a validated (P, N) block of assignments,
        (5, P, R), kind by kind: cpu work, ram, storage, arrival rate and
        number of services of each row.

        Row p's bins lie pR further on, and one bincount per kind serves
        the whole block and fills that kind's contiguous (P·R) row; each
        bin adds its services in index order.
        """
        rows, r = a.shape[0], self.n_resources
        bins = rows * r
        index = (a + np.arange(0, bins, r)[:, None]).ravel()
        weights = np.repeat(self._load_weights[:, None], rows, axis=1).reshape(4, -1)
        loads = np.empty((5, bins))
        for k, w in enumerate(weights):
            loads[k] = np.bincount(index, w, bins)
        loads[4] = np.bincount(index, minlength=bins)
        return loads.reshape(5, rows, r)


def evaluate(dep, prob: ProblemInstance) -> tuple[ObjectiveVector, ViolationVector]:
    """Objectives and violations of one deployment (N,): one row of ``evaluate_many``."""
    objectives, violations = _scores(prob.as_assignment(dep)[None], prob)
    return ObjectiveVector(*objectives[0].tolist()), ViolationVector(*violations[0].tolist())


def evaluate_many(assignments, prob: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Objectives (P, 2) and violations (P, 4) of every row of a (P, N)
    block, in row order: the fields of ``ObjectiveVector`` and
    ``ViolationVector``, in field order."""
    return _scores(prob.as_assignment(assignments, rows=True), prob)


def _scores(block: np.ndarray, prob: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Scores of a validated (P, N) block in one pass: one bincount per
    load for all rows, one critical-path DP for all rows.  A row's floats
    do not depend on the other rows."""
    m = len(prob.apps)
    if m == 0:
        return np.zeros((len(block), 2)), np.zeros((len(block), 4))
    n, scale = prob.n_services, prob.availability_lcm * m
    load = prob.resource_loads(block)
    met = prob.service_avail_req <= prob.up_probability[block]
    objectives, violations = np.empty((len(block), 2)), np.empty((len(block), 4))
    # the landscape holds one cloud, and every service not on it is on fog
    objectives[:, 0] = (n - load[4, :, prob.landscape.cloud]) / n
    # availability is one division of integers no larger than 2**53, exact
    # as floats: the correctly rounded float of the exact ratio
    objectives[:, 1] = (met @ prob.service_avail_weight) / scale
    # the (5, P, R) loads keep resources on their last, contiguous axis, so
    # every row sums its capacity overshoot in the same pairwise order
    overshoot = np.maximum(0.0, load[:3] - prob.effective_capacity[:, None]).sum(axis=-1)
    violations[:, :3] = (overshoot / prob.capacity_total[:, None]).T
    rt = timing.app_response_times(block.T, prob, load).T
    excess = np.maximum(0.0, rt - prob.app_deadline) / prob.app_deadline
    excess[rt == np.inf] = SATURATION_PENALTY
    # a left fold in app order: np.sum's pairwise order would move the last bit
    violations[:, 3] = np.add.accumulate(excess, axis=1)[:, -1]
    return objectives, violations


def fog_utilization(dep, prob: ProblemInstance) -> float:
    """Fraction of services hosted on fog-tier resources (not cloud)."""
    return evaluate(dep, prob)[0].fog_utilization


def availability_objective(dep, prob: ProblemInstance) -> float:
    """Mean over apps of the share of services whose host meets the requirement."""
    return evaluate(dep, prob)[0].availability


def capacity_violation(dep, prob: ProblemInstance) -> tuple[float, float, float]:
    """Normalized capacity overshoot (cpu, ram, storage) over all resources."""
    v = evaluate(dep, prob)[1]
    return v.cpu_excess, v.ram_excess, v.storage_excess


def deadline_violation(dep, prob: ProblemInstance) -> float:
    """Sum over apps of relative deadline overshoot.

    Applications whose critical path touches a saturated queue
    contribute SATURATION_PENALTY each.
    """
    return evaluate(dep, prob)[1].deadline_excess

