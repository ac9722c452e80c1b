"""Bi-objective deployment model: objectives, constraints, evaluation.

A deployment assigns every service instance to one concrete resource.
The two maximized objectives are the fraction of services hosted on fog
resources and a normalized per-application availability score.
Constraint handling produces a non-negative violation vector (capacity
overshoot per hardware kind plus deadline overshoot) that is all-zero
exactly for feasible deployments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import timing
from .errors import LengthMismatch
from .model import (
    Application,
    Landscape,
    ResourceKind,
    latency_matrix,
    topological_order,
)

#: deadline_excess contributed by each application whose critical path
#: touches a saturated queue (utilization >= 1).  Large but finite so
#: saturated deployments stay comparable for the optimizer.
SATURATION_PENALTY = 10.0


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

    def is_zero(self) -> bool:
        return self.total() == 0.0


class ProblemInstance:
    """Immutable problem description with precomputed evaluation arrays."""

    def __init__(self, landscape: Landscape, apps: list[Application], reserve_fraction: float = 0.1):
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must lie in [0, 1)")
        self.landscape = landscape
        self.apps = tuple(apps)
        self.reserve_fraction = reserve_fraction

        res = landscape.resources
        self.n_resources = len(res)
        self.cpu_capacity = np.array([r.cpu_capacity for r in res])
        self.ram_capacity = np.array([r.ram_capacity for r in res])
        self.storage_capacity = np.array([r.storage_capacity for r in res])
        self.up_probability = np.array([r.up_probability for r in res])
        self.is_fog = np.array([r.kind is not ResourceKind.CLOUD for r in res])
        self.latency_s = latency_matrix(landscape) / 1000.0

        keep = 1.0 - reserve_fraction
        self.effective_cpu = keep * self.cpu_capacity
        self.effective_ram = keep * self.ram_capacity
        self.effective_storage = keep * self.storage_capacity

        self.app_offsets = []
        svc_cpu, svc_ram, svc_sto, svc_req, svc_rate = [], [], [], [], []
        self._topo = []
        self._preds = []
        offset = 0
        for app in self.apps:
            self.app_offsets.append(offset)
            for svc in app.services:
                svc_cpu.append(svc.workload_cpu)
                svc_ram.append(svc.ram_req)
                svc_sto.append(svc.storage_req)
                svc_req.append(svc.availability_req)
                svc_rate.append(app.request_rate)
            self._topo.append(topological_order(app))
            preds = {i: [] for i in range(len(app.services))}
            for u, v in app.edges:
                preds[v].append(u)
            self._preds.append(preds)
            offset += len(app.services)
        self.n_services = offset
        self.service_cpu = np.array(svc_cpu)
        self.service_ram = np.array(svc_ram)
        self.service_storage = np.array(svc_sto)
        self.service_avail_req = np.array(svc_req)
        self.service_rate = np.array(svc_rate)

        # availability as one integer count ratio: a met service of an app
        # with k services weighs L / k, L the lcm of the app sizes, so the
        # objective is (sum of met weights) / (L * m) with a single division
        sizes = [len(app.services) for app in self.apps]
        self.availability_lcm = math.lcm(*(k for k in sizes if k))
        self.service_avail_weight = np.array(
            [self.availability_lcm // k for k in sizes for _ in range(k)], dtype=np.int64
        )

    def as_assignment(self, dep) -> np.ndarray:
        arr = np.asarray(dep)
        if arr.shape != (self.n_services,):
            raise LengthMismatch(
                f"assignment length {arr.shape} != number of services {self.n_services}"
            )
        if self.n_services and arr.dtype.kind not in "iu":
            raise LengthMismatch(f"assignment must hold integer resource ids, got {arr.dtype}")
        if self.n_services and (arr.min() < 0 or arr.max() >= self.n_resources):
            raise LengthMismatch("assignment references unknown resource ids")
        return arr.astype(np.int64, copy=False)


def fog_utilization(dep, prob: ProblemInstance) -> float:
    """Fraction of services hosted on fog-tier resources (not cloud)."""
    a = prob.as_assignment(dep)
    if prob.n_services == 0:
        return 0.0
    return float(np.count_nonzero(prob.is_fog[a])) / prob.n_services


def _availability_numerator(a: np.ndarray, prob: ProblemInstance) -> int:
    """Sum over apps of met_app * (L / k_app), L the lcm of app sizes."""
    met = prob.service_avail_req <= prob.up_probability[a]
    return int(prob.service_avail_weight[met].sum())


def availability_objective(dep, prob: ProblemInstance) -> float:
    """Mean over apps of the share of services whose host meets the requirement.

    One division of integers, (sum of met weights) / (L * m): the
    correctly rounded float of the exact ratio.
    """
    m = len(prob.apps)
    if m == 0:
        return 0.0
    a = prob.as_assignment(dep)
    return _availability_numerator(a, prob) / (prob.availability_lcm * m)


def capacity_violation(dep, prob: ProblemInstance) -> tuple[float, float, float]:
    """Normalized capacity overshoot (cpu, ram, storage) over all resources."""
    a = prob.as_assignment(dep)
    out = []
    for demand, capacity in (
        (prob.service_cpu, prob.effective_cpu),
        (prob.service_ram, prob.effective_ram),
        (prob.service_storage, prob.effective_storage),
    ):
        usage = np.bincount(a, weights=demand, minlength=prob.n_resources)
        overshoot = np.maximum(0.0, usage - capacity).sum()
        out.append(float(overshoot / capacity.sum()))
    return tuple(out)


def deadline_violation(dep, prob: ProblemInstance) -> float:
    """Sum over apps of relative deadline overshoot.

    Applications whose critical path touches a saturated queue
    contribute SATURATION_PENALTY each.
    """
    report = timing.response_time_report(dep, prob)
    excess = 0.0
    for app in prob.apps:
        rt = report.app_rt[app.id]
        if rt is None:
            excess += SATURATION_PENALTY
        else:
            excess += max(0.0, rt - app.deadline) / app.deadline
    return excess


def evaluate(dep, prob: ProblemInstance) -> tuple[ObjectiveVector, ViolationVector]:
    a = prob.as_assignment(dep)
    objectives = ObjectiveVector(
        fog_utilization=fog_utilization(a, prob),
        availability=availability_objective(a, prob),
    )
    cpu, ram, sto = capacity_violation(a, prob)
    violations = ViolationVector(
        cpu_excess=cpu,
        ram_excess=ram,
        storage_excess=sto,
        deadline_excess=deadline_violation(a, prob),
    )
    return objectives, violations


def is_feasible(dep, prob: ProblemInstance) -> bool:
    _, violations = evaluate(dep, prob)
    return violations.is_zero()


def audit_capacity(dep, prob: ProblemInstance) -> bool:
    """Direct per-resource check of every capacity inequality.

    Independent of the aggregated violation computation; used to
    cross-check that a zero violation vector really means feasibility.
    """
    a = prob.as_assignment(dep)
    for rid in range(prob.n_resources):
        hosted = a == rid
        if prob.service_cpu[hosted].sum() > prob.effective_cpu[rid]:
            return False
        if prob.service_ram[hosted].sum() > prob.effective_ram[rid]:
            return False
        if prob.service_storage[hosted].sum() > prob.effective_storage[rid]:
            return False
    return True
