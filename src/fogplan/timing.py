"""Response-time model: one M/D/1 queue per resource plus link latencies.

Each resource serves its hosted services as a single M/D/1 queue whose
deterministic service time is the mean hosted workload divided by the
resource's CPU capacity.  An application's response time is the longest
path through its DAG where nodes cost the host's mean sojourn time and
edges cost the configured latency between the two hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Saturated


@dataclass(frozen=True)
class Md1Queue:
    arrival_rate: float  # jobs / second
    service_time: float  # seconds, deterministic

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.service_time <= 0:
            raise ValueError("service time must be positive")

    @property
    def utilization(self) -> float:
        return self.arrival_rate * self.service_time


@dataclass(frozen=True)
class ResponseTimeReport:
    app_rt: dict[int, float | None]  # app id -> seconds, None when saturated


def md1_sojourn(queue: Md1Queue) -> float:
    """Mean sojourn time (wait + service) of an M/D/1 queue.

    Pollaczek-Khinchine with deterministic service:
    D + lambda * D^2 / (2 * (1 - rho)).
    """
    rho = queue.utilization
    if rho >= 1.0:
        raise Saturated(f"utilization {rho} >= 1")
    d = queue.service_time
    return d + queue.arrival_rate * d * d / (2.0 * (1.0 - rho))


def resource_load(dep, prob, resource_id: int) -> tuple[float, float, float]:
    """(total arrival rate, service time, utilization) of one resource.

    Arrival rate sums the owning app's request rate once per hosted
    service; service time is the mean hosted workload over capacity.
    An empty resource reports (0, 0, 0).
    """
    a = prob.as_assignment(dep)
    hosted = a == resource_id
    count = int(np.count_nonzero(hosted))
    if count == 0:
        return 0.0, 0.0, 0.0
    lam = float(prob.service_rate[hosted].sum())
    d = float(prob.service_cpu[hosted].mean()) / prob.cpu_capacity[resource_id]
    return lam, d, lam * d


def _per_resource_sojourn(a: np.ndarray, prob) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sojourn times for every resource under a deployment.

    Returns (sojourn seconds, saturated mask); sojourn is 0 for empty
    resources and undefined where saturated.
    """
    n = prob.n_resources
    lam = np.bincount(a, weights=prob.service_rate, minlength=n)
    count = np.bincount(a, minlength=n)
    work = np.bincount(a, weights=prob.service_cpu, minlength=n)
    occupied = count > 0
    d = np.zeros(n)
    d[occupied] = (work[occupied] / count[occupied]) / prob.cpu_capacity[occupied]
    rho = lam * d
    saturated = rho >= 1.0
    sojourn = np.zeros(n)
    stable = occupied & ~saturated
    sojourn[stable] = d[stable] + lam[stable] * d[stable] ** 2 / (2.0 * (1.0 - rho[stable]))
    return sojourn, saturated


def _app_response_time(a, prob, app_idx, sojourn, saturated) -> float | None:
    offset = prob.app_offsets[app_idx]
    topo = prob._topo[app_idx]
    preds = prob._preds[app_idx]
    lat = prob.latency_s
    if not topo:
        return 0.0
    dist = {}
    for v in topo:
        hv = a[offset + v]
        if saturated[hv]:
            return None
        best = 0.0
        for u in preds[v]:
            cand = dist[u] + lat[a[offset + u], hv]
            if cand > best:
                best = cand
        dist[v] = best + sojourn[hv]
    return max(dist.values())


def response_time_report(dep, prob) -> ResponseTimeReport:
    """Critical-path response time of every app, None where saturated."""
    a = prob.as_assignment(dep)
    sojourn, saturated = _per_resource_sojourn(a, prob)
    app_rt = {}
    for idx, app in enumerate(prob.apps):
        app_rt[app.id] = _app_response_time(a, prob, idx, sojourn, saturated)
    return ResponseTimeReport(app_rt=app_rt)
