"""Response-time model: one M/D/1 queue per resource plus link latencies.

Each resource serves its hosted services as a single M/D/1 queue whose
deterministic service time is the mean hosted workload divided by the
resource's CPU capacity.  An application's response time is the longest
path through its DAG where nodes cost the host's mean sojourn time and
edges cost the configured latency between the two hosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Saturated


@dataclass(frozen=True)
class Md1Queue:
    arrival_rate: float  # jobs / second
    service_time: float  # seconds, deterministic

    def __post_init__(self):
        # written so that NaN fails too; inf passes, and md1_sojourn reports it Saturated
        if not self.arrival_rate >= 0:
            raise ValueError(f"arrival rate must be non-negative, not {self.arrival_rate}")
        if not self.service_time > 0:
            raise ValueError(f"service time must be positive, not {self.service_time}")

    @property
    def utilization(self) -> float:
        return self.arrival_rate * self.service_time


@dataclass(frozen=True)
class ResponseTimeReport:
    app_rt: dict[int, float | None]  # app id -> seconds, None when saturated


def md1_sojourn(queue: Md1Queue) -> float:
    """Mean sojourn time (wait + service) of an M/D/1 queue.

    Pollaczek-Khinchine with deterministic service:
    D + lambda * D^2 / (2 * (1 - rho)).  An infinite service time
    saturates at any rate: at rate 0 its utilization is NaN.
    """
    rho = queue.utilization
    if not rho < 1.0:
        raise Saturated(f"utilization {rho} is not below 1")
    d = queue.service_time
    return d + queue.arrival_rate * d * d / (2.0 * (1.0 - rho))


def sojourn_times(prob, load: np.ndarray) -> np.ndarray:
    """Mean sojourn time of every resource's M/D/1 queue, inf where saturated.

    ``load`` is ``prob.resource_loads`` of P deployments (5, P, R); the
    result is (P, R).  An empty resource has sojourn 0.
    """
    work, lam, count = load[0], load[3], load[4]
    d = work / np.maximum(count, 1.0) / prob.cpu_capacity
    rho = lam * d
    wait = np.divide(
        lam * d ** 2, 2.0 * (1.0 - rho), out=np.full(rho.shape, np.inf), where=rho < 1.0
    )
    return d + wait


def app_response_times(a: np.ndarray, prob, load: np.ndarray) -> np.ndarray:
    """Critical-path response time of every app, inf where a service is saturated.

    ``a`` holds P validated assignments on its trailing axis (N, P),
    with their loads (5, P, R); the result is (m, P).  With the
    population last, the DP below indexes services on the first axis.

    A DP over global topological levels: a service's distance is its
    host's sojourn plus the largest predecessor distance plus link
    latency.  Latencies are non-negative (the model rejects others), so
    a source's distance is its sojourn alone, and no distance falls along
    an edge: an app's max lies at a sink, where a saturated host's inf
    sojourn reaches too.  Row p of the (P, R) sojourns starts at pR.
    """
    r = prob.n_resources
    dist = sojourn_times(prob, load).ravel().take(a + np.arange(0, a.shape[1] * r, r))
    src, dst = prob.level_links
    lat = prob.latency_s.ravel().take(a[src] * r + a[dst])
    for nodes, preds, links in prob.level_steps:
        best = dist.take(preds, axis=0) + lat[links].reshape(preds.shape + lat.shape[1:])
        dist[nodes] += best[0] if len(best) == 1 else best.max(axis=0)
    return dist[prob.sink_ranks].max(axis=0)


def response_time_report(dep, prob) -> ResponseTimeReport:
    """Critical-path response time of every app, None where saturated."""
    a = prob.as_assignment(dep)[:, None]
    rt = app_response_times(a, prob, prob.resource_loads(a.T))[:, 0].tolist()
    return ResponseTimeReport(
        app_rt={app.id: None if t == math.inf else t for app, t in zip(prob.apps, rt)}
    )
