"""Fog landscape and application model.

The landscape is a three-level hierarchy: a central cloud node, fog
colonies each managed by one coordinator (FCM) over a set of worker
cells (FC), and one configured latency per kind of link.  Applications
are DAGs of services with hardware demands, an availability requirement
and a deadline.
"""

from __future__ import annotations

import graphlib
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CycleDetected, DanglingEdge, ParseError


class ResourceKind(Enum):
    CLOUD = "cloud"
    FCM = "fcm"
    FC = "fc"


@dataclass(frozen=True)
class Resource:
    id: int
    kind: ResourceKind
    cpu_capacity: float
    ram_capacity: float
    storage_capacity: float
    failure_probability: float
    colony_id: int | None = None

    def __post_init__(self):
        if not all(0 < c < math.inf for c in (self.cpu_capacity, self.ram_capacity, self.storage_capacity)):
            raise ValueError(f"resource {self.id}: capacities must be finite and positive")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError(f"resource {self.id}: failure probability outside [0, 1]")
        if (self.kind is ResourceKind.CLOUD) != (self.colony_id is None) or (self.colony_id or 0) < 0:
            raise ValueError(f"resource {self.id}: colony_id must be absent iff kind is cloud, else >= 0")

    @property
    def up_probability(self) -> float:
        return 1.0 - self.failure_probability


@dataclass(frozen=True)
class Latencies:
    """One latency per kind of link, in milliseconds: a cell to its own
    FCM, an FCM to another colony's FCM, an FCM to the cloud."""

    fc_fcm_ms: float = 2.0
    fcm_fcm_ms: float = 10.0
    fcm_cloud_ms: float = 100.0

    def __post_init__(self):
        for name in ("fc_fcm_ms", "fcm_fcm_ms", "fcm_cloud_ms"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ParseError(name, "latency must be finite and >= 0")


@dataclass(frozen=True)
class Landscape:
    """One cloud plus fog colonies, with one latency per kind of link.

    A colony is the resources that share a ``Resource.colony_id``: one
    FCM and any number of cells.  ``cloud`` is the id of the one cloud
    resource.
    """

    resources: tuple[Resource, ...]
    latencies: Latencies
    cloud: int = field(init=False)

    def __post_init__(self):
        ids = [r.id for r in self.resources]
        if ids != list(range(len(ids))):
            raise ValueError("resource ids must be unique and contiguous from 0")
        clouds = [r.id for r in self.resources if r.kind is ResourceKind.CLOUD]
        if len(clouds) != 1:
            raise ValueError(f"cloud resources {clouds}: expected one")
        object.__setattr__(self, "cloud", clouds[0])
        fcms = Counter(r.colony_id for r in self.resources if r.kind is ResourceKind.FCM)
        for r in self.resources:
            if r.colony_id is not None and fcms[r.colony_id] != 1:
                raise ValueError(f"colony {r.colony_id}: {fcms[r.colony_id]} FCMs, expected one")


@dataclass(frozen=True)
class Service:
    id: tuple[int, int]  # (app index, service index)
    workload_cpu: float
    ram_req: float
    storage_req: float
    availability_req: float

    def __post_init__(self):
        if not all(0 < d < math.inf for d in (self.workload_cpu, self.ram_req, self.storage_req)):
            raise ValueError(f"service {self.id}: demands must be finite and positive")
        if not 0.0 <= self.availability_req <= 1.0:
            raise ValueError(f"service {self.id}: availability requirement outside [0, 1]")


@dataclass(frozen=True)
class Application:
    id: int
    services: tuple[Service, ...]
    edges: tuple[tuple[int, int], ...]
    deadline: float  # seconds
    request_rate: float  # requests / second

    def __post_init__(self):
        if not 0 < self.deadline < math.inf:
            raise ValueError(f"app {self.id}: deadline must be finite and positive")
        if not 0 < self.request_rate < math.inf:
            raise ValueError(f"app {self.id}: request rate must be finite and positive")
        if not self.services:
            raise ValueError(f"app {self.id}: no services")


def service_levels(app: Application) -> list[int]:
    """Depth of each service: the most edges on a path from a source.

    Raises DanglingEdge for an edge to an unknown service, and
    CycleDetected naming one cycle when the edges are not acyclic.
    """
    n = len(app.services)
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for u, v in app.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DanglingEdge((u, v))
        succ[u].append(v)
        indeg[v] += 1
    level = [0] * n
    order = [i for i in range(n) if not indeg[i]]
    for u in order:
        below = level[u] + 1
        for v in succ[u]:
            if level[v] < below:
                level[v] = below
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) < n:
        # graphlib names a cycle (Kahn's pass finds levels several times faster);
        # it reads the successor lists as predecessors, so its cycle runs backwards
        try:
            graphlib.TopologicalSorter(dict(enumerate(succ))).prepare()
        except graphlib.CycleError as exc:
            raise CycleDetected(exc.args[1][::-1]) from None
    return level


def latency_matrix(landscape: Landscape) -> np.ndarray:
    """Full pairwise resource latency matrix in milliseconds.

    Paths are routed through the colony FCMs: cell -> own FCM -> peer
    FCM (or cloud) -> destination, so entry (i, j) adds i's hop, the
    inter-colony term and j's hop, in that order; same-resource latency
    is zero.  A hop is 0 or ``fc_fcm_ms``, so entry (j, i) is the same
    float.
    """
    res, lat = landscape.resources, landscape.latencies
    hop = np.array([lat.fc_fcm_ms if r.kind is ResourceKind.FC else 0.0 for r in res])
    colony = np.array([-1 if r.colony_id is None else r.colony_id for r in res])
    cloud = colony < 0
    inter = np.where(colony[:, None] == colony, 0.0, lat.fcm_fcm_ms)
    inter[cloud[:, None] != cloud] = lat.fcm_cloud_ms
    mat = hop[:, None] + inter + hop
    np.fill_diagonal(mat, 0.0)
    return mat
