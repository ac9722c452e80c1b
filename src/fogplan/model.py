"""Fog landscape and application model.

The landscape is a three-level hierarchy: a central cloud node, fog
colonies each managed by one coordinator (FCM) over a set of worker
cells (FC), and configured link latencies between them.  Applications
are DAGs of services with hardware demands, an availability requirement
and a deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CycleDetected, DanglingEdge, UnknownColony


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
        if self.cpu_capacity <= 0 or self.ram_capacity <= 0 or self.storage_capacity <= 0:
            raise ValueError(f"resource {self.id}: capacities must be positive")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ValueError(f"resource {self.id}: failure probability outside [0, 1]")
        if (self.kind is ResourceKind.CLOUD) != (self.colony_id is None):
            raise ValueError(f"resource {self.id}: colony_id must be absent iff kind is cloud")

    @property
    def up_probability(self) -> float:
        return 1.0 - self.failure_probability


@dataclass(frozen=True)
class Colony:
    id: int
    fcm: int
    cells: tuple[int, ...]
    neighbor_latency: dict[int, float] = field(default_factory=dict)
    cell_latency: float = 2.0  # FC <-> own FCM, milliseconds

    def __post_init__(self):
        if self.id in self.neighbor_latency:
            raise ValueError(f"colony {self.id}: latency entry to itself")
        if not all(0 <= v < math.inf for v in self.neighbor_latency.values()):
            raise ValueError(f"colony {self.id}: neighbor latency negative or not finite")
        if not 0 <= self.cell_latency < math.inf:
            raise ValueError(f"colony {self.id}: cell latency negative or not finite")


@dataclass(frozen=True)
class Landscape:
    cloud: int
    colonies: tuple[Colony, ...]
    resources: tuple[Resource, ...]
    cloud_latency: dict[int, float] = field(default_factory=dict)  # colony id -> ms

    def __post_init__(self):
        ids = [r.id for r in self.resources]
        if ids != list(range(len(ids))):
            raise ValueError("resource ids must be unique and contiguous from 0")
        if self.resources[self.cloud].kind is not ResourceKind.CLOUD:
            raise ValueError("cloud field must reference a cloud resource")
        for colony in self.colonies:
            for rid in (colony.fcm, *colony.cells):
                if not 0 <= rid < len(ids):
                    raise ValueError(f"colony {colony.id} references unknown resource {rid}")
            if self.resources[colony.fcm].kind is not ResourceKind.FCM:
                raise ValueError(f"colony {colony.id}: fcm field must reference an FCM resource")
            if colony.id not in self.cloud_latency:
                raise ValueError(f"colony {colony.id}: no cloud latency")
            if not 0 <= self.cloud_latency[colony.id] < math.inf:
                raise ValueError(f"colony {colony.id}: cloud latency negative or not finite")
        for i, ca in enumerate(self.colonies):
            for cb in self.colonies[i + 1:]:
                if cb.id not in ca.neighbor_latency and ca.id not in cb.neighbor_latency:
                    raise ValueError(f"colonies {ca.id} and {cb.id}: no neighbor latency")

    def colony(self, cid: int) -> Colony:
        for colony in self.colonies:
            if colony.id == cid:
                return colony
        raise UnknownColony(cid)


@dataclass(frozen=True)
class Service:
    id: tuple[int, int]  # (app index, service index)
    workload_cpu: float
    ram_req: float
    storage_req: float
    availability_req: float

    def __post_init__(self):
        if self.workload_cpu <= 0 or self.ram_req <= 0 or self.storage_req <= 0:
            raise ValueError(f"service {self.id}: demands must be positive")
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
        if self.deadline <= 0:
            raise ValueError(f"app {self.id}: deadline must be positive")
        if self.request_rate <= 0:
            raise ValueError(f"app {self.id}: request rate must be positive")
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
        # every service left over has a predecessor left over: walk back
        # through them until one repeats
        done = set(order)
        path, seen = [], {}
        v = next(i for i in range(n) if i not in done)
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(u for u, w in app.edges if w == v and u not in done)
        cycle = path[seen[v]:][::-1]
        raise CycleDetected(cycle + cycle[:1])
    return level


def _hop_to_fcm(landscape: Landscape, rid: int) -> float:
    res = landscape.resources[rid]
    if res.kind is ResourceKind.FCM:
        return 0.0
    return landscape.colony(res.colony_id).cell_latency


def latency_ms(landscape: Landscape, a: int, b: int) -> float:
    """Network latency between two resources, in milliseconds.

    Paths are routed through the colony FCMs: cell -> own FCM -> peer
    FCM (or cloud) -> destination.  Same-resource latency is zero.
    """
    if a == b:
        return 0.0
    ra, rb = landscape.resources[a], landscape.resources[b]
    if ra.kind is ResourceKind.CLOUD or rb.kind is ResourceKind.CLOUD:
        if ra.kind is ResourceKind.CLOUD and rb.kind is ResourceKind.CLOUD:
            return 0.0
        fog = b if ra.kind is ResourceKind.CLOUD else a
        res = landscape.resources[fog]
        return _hop_to_fcm(landscape, fog) + landscape.cloud_latency[res.colony_id]
    if ra.colony_id == rb.colony_id:
        return _hop_to_fcm(landscape, a) + _hop_to_fcm(landscape, b)
    ca = landscape.colony(ra.colony_id)
    cb = landscape.colony(rb.colony_id)
    if cb.id in ca.neighbor_latency:
        inter = ca.neighbor_latency[cb.id]
    else:
        inter = cb.neighbor_latency[ca.id]
    return _hop_to_fcm(landscape, a) + inter + _hop_to_fcm(landscape, b)


def latency_matrix(landscape: Landscape) -> np.ndarray:
    """Full pairwise resource latency matrix in milliseconds.

    The vector form of ``latency_ms``, bit for bit: entry (i, j) adds
    the same terms in the same order as ``latency_ms(landscape, min(i, j),
    max(i, j))``.  Colony links come from a table whose last row and
    column are the cloud's; a colony's link to itself is 0, and a cell
    adds its hop to its own FCM at each end.
    """
    colonies = landscape.colonies
    cloud = [landscape.cloud_latency[c.id] for c in colonies]
    inter = np.array([
        [
            0.0 if ca is cb else ca.neighbor_latency.get(cb.id, cb.neighbor_latency.get(ca.id))
            for cb in colonies
        ] + [up]
        for ca, up in zip(colonies, cloud)
    ] + [cloud + [0.0]])
    index = {c.id: k for k, c in enumerate(colonies)}
    res = landscape.resources
    col = [len(colonies) if r.colony_id is None else index[r.colony_id] for r in res]
    hop = np.array([
        colonies[c].cell_latency if r.kind is ResourceKind.FC else 0.0 for r, c in zip(res, col)
    ])
    col = np.array(col)
    mat = hop[:, None] + inter[col[:, None], col] + hop
    # keep the upper triangle, latency_ms(i, j) for i < j, and mirror it
    ids = np.arange(len(col))
    mat = np.where(ids[:, None] < ids, mat, 0.0)
    return mat + mat.T
