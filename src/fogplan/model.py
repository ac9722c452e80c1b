"""Fog landscape and application model.

The landscape is a three-level hierarchy: a central cloud node, fog
colonies each managed by one coordinator (FCM) over a set of worker
cells (FC), and configured link latencies between them.  Applications
are DAGs of services with hardware demands, an availability requirement
and a deadline.
"""

from __future__ import annotations

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
        if any(v < 0 for v in self.neighbor_latency.values()):
            raise ValueError(f"colony {self.id}: negative neighbor latency")


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


def validate_dag(app: Application) -> None:
    """Check that the app's edge relation is acyclic with valid endpoints.

    Raises DanglingEdge or CycleDetected (naming one cycle) otherwise.
    """
    n = len(app.services)
    for edge in app.edges:
        u, v = edge
        if not (0 <= u < n and 0 <= v < n):
            raise DanglingEdge(edge)
    succ = {i: [] for i in range(n)}
    for u, v in app.edges:
        succ[u].append(v)
    # iterative DFS with colors; stack holds the current path for cycle reporting
    color = [0] * n  # 0 white, 1 on path, 2 done
    for root in range(n):
        if color[root]:
            continue
        path = [root]
        iters = [iter(succ[root])]
        color[root] = 1
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                color[path.pop()] = 2
                iters.pop()
                continue
            if color[nxt] == 1:
                cycle = path[path.index(nxt):] + [nxt]
                raise CycleDetected(cycle)
            if color[nxt] == 0:
                color[nxt] = 1
                path.append(nxt)
                iters.append(iter(succ[nxt]))


def topological_order(app: Application) -> list[int]:
    """Topological order of the app's services (validates the DAG)."""
    validate_dag(app)
    n = len(app.services)
    indeg = [0] * n
    succ = {i: [] for i in range(n)}
    for u, v in app.edges:
        succ[u].append(v)
        indeg[v] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for u in order:
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order


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
    """Full pairwise resource latency matrix in milliseconds."""
    n = len(landscape.resources)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = latency_ms(landscape, i, j)
    return mat
