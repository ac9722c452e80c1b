"""Scenario construction and (de)serialization.

Builds problem instances from a declarative spec: the reference
simulation scenario (five chained Sense-Process-Actuate applications on
a two-colony landscape), seeded random variants, and replicated
instances for runtime-scaling experiments.  Specs round-trip through a
versioned YAML file.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import yaml

from .errors import ParseError, UnknownVersion
from .fsdp import ProblemInstance
from .model import (
    Application,
    Colony,
    Landscape,
    Resource,
    ResourceKind,
    Service,
)

SCHEMA_VERSION = 1

SERVICE_KINDS = ("sense", "process", "actuate")


@dataclass(frozen=True)
class ServiceTemplate:
    kind: str  # one of SERVICE_KINDS: a label of the schema, read by no objective
    cpu: float
    ram: float
    size: float
    availability_lo: float
    availability_hi: float

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ParseError("service_templates", f"kind {self.kind!r} not one of {SERVICE_KINDS}")
        if not 0.0 <= self.availability_lo <= self.availability_hi <= 1.0:
            raise ParseError("service_templates", "availability range must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class ResourceTemplate:
    cpu: float
    ram: float
    storage: float
    failure: float

    def __post_init__(self):
        if not 0.0 <= self.failure <= 1.0:
            raise ParseError("resource_templates", "failure probability outside [0, 1]")
        if min(self.cpu, self.ram, self.storage) <= 0:
            raise ParseError("resource_templates", "capacities must be positive")


DEFAULT_SERVICE_TEMPLATES = (
    ServiceTemplate("sense", 50, 30, 10, 0.80, 0.95),
    ServiceTemplate("process", 200, 10, 30, 0.70, 0.95),
    ServiceTemplate("process", 200, 20, 30, 0.70, 0.90),
    ServiceTemplate("process", 100, 30, 30, 0.90, 0.95),
    ServiceTemplate("actuate", 50, 20, 10, 0.95, 1.00),
)

DEFAULT_CLOUD = ResourceTemplate(cpu=200000, ram=200000, storage=1e9, failure=0.00001)
DEFAULT_FCM = ResourceTemplate(cpu=1000, ram=512, storage=10000, failure=0.10)
DEFAULT_FC = ResourceTemplate(cpu=250, ram=256, storage=1000, failure=0.20)

DEFAULT_DEADLINES = (300.0, 60.0, 180.0, 240.0, 120.0)


@dataclass(frozen=True)
class ScenarioSpec:
    colonies: int = 2
    cells_per_colony: int = 4
    apps: int = 5
    services_per_app: int = 5
    service_templates: tuple[ServiceTemplate, ...] = DEFAULT_SERVICE_TEMPLATES
    cloud: ResourceTemplate = DEFAULT_CLOUD
    fcm: ResourceTemplate = DEFAULT_FCM
    fc: ResourceTemplate = DEFAULT_FC
    deadlines: tuple[float, ...] = DEFAULT_DEADLINES
    request_rates: tuple[float, ...] = (0.1,)
    fc_fcm_latency_ms: float = 2.0
    fcm_fcm_latency_ms: float = 10.0
    fcm_cloud_latency_ms: float = 100.0
    reserve_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("colonies", "cells_per_colony", "apps", "services_per_app"):
            if getattr(self, name) < 1:
                raise ParseError(name, "count must be >= 1")
        if not self.deadlines or not self.request_rates:
            raise ParseError("deadlines", "deadlines and request_rates must be non-empty")
        for name in ("deadlines", "request_rates"):
            if not all(0.0 < v < math.inf for v in getattr(self, name)):
                raise ParseError(name, "values must be finite and > 0")
        if not 0.0 <= self.reserve_fraction < 1.0:
            raise ParseError("reserve_fraction", "must lie in [0, 1)")
        for name in ("fc_fcm_latency_ms", "fcm_fcm_latency_ms", "fcm_cloud_latency_ms"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ParseError(name, "latency must be finite and >= 0")


def build_landscape(spec: ScenarioSpec) -> Landscape:
    resources = [
        Resource(
            id=0,
            kind=ResourceKind.CLOUD,
            cpu_capacity=spec.cloud.cpu,
            ram_capacity=spec.cloud.ram,
            storage_capacity=spec.cloud.storage,
            failure_probability=spec.cloud.failure,
        )
    ]
    colonies = []
    for cid in range(spec.colonies):
        fcm_id = len(resources)
        resources.append(
            Resource(
                id=fcm_id,
                kind=ResourceKind.FCM,
                cpu_capacity=spec.fcm.cpu,
                ram_capacity=spec.fcm.ram,
                storage_capacity=spec.fcm.storage,
                failure_probability=spec.fcm.failure,
                colony_id=cid,
            )
        )
        cells = []
        for _ in range(spec.cells_per_colony):
            rid = len(resources)
            cells.append(rid)
            resources.append(
                Resource(
                    id=rid,
                    kind=ResourceKind.FC,
                    cpu_capacity=spec.fc.cpu,
                    ram_capacity=spec.fc.ram,
                    storage_capacity=spec.fc.storage,
                    failure_probability=spec.fc.failure,
                    colony_id=cid,
                )
            )
        neighbor_latency = {
            other: spec.fcm_fcm_latency_ms for other in range(spec.colonies) if other != cid
        }
        colonies.append(
            Colony(
                id=cid,
                fcm=fcm_id,
                cells=tuple(cells),
                neighbor_latency=neighbor_latency,
                cell_latency=spec.fc_fcm_latency_ms,
            )
        )
    cloud_latency = {cid: spec.fcm_cloud_latency_ms for cid in range(spec.colonies)}
    return Landscape(
        cloud=0,
        colonies=tuple(colonies),
        resources=tuple(resources),
        cloud_latency=cloud_latency,
    )


def build_instance(spec: ScenarioSpec) -> ProblemInstance:
    """Instantiate the spec deterministically from its embedded seed."""
    landscape = build_landscape(spec)
    templates = [
        spec.service_templates[j % len(spec.service_templates)]
        for j in range(spec.services_per_app)
    ]
    # one draw per service in app order, used as lo + (hi - lo) * u like Generator.uniform
    rng = np.random.default_rng(spec.seed)
    draws = iter(rng.random(spec.apps * spec.services_per_app).tolist())
    apps = []
    for i in range(spec.apps):
        services = tuple(
            Service(
                id=(i, j),
                workload_cpu=template.cpu,
                ram_req=template.ram,
                storage_req=template.size,
                availability_req=template.availability_lo
                + (template.availability_hi - template.availability_lo) * next(draws),
            )
            for j, template in enumerate(templates)
        )
        edges = tuple((j, j + 1) for j in range(spec.services_per_app - 1))
        apps.append(
            Application(
                id=i,
                services=services,
                edges=edges,
                deadline=spec.deadlines[i % len(spec.deadlines)],
                request_rate=spec.request_rates[i % len(spec.request_rates)],
            )
        )
    return ProblemInstance(landscape, apps, reserve_fraction=spec.reserve_fraction)


def paper_scenario(seed: int = 0) -> ProblemInstance:
    """The reference simulation scenario with seeded availability draws."""
    return build_instance(ScenarioSpec(seed=seed))


def scaled_scenario(base: ScenarioSpec, replication: int) -> ProblemInstance:
    """Replicate apps and colonies together so feasibility density holds."""
    if replication < 1:
        raise ValueError("replication factor must be >= 1")
    scaled = replace(
        base,
        apps=base.apps * replication,
        colonies=base.colonies * replication,
        deadlines=base.deadlines * replication,
        request_rates=base.request_rates * replication,
    )
    return build_instance(scaled)


_REQUIRED_FIELDS = (
    "colonies",
    "cells_per_colony",
    "apps",
    "services_per_app",
    "service_templates",
    "resources",
    "deadlines",
    "request_rates",
    "latencies",
    "reserve_fraction",
    "seed",
)


def save(spec: ScenarioSpec, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "colonies": spec.colonies,
        "cells_per_colony": spec.cells_per_colony,
        "apps": spec.apps,
        "services_per_app": spec.services_per_app,
        "service_templates": [asdict(t) for t in spec.service_templates],
        "resources": {
            "cloud": asdict(spec.cloud),
            "fcm": asdict(spec.fcm),
            "fc": asdict(spec.fc),
        },
        "deadlines": list(spec.deadlines),
        "request_rates": list(spec.request_rates),
        "latencies": {
            "fc_fcm_ms": spec.fc_fcm_latency_ms,
            "fcm_fcm_ms": spec.fcm_fcm_latency_ms,
            "fcm_cloud_ms": spec.fcm_cloud_latency_ms,
        },
        "reserve_fraction": spec.reserve_fraction,
        "seed": spec.seed,
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load(path) -> ScenarioSpec:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ParseError("<document>", str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("<document>", "scenario file must be a mapping")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnknownVersion(f"unsupported schema_version {version!r}")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise ParseError(name, "required field missing")
    try:
        templates = tuple(ServiceTemplate(**t) for t in doc["service_templates"])
        resources = doc["resources"]
        latencies = doc["latencies"]
        return ScenarioSpec(
            colonies=int(doc["colonies"]),
            cells_per_colony=int(doc["cells_per_colony"]),
            apps=int(doc["apps"]),
            services_per_app=int(doc["services_per_app"]),
            service_templates=templates,
            cloud=ResourceTemplate(**resources["cloud"]),
            fcm=ResourceTemplate(**resources["fcm"]),
            fc=ResourceTemplate(**resources["fc"]),
            deadlines=tuple(float(d) for d in doc["deadlines"]),
            request_rates=tuple(float(r) for r in doc["request_rates"]),
            fc_fcm_latency_ms=float(latencies["fc_fcm_ms"]),
            fcm_fcm_latency_ms=float(latencies["fcm_fcm_ms"]),
            fcm_cloud_latency_ms=float(latencies["fcm_cloud_ms"]),
            reserve_fraction=float(doc["reserve_fraction"]),
            seed=int(doc["seed"]),
        )
    except ParseError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError("<document>", f"malformed scenario file: {exc}") from exc
