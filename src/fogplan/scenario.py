"""Scenario construction and (de)serialization.

Builds problem instances from a declarative spec: the reference
simulation scenario (five chained Sense-Process-Actuate applications on
a two-colony landscape), seeded random variants, and replicated
instances for runtime-scaling experiments.  Specs round-trip through a
versioned YAML file.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .errors import ParseError, UnknownVersion
from .fsdp import MAX_RESOURCES, ProblemInstance
from .model import Application, Landscape, Latencies, Resource, ResourceKind, Service

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
            raise ParseError("kind", f"{self.kind!r} not one of {SERVICE_KINDS}")
        for name in ("cpu", "ram", "size"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParseError(name, "must be finite and > 0")
        if not 0.0 <= self.availability_lo <= self.availability_hi <= 1.0:
            raise ParseError("availability_lo", "must satisfy 0 <= availability_lo <= availability_hi <= 1")


@dataclass(frozen=True)
class ResourceTemplate:
    cpu: float
    ram: float
    storage: float
    failure: float

    def __post_init__(self):
        if not 0.0 <= self.failure <= 1.0:
            raise ParseError("failure", "probability outside [0, 1]")
        for name in ("cpu", "ram", "storage"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParseError(name, "capacity must be finite and > 0")


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
class Resources:
    cloud: ResourceTemplate = DEFAULT_CLOUD
    fcm: ResourceTemplate = DEFAULT_FCM
    fc: ResourceTemplate = DEFAULT_FC


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as its YAML file holds it, key for key and in order."""

    colonies: int = 2
    cells_per_colony: int = 4
    apps: int = 5
    services_per_app: int = 5
    service_templates: tuple[ServiceTemplate, ...] = DEFAULT_SERVICE_TEMPLATES
    resources: Resources = Resources()
    deadlines: tuple[float, ...] = DEFAULT_DEADLINES
    request_rates: tuple[float, ...] = (0.1,)
    latencies: Latencies = Latencies()
    reserve_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # a float or bool count would fail, or pass as 1, deep in the build
        for name in ("colonies", "cells_per_colony", "apps", "services_per_app", "seed"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise ParseError(name, f"must be an integer, not {n!r}")
        for name in ("colonies", "cells_per_colony", "apps", "services_per_app"):
            if getattr(self, name) < 1:
                raise ParseError(name, "count must be >= 1")
        if 1 + self.colonies * (1 + self.cells_per_colony) > MAX_RESOURCES:
            why = f"1 + colonies * (1 + cells_per_colony) resources exceed MAX_RESOURCES = {MAX_RESOURCES}"
            raise ParseError("colonies", why)
        if self.seed < 0:
            raise ParseError("seed", "must be >= 0")
        for name in ("service_templates", "deadlines", "request_rates"):
            if not getattr(self, name):
                raise ParseError(name, "must be non-empty")
        for name in ("deadlines", "request_rates"):
            if not all(0.0 < v < math.inf for v in getattr(self, name)):
                raise ParseError(name, "values must be finite and > 0")
        if not 0.0 <= self.reserve_fraction < 1.0:
            raise ParseError("reserve_fraction", "must lie in [0, 1)")


def build_landscape(spec: ScenarioSpec) -> Landscape:
    resources = []

    def host(kind: ResourceKind, template: ResourceTemplate, colony_id=None) -> None:
        resources.append(
            Resource(
                id=len(resources),
                kind=kind,
                cpu_capacity=template.cpu,
                ram_capacity=template.ram,
                storage_capacity=template.storage,
                failure_probability=template.failure,
                colony_id=colony_id,
            )
        )

    host(ResourceKind.CLOUD, spec.resources.cloud)
    for cid in range(spec.colonies):
        host(ResourceKind.FCM, spec.resources.fcm, cid)
        for _ in range(spec.cells_per_colony):
            host(ResourceKind.FC, spec.resources.fc, cid)
    return Landscape(tuple(resources), spec.latencies)


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


def scaled_spec(base: ScenarioSpec, replication: int) -> ScenarioSpec:
    """Replicate apps and colonies together so feasibility density holds.

    The deadlines and request rates are not copied: ``build_instance``
    cycles them over the apps, so the replicated apps get them in turn.
    """
    if not isinstance(replication, (int, np.integer)) or isinstance(replication, bool) or replication < 1:
        raise ValueError(f"replication factor must be an integer >= 1, not {replication!r}")
    return replace(base, apps=base.apps * replication, colonies=base.colonies * replication)


def scaled_scenario(base: ScenarioSpec, replication: int) -> ProblemInstance:
    return build_instance(scaled_spec(base, replication))


class _Dumper(yaml.SafeDumper):
    """``yaml.safe_dump``'s dumper, which writes a numpy scalar as the Python number it equals."""

    def represent_data(self, data):
        return super().represent_data(data.item() if isinstance(data, np.generic) else data)


def save(spec: ScenarioSpec, path) -> None:
    with open(path, "w") as fh:
        yaml.dump({"schema_version": SCHEMA_VERSION, **asdict(spec)}, fh, Dumper=_Dumper, sort_keys=False)


def read_field(where: str, hint, value):
    """A YAML value as the type ``hint`` of the field at ``where``, its
    dotted path ("" for the whole document).

    A dataclass reads a mapping whose keys are exactly its fields, each
    by its own hint.  An int field takes only an integral number, never
    a bool or a string; a float field any number but a bool; an
    optional field, such as ``float | None``, a value of its type.
    """
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ParseError(where, f"expected a mapping, got {value!r}")
        hints, prefix = get_type_hints(hint), f"{where}." if where else ""
        # an extra key, such as a misspelt copy of a field, would be read by nothing
        unknown = [f"{prefix}{key}" for key in value if key not in hints]
        if unknown:
            raise ParseError(where or "<document>", f"unknown keys {unknown}")
        values = {}
        for name, field_hint in hints.items():
            if name not in value:
                raise ParseError(prefix + name, "required field missing")
            values[name] = read_field(prefix + name, field_hint, value[name])
        try:
            return hint(**values)
        except ParseError as exc:
            if not where:  # the document's own check names its field
                raise
            raise ParseError(where, str(exc)) from exc
    if type(None) in get_args(hint):
        (hint,) = set(get_args(hint)) - {type(None)}
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ParseError(where, f"expected a list, got {value!r}")
        return tuple(read_field(f"{where}[{i}]", get_args(hint)[0], v) for i, v in enumerate(value))
    if hint is str:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if hint is float:
            try:
                return float(value)
            except OverflowError:
                raise ParseError(where, "number too large for a float") from None
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise ParseError(where, f"expected {'an integer' if hint is int else 'a number'}, got {value!r}")


def load(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError("<document>", str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("<document>", "scenario file must be a mapping")
    version = doc.pop("schema_version", None)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise UnknownVersion(f"unsupported schema_version {version!r}")
    return read_field("", ScenarioSpec, doc)
