import numpy as np
import pytest

from fogplan.fsdp import ProblemInstance
from fogplan.model import (
    Application,
    Colony,
    Landscape,
    Resource,
    ResourceKind,
    Service,
)
from fogplan.scenario import ScenarioSpec, build_instance


def make_resource(rid, kind, colony=None, cpu=1000.0, ram=1000.0, storage=1000.0, failure=0.1):
    return Resource(
        id=rid,
        kind=kind,
        cpu_capacity=cpu,
        ram_capacity=ram,
        storage_capacity=storage,
        failure_probability=failure,
        colony_id=colony,
    )


def make_service(app_idx, svc_idx, cpu=10.0, ram=10.0, storage=10.0, avail=0.5):
    return Service(
        id=(app_idx, svc_idx),
        workload_cpu=cpu,
        ram_req=ram,
        storage_req=storage,
        availability_req=avail,
    )


def chain_app(app_idx, services, deadline=100.0, rate=0.1):
    edges = tuple((j, j + 1) for j in range(len(services) - 1))
    return Application(
        id=app_idx,
        services=tuple(services),
        edges=edges,
        deadline=deadline,
        request_rate=rate,
    )


@pytest.fixture
def two_colony_landscape():
    """Cloud + two colonies (FCM + 2 FCs each); paper failure rates."""
    resources = [
        make_resource(0, ResourceKind.CLOUD, failure=0.00001, cpu=200000, ram=200000, storage=1e9),
        make_resource(1, ResourceKind.FCM, colony=0, failure=0.10, cpu=1000, ram=512, storage=10000),
        make_resource(2, ResourceKind.FC, colony=0, failure=0.20, cpu=250, ram=256, storage=1000),
        make_resource(3, ResourceKind.FC, colony=0, failure=0.20, cpu=250, ram=256, storage=1000),
        make_resource(4, ResourceKind.FCM, colony=1, failure=0.10, cpu=1000, ram=512, storage=10000),
        make_resource(5, ResourceKind.FC, colony=1, failure=0.20, cpu=250, ram=256, storage=1000),
    ]
    colonies = (
        Colony(id=0, fcm=1, cells=(2, 3), neighbor_latency={1: 10.0}),
        Colony(id=1, fcm=4, cells=(5,), neighbor_latency={0: 10.0}),
    )
    return Landscape(
        cloud=0,
        colonies=colonies,
        resources=tuple(resources),
        cloud_latency={0: 100.0, 1: 100.0},
    )


@pytest.fixture
def small_problem(two_colony_landscape):
    """2 apps x 2 services; everything fits everywhere."""
    apps = [
        chain_app(0, [make_service(0, j, avail=0.5) for j in range(2)]),
        chain_app(1, [make_service(1, j, avail=0.5) for j in range(2)]),
    ]
    return ProblemInstance(two_colony_landscape, apps, reserve_fraction=0.1)


@pytest.fixture
def paper_problem():
    return build_instance(ScenarioSpec(seed=0))


def tiny_instance(seed):
    """4 resources, 6 services: 4^6 = 4096 assignments, oracle-enumerable."""
    return build_instance(
        ScenarioSpec(colonies=1, cells_per_colony=2, apps=2, services_per_app=3, seed=seed)
    )


def random_solutions(rng, count, feasible_fraction=0.7):
    """Synthetic evaluated solutions for dominance/archive property tests."""
    from fogplan.fsdp import ObjectiveVector, ViolationVector
    from fogplan.moea import Solution

    out = []
    for i in range(count):
        feas = rng.random() < feasible_fraction
        violations = ViolationVector(
            cpu_excess=0.0 if feas else float(rng.random()),
            ram_excess=0.0,
            storage_excess=0.0,
            deadline_excess=0.0 if feas else float(rng.random()),
        )
        out.append(
            Solution(
                genotype=(i,),
                objectives=ObjectiveVector(
                    fog_utilization=float(rng.integers(0, 5)) / 4.0,
                    availability=float(rng.integers(0, 5)) / 4.0,
                ),
                violations=violations,
            )
        )
    return out
