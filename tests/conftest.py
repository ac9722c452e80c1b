import numpy as np
import pytest

from fogplan.fsdp import ProblemInstance
from fogplan.model import (
    Application,
    Landscape,
    Latencies,
    Resource,
    ResourceKind,
    Service,
)
from fogplan.moea import Solution
from fogplan.moea.common import Scored
from fogplan.scenario import DEFAULT_DEADLINES, ScenarioSpec, build_instance


#: (key, YAML value) pairs that a scenario file must be rejected for; a
#: key as ``set_scenario_key`` takes it
BAD_SCENARIO_FIELDS = [
    pytest.param("request_rates", [-0.5], id="request_rates--0.5"),
    pytest.param("deadlines", [-60.0], id="deadlines--60.0"),
    pytest.param("reserve_fraction", 1.5, id="reserve_fraction-1.5"),
    pytest.param("deadlines", [float("nan")], id="deadlines-nan"),
    pytest.param("request_rates", [float("inf")], id="request_rates-inf"),
    pytest.param("colonies", 2.5, id="colonies-2.5"),
    pytest.param("colonies", True, id="colonies-true"),
    pytest.param("apps", "3", id="apps-str"),
    pytest.param("seed", 1.9, id="seed-1.9"),
    pytest.param("seed", -1, id="seed--1"),
    pytest.param("service_templates", [], id="service_templates-empty"),
    pytest.param("service_templates.0.cpu", -5, id="service_cpu--5"),
    pytest.param("service_templates.0.ram", "abc", id="service_ram-abc"),
    pytest.param("service_templates.1.cpu", float("inf"), id="service_cpu-inf"),
    pytest.param("resources.fc.cpu", float("nan"), id="fc_cpu-nan"),
    pytest.param("reserve_fraction", 10**400, id="reserve_fraction-huge"),
    pytest.param("cells_per_colony", 70000, id="cells_per_colony-70000"),
    # 1 + 2 * (1 + 2047) = 4097 resources, one past MAX_RESOURCES
    pytest.param("cells_per_colony", 2047, id="cells_per_colony-2047"),
]


def set_scenario_key(doc, key, value):
    """Set ``key`` in a scenario document read from a saved file.

    A dotted key is a path from the top, with list indices as digits; a
    bare latency key sits under "latencies", any other bare key at the
    top level.
    """
    *path, last = key.split(".")
    node = doc["latencies"] if not path and last in doc["latencies"] else doc
    for part in path:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[last] = value


def scenario_error_names(key):
    """What the error for a bad ``key`` must name: its last part."""
    return key.rsplit(".", 1)[-1]


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
    return Landscape(tuple(resources), Latencies())


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


def tight_deadline_instance(seed):
    """``tiny_instance`` with every deadline scaled by 0.003, so that the
    deadline term, not capacity alone, shapes the exact front."""
    return build_instance(ScenarioSpec(
        colonies=1, cells_per_colony=2, apps=2, services_per_app=3, seed=seed,
        deadlines=tuple(0.003 * d for d in DEFAULT_DEADLINES),
    ))


def rate_bound_instance(seed):
    """``tiny_instance`` with every app requested 5 times a second, so that
    the hosts' queueing, through the deadline term, shapes the exact front."""
    return build_instance(ScenarioSpec(
        colonies=1, cells_per_colony=2, apps=2, services_per_app=3, seed=seed, request_rates=(5.0,),
    ))


def solution(genotype, objectives, violations):
    """A Solution whose total violation is its ViolationVector's, as a
    scored block computes it."""
    return Solution(genotype, objectives, violations.total())


def dense_rank(keys):
    """Each key's dense rank: how many distinct keys are less than it."""
    return [len({k for k in keys if k < key}) for key in keys]


def scored_rows(solutions):
    """The Scored block whose rows hold ``solutions``' fields."""
    return Scored(
        np.array([list(s.genotype) for s in solutions], dtype=np.int64),
        np.array([s.objectives.as_tuple() for s in solutions]).reshape(-1, 2),
        np.array([s.total_violation for s in solutions]),
    )


def random_solutions(rng, count, feasible_fraction=0.7, violation_levels=None):
    """Synthetic evaluated solutions for dominance/archive property tests.

    With ``violation_levels``, an infeasible member's total violation is
    one of that many values, so that infeasible members share totals.
    """
    from fogplan.fsdp import ObjectiveVector, ViolationVector

    out = []
    for i in range(count):
        feas = rng.random() < feasible_fraction
        if feas:
            cpu = deadline = 0.0
        elif violation_levels:
            cpu, deadline = float(rng.integers(1, violation_levels + 1)), 0.0
        else:
            cpu, deadline = float(rng.random()), float(rng.random())
        violations = ViolationVector(
            cpu_excess=cpu, ram_excess=0.0, storage_excess=0.0, deadline_excess=deadline
        )
        out.append(
            solution(
                (i,),
                ObjectiveVector(
                    fog_utilization=float(rng.integers(0, 5)) / 4.0,
                    availability=float(rng.integers(0, 5)) / 4.0,
                ),
                violations,
            )
        )
    return out
