"""``evaluate``, ``evaluate_many`` and ``response_time_report`` against a
per-app reference.

The reference is the loop form of the model: one bincount per resource
sum, a dict walk of every app's DAG in topological order, and a Python
fold of the deadline excess.  The vector kernel performs the same float
operations, one assignment at a time or a block of them at once, so
they must agree bit for bit on every input.

The scalar references that other tests check the kernel with live here
too: feasibility, a per-resource capacity audit, one resource's queue
load and one pair's latency.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fogplan.fsdp import (
    SATURATION_PENALTY,
    ObjectiveVector,
    ProblemInstance,
    ViolationVector,
    evaluate,
    evaluate_many,
)
from fogplan.model import Application, ResourceKind, Service
from fogplan.scenario import (
    Latencies,
    ScenarioSpec,
    ServiceTemplate,
    build_landscape,
    paper_scenario,
    scaled_scenario,
)
from fogplan.timing import response_time_report


def reference_sojourn(a, prob):
    """(sojourn seconds, saturated mask) of every resource; 0 where empty."""
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


def app_offsets(prob):
    """Index of each app's first service in the genotype."""
    return np.cumsum([0] + [len(app.services) for app in prob.apps[:-1]])


def reference_response_times(dep, prob):
    """Per-app critical-path response time in app order, None where saturated."""
    a = np.asarray(dep)
    sojourn, saturated = reference_sojourn(a, prob)
    lat = prob.latency_s
    out = []
    for offset, app in zip(app_offsets(prob), prob.apps):
        n = len(app.services)
        preds = {i: [] for i in range(n)}
        indeg = [0] * n
        for u, v in app.edges:
            preds[v].append(u)
            indeg[v] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        for u in order:
            for x, y in app.edges:
                if x == u:
                    indeg[y] -= 1
                    if indeg[y] == 0:
                        order.append(y)
        dist = {}
        rt = None
        for v in order:
            hv = a[offset + v]
            if saturated[hv]:
                break
            best = 0.0
            for u in preds[v]:
                cand = dist[u] + lat[a[offset + u], hv]
                if cand > best:
                    best = cand
            dist[v] = best + sojourn[hv]
        else:
            rt = max(dist.values())
        out.append(rt)
    return out


def reference_evaluate(dep, prob):
    a = np.asarray(dep)
    m = len(prob.apps)
    fog = float(np.count_nonzero(prob.is_fog[a])) / prob.n_services
    share = Fraction(0)
    for offset, app in zip(app_offsets(prob), prob.apps):
        k = len(app.services)
        hosts = a[offset:offset + k]
        met = prob.service_avail_req[offset:offset + k] <= prob.up_probability[hosts]
        share += Fraction(int(met.sum()), k)
    excesses = []
    for demand, capacity in (
        (prob.service_cpu, prob.effective_cpu),
        (prob.service_ram, prob.effective_ram),
        (prob.service_storage, prob.effective_storage),
    ):
        usage = np.bincount(a, weights=demand, minlength=prob.n_resources)
        overshoot = np.maximum(0.0, usage - capacity).sum()
        excesses.append(float(overshoot / capacity.sum()))
    deadline = 0.0
    for app, rt in zip(prob.apps, reference_response_times(a, prob)):
        if rt is None:
            deadline += SATURATION_PENALTY
        else:
            deadline += max(0.0, rt - app.deadline) / app.deadline
    return ObjectiveVector(fog, float(share / m)), ViolationVector(*excesses, deadline)


def is_zero(violations):
    """Whether a ViolationVector is all zero: the deployment is feasible."""
    return violations.total() == 0.0


def is_feasible(dep, prob):
    return is_zero(evaluate(dep, prob)[1])


def audit_capacity(dep, prob):
    """Direct per-resource check of every capacity inequality.

    Independent of the aggregated violation computation; cross-checks
    that a zero violation vector really means feasibility.
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


def resource_load(dep, prob, resource_id):
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


def latency_ms(landscape, a, b):
    """Network latency between two resources, in milliseconds.

    Paths are routed through the colony FCMs: cell -> own FCM -> peer
    FCM (or cloud) -> destination.  Same-resource latency is zero.
    ``latency_matrix`` must give the same float in entry (a, b).
    """
    if a == b:
        return 0.0
    ra, rb = landscape.resources[a], landscape.resources[b]
    if ra.colony_id == rb.colony_id:
        inter = 0.0
    elif ResourceKind.CLOUD in (ra.kind, rb.kind):
        inter = landscape.latencies.fcm_cloud_ms
    else:
        inter = landscape.latencies.fcm_fcm_ms
    hop = {ResourceKind.FC: landscape.latencies.fc_fcm_ms}
    return hop.get(ra.kind, 0.0) + inter + hop.get(rb.kind, 0.0)


latency_choices = st.sampled_from([0.0, 0.1, 0.3, 2.0, 7.7, 10.0, 100.0, 123.456])


@st.composite
def problems(draw):
    """A random landscape with random DAG apps: chains, forks, joins,
    diamonds, several sources and single services all occur."""
    spec = ScenarioSpec(
        colonies=draw(st.integers(1, 3)),
        cells_per_colony=draw(st.integers(1, 3)),
        latencies=Latencies(draw(latency_choices), draw(latency_choices), draw(latency_choices)),
        seed=draw(st.integers(0, 100)),
    )
    apps = []
    for i in range(draw(st.integers(1, 10))):
        k = draw(st.integers(1, 6))
        pairs = [(u, v) for v in range(k) for u in range(v)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        services = tuple(
            Service(
                id=(i, j),
                workload_cpu=draw(st.floats(1.0, 400.0)),
                ram_req=draw(st.floats(1.0, 300.0)),
                storage_req=draw(st.floats(1.0, 2000.0)),
                availability_req=draw(st.floats(0.5, 1.0)),
            )
            for j in range(k)
        )
        apps.append(Application(
            id=i,
            services=services,
            edges=tuple(edges),
            deadline=draw(st.floats(0.05, 300.0)),
            request_rate=draw(st.floats(0.01, 4.0)),
        ))
    return ProblemInstance(build_landscape(spec), apps)


@st.composite
def problem_and_genotypes(draw):
    prob = draw(problems())
    n, r = prob.n_services, prob.n_resources
    # genotypes over every host, and piled onto a few hosts, which saturates them
    hosts = st.lists(st.integers(0, r - 1), min_size=1, max_size=3)
    genotypes = []
    for pool in draw(st.lists(hosts, min_size=1, max_size=4)):
        spread = draw(st.booleans())
        genotypes.append(draw(st.lists(
            st.integers(0, r - 1) if spread else st.sampled_from(pool), min_size=n, max_size=n
        )))
    return prob, genotypes


@settings(max_examples=300, deadline=None)
@given(problem_and_genotypes())
def test_evaluate_and_report_match_reference(case):
    prob, genotypes = case
    for genotype in genotypes:
        assert evaluate(genotype, prob) == reference_evaluate(genotype, prob)
        report = response_time_report(genotype, prob)
        assert [report.app_rt[app.id] for app in prob.apps] == reference_response_times(
            genotype, prob
        )


def test_many_apps_match_reference():
    # 80 apps with deadlines of about a second, so most miss theirs by a
    # fraction: a pairwise sum of the deadline excess differs in the last bit
    prob = scaled_scenario(ScenarioSpec(seed=3, deadlines=(0.3, 0.5, 0.7, 1.1, 1.3)), 16)
    rng = np.random.default_rng(8)
    n, r = prob.n_services, prob.n_resources
    block = []
    for _ in range(40):
        fog = rng.integers(0, r, n)
        genotype = np.where(rng.random(n) < rng.random(), 0, fog)
        assert evaluate(genotype, prob) == reference_evaluate(genotype, prob)
        report = response_time_report(genotype, prob)
        assert [report.app_rt[app.id] for app in prob.apps] == reference_response_times(
            genotype, prob
        )
        block.append(genotype)
    assert_rows_match(np.array(block), prob)


def test_each_level_steps_over_its_own_fan_in():
    # one join of eight sources next to a chain of four: the join's level
    # takes eight predecessor rows, the chain's deeper levels one each
    def app(i, k, edges):
        services = tuple(Service((i, j), 10.0, 10.0, 10.0, 0.5) for j in range(k))
        return Application(i, services, tuple(edges), deadline=1.0, request_rate=0.5)

    join = app(0, 9, [(u, 8) for u in range(8)])
    chain = app(1, 4, [(0, 1), (1, 2), (2, 3)])
    landscape = build_landscape(ScenarioSpec(colonies=2, cells_per_colony=2))
    prob = ProblemInstance(landscape, [join, chain])
    assert [len(preds) for _, preds, _ in prob.level_steps] == [8, 1, 1]
    rng = np.random.default_rng(5)
    for _ in range(50):
        genotype = rng.integers(0, prob.n_resources, prob.n_services)
        assert evaluate(genotype, prob) == reference_evaluate(genotype, prob)


def test_each_app_reads_its_maximum_from_every_sink():
    # one app forks into sinks at depths 1, 2 and 3, next to a chain (one
    # sink) and a lone service: three sink ranks, and whichever sink holds
    # the maximum, saturated or not, every kernel path agrees with the
    # reference.  A service of 100 cpu at 0.5/s saturates an FC at 5.
    def app(i, k, edges):
        services = tuple(Service((i, j), 100.0, 10.0, 10.0, 0.5) for j in range(k))
        return Application(i, services, tuple(edges), deadline=1.0, request_rate=0.5)

    fork = app(0, 7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    chain = app(1, 4, [(0, 1), (1, 2), (2, 3)])
    landscape = build_landscape(ScenarioSpec(colonies=2, cells_per_colony=2))
    prob = ProblemInstance(landscape, [fork, chain, app(2, 1, [])])
    assert len(prob.sink_ranks) == 3
    rng = np.random.default_rng(9)
    n, r = prob.n_services, prob.n_resources
    piled = [rng.choice(rng.integers(0, r, k), n) for k in (1, 2, 3) * 10]
    block = np.array(piled + [rng.integers(0, r, n) for _ in range(30)])
    for genotype in block:
        report = response_time_report(genotype, prob)
        assert [report.app_rt[a.id] for a in prob.apps] == reference_response_times(genotype, prob)
    violations = assert_rows_match(block, prob)
    assert np.count_nonzero(violations[:, 3] >= SATURATION_PENALTY) >= 5
    objectives, violations = evaluate_many(np.zeros((0, n), dtype=int), prob)
    assert objectives.shape == (0, 2) and violations.shape == (0, 4)


def assert_rows_match(block, prob):
    """evaluate_many of a block equals, row by row, evaluate and the
    reference: row p of its objective and violation arrays holds the
    fields of evaluate's two vectors for genotype p.  Returns the
    violations."""
    objectives, violations = evaluate_many(block, prob)
    assert objectives.shape == (len(block), 2)
    assert violations.shape == (len(block), 4)
    for genotype, o, v in zip(block, objectives.tolist(), violations.tolist()):
        assert (ObjectiveVector(*o), ViolationVector(*v)) == evaluate(genotype, prob) == reference_evaluate(
            genotype, prob
        )
    return violations


@settings(max_examples=150, deadline=None)
@given(problem_and_genotypes())
def test_evaluate_many_matches_reference_row_by_row(case):
    # blocks of 1-4 rows, spread over every host or piled onto 1-3 of them
    prob, genotypes = case
    assert_rows_match(np.array(genotypes), prob)


def test_evaluate_many_of_one_row():
    prob = paper_scenario()
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert_rows_match(rng.integers(0, prob.n_resources, (1, prob.n_services)), prob)


def test_evaluate_many_on_saturated_rows():
    # every row piled onto one to three hosts, next to spread rows
    for prob in (paper_scenario(), scaled_scenario(ScenarioSpec(seed=1), 4)):
        rng = np.random.default_rng(4)
        n, r = prob.n_services, prob.n_resources
        piled = [rng.choice(rng.integers(0, r, k), n) for k in (1, 2, 3) * 10]
        block = np.array(piled + [rng.integers(0, r, n) for _ in range(10)])
        violations = assert_rows_match(block, prob)
        assert np.count_nonzero(violations[:, 3] >= SATURATION_PENALTY) >= 5


def test_evaluate_many_sums_overshoot_over_many_hosts():
    # R = 41 and more than 8 hosts over their cpu capacity in every row: a
    # sum over R in another order than evaluate's pairwise one moves the
    # last bit.  The default demands are integers, whose sums are exact in
    # any order, so these are not.
    templates = (
        ServiceTemplate("sense", 47.3, 21.1, 13.3, 0.8, 0.95),
        ServiceTemplate("process", 113.9, 33.7, 27.9, 0.7, 0.95),
        ServiceTemplate("actuate", 201.7, 17.9, 9.1, 0.9, 1.0),
    )
    prob = scaled_scenario(ScenarioSpec(service_templates=templates, reserve_fraction=0.13), 4)
    rng = np.random.default_rng(6)
    block = rng.integers(1, prob.n_resources, (60, prob.n_services))
    cpu = prob.resource_loads(block)[0]
    assert prob.n_resources == 41
    assert (cpu > prob.effective_cpu).sum(axis=1).min() > 8
    assert_rows_match(block, prob)
