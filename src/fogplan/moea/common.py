"""Shared multiobjective machinery: dominance, archives, metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BudgetTooSmall, EmptyArchive, EmptyFront
from ..fsdp import ObjectiveVector, ProblemInstance, ViolationVector, evaluate


@dataclass(frozen=True, slots=True)
class Solution:
    genotype: tuple[int, ...]
    objectives: ObjectiveVector
    violations: ViolationVector
    # stored: dominance checks read these millions of times per run
    feasible: bool = field(init=False, repr=False, compare=False)
    total_violation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "feasible", self.violations.is_zero())
        object.__setattr__(self, "total_violation", self.violations.total())


def make_solution(assignment, prob: ProblemInstance) -> Solution:
    a = np.asarray(assignment)
    objectives, violations = evaluate(a, prob)
    return Solution(genotype=tuple(a.tolist()), objectives=objectives, violations=violations)


def pareto_dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Dominance on maximized objectives: >= on both, > on at least one."""
    au, av = a.fog_utilization, a.availability
    bu, bv = b.fog_utilization, b.availability
    return au >= bu and av >= bv and (au > bu or av > bv)


def constrained_dominates(a: Solution, b: Solution) -> bool:
    """Feasibility-first dominance.

    A feasible solution beats any infeasible one; among infeasible
    solutions less total violation wins; among feasible ones standard
    Pareto dominance applies.
    """
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible:
        return a.total_violation < b.total_violation
    ao, bo = a.objectives, b.objectives
    au, av = ao.fog_utilization, ao.availability
    bu, bv = bo.fog_utilization, bo.availability
    return au >= bu and av >= bv and (au > bu or av > bv)


def fast_nondominated_sort(population: list[Solution]) -> list[list[Solution]]:
    """Partition a population into constrained-dominance fronts."""
    n = len(population)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if constrained_dominates(population[i], population[j]):
                dominated_by[i].append(j)
            elif constrained_dominates(population[j], population[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return [[population[i] for i in front] for front in fronts if front]


def crowding_distance(front: list[Solution]) -> list[float]:
    """NSGA-II crowding distance per front member (order independent)."""
    n = len(front)
    if n == 0:
        return []
    dist = [0.0] * n
    for key in (lambda s: s.objectives.fog_utilization, lambda s: s.objectives.availability):
        order = sorted(range(n), key=lambda i: (key(front[i]), front[i].genotype))
        lo, hi = key(front[order[0]]), key(front[order[-1]])
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for pos in range(1, n - 1):
            gap = key(front[order[pos + 1]]) - key(front[order[pos - 1]])
            dist[order[pos]] += gap / span
    return dist


class ParetoArchive:
    """Bounded archive of mutually non-dominated, feasible-first solutions.

    No two members share an objective vector.

    Truncation beyond capacity drops the most crowded member (smallest
    crowding distance).
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.members: list[Solution] = []

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def add(self, candidate: Solution) -> bool:
        """Offer a solution; returns True when it was retained.

        One genotype per objective vector: a candidate whose objectives
        equal a member's is rejected unless it dominates that member
        (a feasible candidate replacing an infeasible one, or less
        violation), so the first genotype found for a point is kept.
        """
        for member in self.members:
            if constrained_dominates(member, candidate):
                return False
            if member.objectives == candidate.objectives and not constrained_dominates(candidate, member):
                return False
        self.members = [m for m in self.members if not constrained_dominates(candidate, m)]
        self.members.append(candidate)
        if len(self.members) > self.capacity:
            self._truncate()
        return candidate in self.members

    def _truncate(self):
        dist = crowding_distance(self.members)
        order = sorted(range(len(self.members)), key=lambda i: dist[i])
        drop = order[0]
        self.members = [m for i, m in enumerate(self.members) if i != drop]

    def objective_set(self) -> set[tuple[float, float]]:
        return {m.objectives.as_tuple() for m in self.members}


def hypervolume_2d(front: list[ObjectiveVector], ref: ObjectiveVector) -> float:
    """Area dominated by a maximized 2-objective front, bounded by ref."""
    if not front:
        raise EmptyFront("hypervolume of an empty front")
    pts = sorted(
        ((p.fog_utilization, p.availability) for p in front),
        key=lambda t: (-t[0], -t[1]),
    )
    hv = 0.0
    best_second = ref.availability
    for f1, f2 in pts:
        if f2 > best_second:
            hv += (f1 - ref.fog_utilization) * (f2 - best_second)
            best_second = f2
    return hv


def select_compromise(archive: ParetoArchive) -> Solution:
    """Archive member that maximises min(fog utilization, availability).

    This is the smallest equal-weight Tchebycheff distance to the utopia
    point (1, 1); both objectives are shares in [0, 1], so they need no
    normalisation.  Unlike the equal-weight sum, the rule is defined on a
    flat front: on the reference scenario the front lies on a line
    u + a = const, where every member has the same sum, and min(u, a)
    picks its balanced middle.  Ties prefer the larger max(u, a), then
    higher availability, then lower lexicographic genotype.
    """
    if not archive.members:
        raise EmptyArchive("cannot select from an empty archive")

    def key(s: Solution):
        u, a = s.objectives.fog_utilization, s.objectives.availability
        return (min(u, a), max(u, a), a, [-g for g in s.genotype])

    return max(archive.members, key=key)


@dataclass(frozen=True)
class AlgoParams:
    """Run parameters shared by the three algorithms.

    Unused knobs are ignored by algorithms that do not need them.
    """

    population_size: int = 40
    max_evaluations: int = 1000
    seed: int = 0
    # MOPSO
    inertia: float = 0.4
    cognitive: float = 1.5
    social: float = 1.5
    # external archive of every algorithm; reference-scenario fronts have
    # at most 17 points, a 400-service front about 200
    archive_capacity: int = 50
    grid_divisions: int = 7
    mutation_rate: float = 0.1
    # NSGA-II
    crossover_prob: float = 0.9
    mutation_prob: float | None = None  # default 1 / genotype length
    # MOEA/D
    neighborhood_size: int = 10
    weight_resolution: int | None = None  # default population_size - 1

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be >= 4 and even")
        if min(self.inertia, self.cognitive, self.social) < 0:
            raise ValueError("inertia, cognitive and social must be >= 0 (MOPSO move weights)")
        if min(self.archive_capacity, self.grid_divisions, self.neighborhood_size) < 1:
            raise ValueError("archive_capacity, grid_divisions and neighborhood_size must be >= 1")

    def check_budget(self):
        if self.max_evaluations < self.population_size:
            raise BudgetTooSmall(
                f"max_evaluations {self.max_evaluations} < population {self.population_size}"
            )


@dataclass(frozen=True)
class GenerationStats:
    evaluations: int
    best_fog_utilization: float
    best_availability: float
    compromise_fog_utilization: float
    compromise_availability: float
    hypervolume: float
    feasible_fraction: float


def generation_stats(archive: ParetoArchive, population: list[Solution], evaluations: int) -> GenerationStats:
    if archive.members:
        best_u = max(m.objectives.fog_utilization for m in archive.members)
        best_a = max(m.objectives.availability for m in archive.members)
        comp = select_compromise(archive).objectives
        hv = hypervolume_2d([m.objectives for m in archive.members], ObjectiveVector(0.0, 0.0))
        comp_u, comp_a = comp.fog_utilization, comp.availability
    else:
        best_u = best_a = comp_u = comp_a = hv = 0.0
    feas = sum(1 for s in population if s.feasible) / len(population) if population else 0.0
    return GenerationStats(
        evaluations=evaluations,
        best_fog_utilization=best_u,
        best_availability=best_a,
        compromise_fog_utilization=comp_u,
        compromise_availability=comp_a,
        hypervolume=hv,
        feasible_fraction=feas,
    )


def greedy_anchors(prob: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Two greedy placements at the ends of the fog/availability front.

    Services are placed largest CPU demand first.  The first anchor puts
    each service on the least-available fog host that still meets its
    availability requirement and has cpu, ram and storage left, and
    leaves it on the cloud otherwise: the most fog use at full
    availability.  The second anchor then moves the remaining cloud
    services onto any fog host with room (the one with most cpu left):
    the most fog use at that availability's cost.
    """
    cloud = prob.landscape.cloud
    fog = np.flatnonzero(prob.is_fog)
    fog = fog[np.argsort(prob.up_probability[fog], kind="stable")]  # least available first
    up = prob.up_probability[fog]
    capacity = np.stack([prob.effective_cpu, prob.effective_ram, prob.effective_storage], axis=1)[fog]
    demand = np.stack([prob.service_cpu, prob.service_ram, prob.service_storage], axis=1)
    used = np.zeros_like(capacity)
    order = np.argsort(-prob.service_cpu, kind="stable")

    def room(svc) -> np.ndarray:
        return (used + demand[svc] <= capacity).all(axis=1)

    def place(genotype, svc, k):
        genotype[svc] = fog[k]
        used[k] += demand[svc]

    available = np.full(prob.n_services, cloud, dtype=np.int64)
    for svc in order:
        hosts = np.flatnonzero(room(svc) & (up >= prob.service_avail_req[svc]))
        if hosts.size:
            place(available, svc, hosts[0])
    fog_rich = available.copy()
    for svc in order[fog_rich[order] == cloud]:
        hosts = np.flatnonzero(room(svc))
        if hosts.size:
            place(fog_rich, svc, hosts[np.argmax(capacity[hosts, 0] - used[hosts, 0])])
    return available, fog_rich


def initial_population(prob: ProblemInstance, size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniform random assignments plus three anchors, last.

    The anchors are the all-cloud placement and the two
    ``greedy_anchors``, so that a short run starts with both ends of the
    front in reach rather than only its low-fog end.
    """
    pop = [
        rng.integers(0, prob.n_resources, size=prob.n_services)
        for _ in range(size - 3)
    ]
    pop.append(np.full(prob.n_services, prob.landscape.cloud, dtype=np.int64))
    pop.extend(greedy_anchors(prob))
    return pop


def uniform_crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    mask = rng.random(p1.shape[0]) < 0.5
    c1 = np.where(mask, p1, p2)
    c2 = np.where(mask, p2, p1)
    return c1, c2


def reset_mutation(child: np.ndarray, rate: float, n_resources: int, rng: np.random.Generator) -> np.ndarray:
    mask = rng.random(child.shape[0]) < rate
    if mask.any():
        child = child.copy()
        child[mask] = rng.integers(0, n_resources, size=int(mask.sum()))
    return child
