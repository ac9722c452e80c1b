"""Shared multiobjective machinery: dominance, archives, metrics, and the
run object that scores each generation.

A generation is scored into arrays (``Scored``).  Its rows are offered
to the archive on their floats (``ParetoArchive.admits``), and a
``Solution`` is built only for a row the archive admits, or, once per
row, where an optimizer keeps whole rows as objects
(``Search.evaluate_solutions``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, neg
from typing import NamedTuple

import numpy as np

from ..errors import BudgetTooSmall, EmptyArchive, EmptyFront
from ..fsdp import ObjectiveVector, ProblemInstance, evaluate_many


@dataclass(frozen=True, slots=True)
class Solution:
    genotype: Sequence[int]  # an array('H') of resource ids from Scored.packer
    objectives: ObjectiveVector
    total_violation: float  # cpu, ram, storage and deadline excess summed; 0 is feasible

    @property
    def feasible(self) -> bool:
        return self.total_violation == 0.0


class Scored(NamedTuple):
    """A block of genotypes scored as arrays, one row per genotype.

    ``total`` sums each row's violations as c0 + c1 + c2 + c3, the same
    float as ``ViolationVector.total``; a row is feasible where it is 0.
    """

    genotypes: np.ndarray  # (P, N) resource ids, checked
    objectives: np.ndarray  # (P, 2) fog utilization, availability
    total: np.ndarray  # (P,) total violation

    def packer(self) -> Callable[[int], Solution]:
        """``pack(i)``, the Solution of row i.

        The block's ids were checked when it was scored: they lie in [0,
        n_resources), and n_resources <= MAX_RESOURCES < 65536, so one
        conversion of the whole block packs them two bytes each, exactly,
        and each row takes its slice as an array('H').  The array orders
        like the tuple of its ids, but is not equal to it and is not
        hashable.
        """
        width = 2 * self.genotypes.shape[1]
        ids = self.genotypes.astype(np.uint16).tobytes()
        objectives, total = self.objectives.tolist(), self.total.tolist()

        def pack(i: int) -> Solution:
            return Solution(array("H", ids[i * width:(i + 1) * width]), ObjectiveVector(*objectives[i]), total[i])

        return pack

    def solutions(self) -> list[Solution]:
        """The Solution of every row, in order."""
        return list(map(self.packer(), range(len(self.genotypes))))


def score_block(genotypes, prob: ProblemInstance) -> Scored:
    """Score a (P, N) block of genotypes in one ``evaluate_many``."""
    block = np.asarray(genotypes)
    objectives, violations = evaluate_many(block, prob)
    return Scored(block, objectives, violations[:, 0] + violations[:, 1] + violations[:, 2] + violations[:, 3])


def make_solution(assignment, prob: ProblemInstance) -> Solution:
    """Score one assignment (N,) as a block of one row."""
    return score_block(np.asarray(assignment)[None], prob).solutions()[0]


def dominates(au: float, aa: float, bu: float, ba: float) -> bool:
    """Whether objectives (au, aa) dominate (bu, ba), both maximized:
    >= on both, > on at least one."""
    return au >= bu and aa >= ba and (au > bu or aa > ba)


def pareto_dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """``dominates`` on two objective vectors."""
    return dominates(a.fog_utilization, a.availability, b.fog_utilization, b.availability)


def constrained_dominates(a: Solution, b: Solution) -> bool:
    """Feasibility-first dominance (Deb et al., IEEE TEC 2002): less
    total violation wins, and standard Pareto dominance applies only
    between two feasible solutions."""
    if a.total_violation != b.total_violation:
        return a.total_violation < b.total_violation
    return not a.total_violation and pareto_dominates(a.objectives, b.objectives)


def fast_nondominated_sort(population: list[Solution]) -> list[list[Solution]]:
    """Partition a population into constrained-dominance fronts.

    Two objectives let one sort find the feasible fronts (Jensen, IEEE
    TEC 2003): in order of decreasing (u, a), each member joins the
    first front whose latest member does not dominate it.  Those latest
    members dominate a newcomer up to some front and not from it on, so
    a binary search finds that front.  The infeasible members follow,
    one front per distinct total violation, least first.
    """
    fronts = []
    violation = attrgetter("total_violation")
    for total, group in groupby(sorted(population, key=violation), key=violation):
        if total:
            fronts.append(list(group))
            continue
        for s in sorted(group, key=lambda s: (-s.objectives.fog_utilization, -s.objectives.availability)):
            k = bisect_left(
                fronts, True, key=lambda front: not pareto_dominates(front[-1].objectives, s.objectives)
            )
            if k == len(fronts):
                fronts.append([])
            fronts[k].append(s)
    return fronts


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
    """Bounded archive under feasibility-first dominance.

    Every member has the same total violation, ``violation`` (``inf``
    while empty): a candidate with less clears the archive, and one with
    more is rejected.  At 0 the members are mutually non-dominated;
    above it they are the distinct objective vectors found at that
    violation.  No two members share an objective vector, and the first
    genotype found for a point is kept.

    ``members`` keeps insertion order.  At 0 the members are also kept
    as a staircase sorted by fog utilization, so by availability
    descending (Fieldsend et al., IEEE TEC 2003): one bisect tests a
    candidate, and the members it dominates form one contiguous run.

    Truncation beyond capacity drops the most crowded member (smallest
    crowding distance), the earliest inserted of them on a tie.
    """

    def __init__(self, capacity: int = 100):
        if not (float(capacity).is_integer() and capacity >= 1):
            raise ValueError("capacity must be an integer >= 1")
        self.capacity = capacity
        self.members: list[Solution] = []
        self.violation = math.inf
        # the staircase at violation 0, sorted by u; a member's u names it
        self._us: list[float] = []
        self._as: list[float] = []

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def admits(self, u: float, a: float, total: float) -> bool:
        """Whether a candidate with objectives (u, a) and total violation
        joins the archive.  Decided on floats, so a scored row is tested
        before it is packed."""
        if total != self.violation:
            return total < self.violation
        if total:  # only a member with equal objectives rejects it
            return (u, a) not in [m.objectives.as_tuple() for m in self.members]
        # of the members with u' >= u, the first has the largest a'; one
        # with a' >= a dominates the candidate or equals it
        p = bisect_left(self._us, u)
        return p == len(self._us) or self._as[p] < a

    def add(self, candidate: Solution) -> bool:
        """Offer a solution; returns True when it was retained.  ``admits``
        decides; a feasible candidate then drops the members it dominates."""
        u, a = candidate.objectives.fog_utilization, candidate.objectives.availability
        total = candidate.total_violation
        if not self.admits(u, a, total):
            return False
        if total < self.violation:
            self.violation, self.members, self._us, self._as = total, [], [], []
        if not total:
            # the dominated members: u' <= u, so below j, and a' <= a, so from k on
            j = bisect_right(self._us, u)
            k = bisect_left(self._as, -a, 0, j, key=neg)
            if k < j:
                gone = set(self._us[k:j])
                self.members = [m for m in self.members if m.objectives.fog_utilization not in gone]
            self._us[k:j], self._as[k:j] = [u], [a]
        self.members.append(candidate)
        if len(self.members) > self.capacity:
            return self._truncate() is not candidate
        return True

    def _truncate(self) -> Solution:
        """Drop the most crowded member, the first of them, and return it."""
        if self.violation:
            dist = crowding_distance(self.members)
            return self.members.pop(min(range(len(dist)), key=dist.__getitem__))
        # crowding_distance on the staircase: each member's neighbours give
        # its gaps, the u term added first, and the two ends are inf
        us, as_ = self._us, self._as
        span_u, span_a = us[-1] - us[0], as_[0] - as_[-1]
        dist = [(u2 - u0) / span_u + (a0 - a2) / span_a for u0, u2, a0, a2 in zip(us, us[2:], as_, as_[2:])]
        dist = [math.inf, *dist, math.inf]
        least = min(dist)
        tied = {u for u, d in zip(us, dist) if d == least}
        victim = self.members.pop(next(i for i, m in enumerate(self.members) if m.objectives.fog_utilization in tied))
        p = bisect_left(us, victim.objectives.fog_utilization)
        del us[p], as_[p]
        return victim

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
        return (-min(u, a), -max(u, a), -a, s.genotype)

    return min(archive.members, key=key)


@dataclass(frozen=True)
class AlgoParams:
    """Run parameters shared by the three algorithms.

    Unused knobs are ignored by algorithms that do not need them.
    MOEA/D has no knob of its own: it decomposes into one subproblem per
    population member, and every child competes for every subproblem.
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
    grid_divisions: int = 7  # MOPSO's guide grid over the archive
    mutation_rate: float = 0.1  # MOPSO
    # NSGA-II
    crossover_prob: float = 0.9
    # NSGA-II and MOEA/D, per gene; default 1 / genotype length
    mutation_prob: float | None = None

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be >= 4 and even")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # a NaN weight would freeze the swarm, an infinite grid give NaN cells
        if not all(0 <= w < math.inf for w in (self.inertia, self.cognitive, self.social)):
            raise ValueError("inertia, cognitive and social must be finite and >= 0 (MOPSO move weights)")
        if not all(float(n).is_integer() and n >= 1 for n in (self.archive_capacity, self.grid_divisions)):
            raise ValueError("archive_capacity and grid_divisions must be integers >= 1")
        probabilities = (self.crossover_prob, self.mutation_rate, self.mutation_prob)
        if not all(p is None or 0.0 <= p <= 1.0 for p in probabilities):
            raise ValueError("crossover_prob, mutation_rate and mutation_prob must lie in [0, 1]")
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


def generation_stats(archive: ParetoArchive, feasible: Sequence[bool], evaluations: int) -> GenerationStats:
    """Quality of a run so far, given the population's feasibility flags;
    the archive holds a member once anything was scored."""
    objectives = [m.objectives for m in archive.members]
    comp = select_compromise(archive).objectives
    return GenerationStats(
        evaluations=evaluations,
        best_fog_utilization=max(o.fog_utilization for o in objectives),
        best_availability=max(o.availability for o in objectives),
        compromise_fog_utilization=comp.fog_utilization,
        compromise_availability=comp.availability,
        hypervolume=hypervolume_2d(objectives, ObjectiveVector(0.0, 0.0)),
        feasible_fraction=int(np.count_nonzero(feasible)) / len(feasible),
    )


class Search:
    """What every optimizer's run shares: one random stream, the external
    archive, the evaluation budget and the trace report.

    Every optimizer runs in synchronous generations: it builds up to
    ``left`` children against the archive and population as they stood
    at the generation's start, scores them in one ``evaluate_many``, and
    only then applies its per-child updates in index order.  It draws
    from ``rng`` and stops when ``left`` reaches 0.
    """

    def __init__(self, prob: ProblemInstance, params: AlgoParams, trace_hook=None):
        self.prob = prob
        self.rng = np.random.default_rng(params.seed)
        self.archive = ParetoArchive(capacity=params.archive_capacity)
        self.evaluations = 0
        self.max_evaluations = params.max_evaluations
        self.trace_hook = trace_hook
        self.mutation_prob = params.mutation_prob
        if self.mutation_prob is None:
            self.mutation_prob = 1.0 / max(1, prob.n_services)

    @property
    def left(self) -> int:
        """Evaluations still allowed."""
        return self.max_evaluations - self.evaluations

    def evaluate_many(self, genomes) -> Scored:
        """Score a generation's genotypes in one batch, count them and
        offer them to the archive in order.

        Only a row that the archive admits becomes a Solution, and it
        goes through ``ParetoArchive.add``.
        """
        scored = score_block(genomes, self.prob)
        self._offer(scored, scored.packer())
        return scored

    def evaluate_solutions(self, genomes) -> list[Solution]:
        """``evaluate_many`` for an optimizer that keeps every row: the
        Solution of each row, packed once, and the archive holds the same
        objects."""
        scored = score_block(genomes, self.prob)
        solutions = scored.solutions()
        self._offer(scored, solutions.__getitem__)
        return solutions

    def _offer(self, scored: Scored, pack: Callable[[int], Solution]) -> None:
        """Count a scored block and pass ``add`` the Solution of each row
        that the archive admits, in order."""
        self.evaluations += len(scored.genotypes)
        archive = self.archive
        for i, ((u, a), total) in enumerate(zip(scored.objectives.tolist(), scored.total.tolist())):
            if archive.admits(u, a, total):
                archive.add(pack(i))

    def report(self, feasible: Sequence[bool]) -> None:
        """Hand the trace hook this generation's stats, given the
        population's feasibility flags."""
        if self.trace_hook:
            self.trace_hook(generation_stats(self.archive, feasible, self.evaluations))


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
    capacity = prob.effective_capacity.T[fog]
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
    mask = rng.random(p1.shape) < 0.5
    return np.where(mask, p1, p2), np.where(mask, p2, p1)


def reset_mutation(child: np.ndarray, rate: float, n_resources: int, rng: np.random.Generator) -> np.ndarray:
    mask = rng.random(child.shape) < rate
    child = child.copy()
    child[mask] = rng.integers(0, n_resources, size=int(mask.sum()))
    return child
