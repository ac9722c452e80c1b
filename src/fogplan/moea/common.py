"""Shared multiobjective machinery: dominance, archives, metrics, and the
run object that scores each generation.

A generation is scored into arrays (``Scored``), and every optimizer
keeps its population as such rows.  The rows are offered to the archive
on their floats (``ParetoArchive.place``), and a ``Solution`` is built
only for a row the archive admits.  The non-dominated sort runs on
arrays and crowding on float lists, by row index; ``Solution`` forms adapt.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain, groupby
from operator import neg
from typing import NamedTuple

import numpy as np

from ..errors import BudgetTooSmall, EmptyArchive, EmptyFront
from ..fsdp import ObjectiveVector, ProblemInstance, evaluate_many


@dataclass(frozen=True, slots=True)
class Solution:
    genotype: Sequence[int]  # an array('H') of resource ids from Scored.solution
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

    def solution(self, i: int) -> Solution:
        """The Solution of row i.

        The block's ids were checked when it was scored: they lie in [0,
        n_resources), and n_resources <= MAX_RESOURCES < 65536, so they
        pack two bytes each, exactly, as an array('H').  The array orders
        like the tuple of its ids, but is not equal to it and is not
        hashable.
        """
        ids = array("H", self.genotypes[i].astype(np.uint16).tobytes())
        return Solution(ids, ObjectiveVector(*self.objectives[i].tolist()), float(self.total[i]))


def score_block(genotypes, prob: ProblemInstance) -> Scored:
    """Score a (P, N) block of genotypes in one ``evaluate_many``."""
    block = np.asarray(genotypes)
    objectives, violations = evaluate_many(block, prob)
    return Scored(block, objectives, violations[:, 0] + violations[:, 1] + violations[:, 2] + violations[:, 3])


def make_solution(assignment, prob: ProblemInstance) -> Solution:
    """Score one assignment (N,) as a block of one row."""
    return score_block(np.asarray(assignment)[None], prob).solution(0)


def pareto_dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Whether a dominates b, both maximized: >= on both objectives, > on at least one."""
    au, aa, bu, ba = a.fog_utilization, a.availability, b.fog_utilization, b.availability
    return au >= bu and aa >= ba and (au > bu or aa > ba)


def constrained_dominates(a: Solution, b: Solution) -> bool:
    """Feasibility-first dominance (Deb et al., IEEE TEC 2002): less
    total violation wins, and standard Pareto dominance applies only
    between two feasible solutions."""
    if a.total_violation != b.total_violation:
        return a.total_violation < b.total_violation
    return not a.total_violation and pareto_dominates(a.objectives, b.objectives)


def nondominated_rows(u: np.ndarray, a: np.ndarray, total: np.ndarray) -> tuple[list, list, Iterator[list[list[int]]]]:
    """Constrained-dominance fronts of rows (objectives u[i], a[i], total
    violation total[i] >= 0, as arrays): u and a as the float lists that
    the rows index, and the fronts, best first, each a list of row groups.

    One stable lexsort orders the rows by (total, u, a), and one pass
    back over the feasible rows groups equal points and finds their
    fronts (Jensen, IEEE TEC 2003): in order of decreasing (u, a), each
    point joins the first front whose latest point has less
    availability, so does not dominate it.  Those availabilities never
    rise from front to front, so one bisect on their negations finds the
    front, and a feasible front is a staircase of point groups that fall
    in u and rise in a.  The infeasible fronts follow, one group each, by
    total violation, least first; they are grouped only as they are read.
    """
    order = np.lexsort((a, u, total)).tolist()
    u, a = u.tolist(), a.tolist()
    feasible = bisect_right(order, 0.0, key=total.item)  # the rows of total 0 come first
    fronts, tails = [], []  # tails[k]: minus the availability of front k's latest point
    pu = pa = None
    for i in reversed(order[:feasible]):
        if u[i] == pu and a[i] == pa:
            group.append(i)
        else:
            pu, pa, group = u[i], a[i], [i]
            k = bisect_right(tails, -pa)
            if k == len(fronts):
                fronts.append([])
                tails.append(-pa)
            fronts[k].append(group)
            tails[k] = -pa
    return u, a, chain(fronts, ([list(rows)] for _, rows in groupby(order[feasible:], total.item)))


def value_walks(rows: Sequence[int], u: list[float], a: list[float], genotype: Sequence) -> list[list[int]]:
    """``rows`` in ascending (u, genotype) and in ascending (a, genotype)
    order; equal keys keep their order in ``rows``."""
    by_genotype = sorted(rows, key=genotype.__getitem__)
    return [sorted(by_genotype, key=objective.__getitem__) for objective in (u, a)]


def row_crowding(dist: list[float], walks: Sequence[list[int]], u: list[float], a: list[float]) -> None:
    """Add the NSGA-II crowding distance of one front's rows to ``dist``,
    which holds 0.0 for them; ``walks`` are the front's rows in ascending
    u and in ascending a order, as ``value_walks`` gives them."""
    for objective, walk in zip((u, a), walks):
        first, last = walk[0], walk[-1]
        dist[first] = dist[last] = math.inf
        span = objective[last] - objective[first]
        if span <= 0:
            continue
        for before, row, after in zip(walk, walk[1:], walk[2:]):
            dist[row] += (objective[after] - objective[before]) / span


def staircase_crowding(dist: list[float], groups: Sequence, u: list[float], a: list[float], genotype=()) -> None:
    """NSGA-II's crowding distance of a feasible front's rows, point by
    point, written into ``dist``, which holds 0.0 for them.  ``groups``
    are the front's points in ascending u, each the list of its rows
    (indices into u, a, ``dist`` and ``genotype``); a point's several
    rows are sorted by genotype in place.  A lone row gets the gaps
    between its neighbour points, the first of several the gaps to the
    neighbour below in each objective and the last those above (the rows
    between keep 0.0), the end points inf: each the u term plus the a
    term, the floats that ``row_crowding`` gives on the value walks."""
    lo, hi = groups[0][0], groups[-1][0]
    su, sa = u[hi] - u[lo], a[lo] - a[hi]
    for before, group, after in zip(groups, groups[1:], groups[2:]):
        p, r, q = before[0], group[0], after[0]
        if len(group) == 1:
            dist[r] = (u[q] - u[p]) / su + (a[p] - a[q]) / sa
        else:
            group.sort(key=genotype.__getitem__)
            dist[group[0]] = (u[r] - u[p]) / su + (a[r] - a[q]) / sa
            dist[group[-1]] = (u[q] - u[r]) / su + (a[p] - a[r]) / sa
    for group in groups[0], groups[-1]:  # a lone point is both ends
        if len(group) > 1:
            group.sort(key=genotype.__getitem__)
        dist[group[0]] = dist[group[-1]] = math.inf


def _lone_crowding(pu: float, pa: float, qu: float, qa: float, su: float, sa: float) -> float:
    """The crowding distance of a lone staircase point between the points
    (pu, pa) and (qu, qa), on spans su, sa: ``staircase_crowding``'s formula."""
    return (qu - pu) / su + (pa - qa) / sa


@cache
def _lone_rows(n: int) -> tuple[tuple[int], ...]:
    """The groups of a staircase of n distinct points: row j alone at the j-th."""
    return tuple(zip(range(n)))


def _columns(population: Sequence[Solution]) -> list[list[float]]:
    """The u, a and total violation lists of a list of solutions."""
    return [[s.objectives.fog_utilization for s in population], [s.objectives.availability for s in population],
            [s.total_violation for s in population]]


def fast_nondominated_sort(population: list[Solution]) -> list[list[Solution]]:
    """``nondominated_rows`` of a list of solutions: fronts of solutions."""
    *_, fronts = nondominated_rows(*map(np.array, _columns(population)))
    return [[population[i] for group in front for i in group] for front in fronts]


def crowding_distance(front: list[Solution]) -> list[float]:
    """``row_crowding`` of a front given as solutions; equal values are ordered by genotype."""
    u, a, _ = _columns(front)
    dist = [0.0] * len(front)
    if front:
        row_crowding(dist, value_walks(range(len(front)), u, a, [s.genotype for s in front]), u, a)
    return dist


def _is_count(n) -> bool:
    """Whether n is a whole number >= 1 that a float holds: 5.0, not True, 2.5, inf, NaN or 10**400."""
    return not isinstance(n, (bool, np.bool_)) and 1 <= n <= sys.float_info.max and float(n).is_integer()


class ParetoArchive:
    """Bounded archive under feasibility-first dominance.

    Every member has the same total violation, ``violation`` (``inf``
    while empty): a candidate with less clears the archive, and one with
    more is rejected.  At 0 the members are mutually non-dominated;
    above it they are the distinct objective vectors found at that
    violation.  No two members share an objective vector, and the first
    genotype found for a point is kept.

    At 0 the members are a staircase sorted by fog utilization, so by
    availability descending (Fieldsend et al., IEEE TEC 2003): one
    bisect tests a candidate, and the members it dominates form one
    contiguous run.  Above 0 they keep insertion order.

    Truncation beyond capacity drops the most crowded member (smallest
    crowding distance), the first of them in that order on a tie.  At 0
    the full archive keeps each member's crowding distance, so ``place``
    decides truncation on floats too: a candidate that would be the
    victim never goes in.  Above 0 crowding ties fall to genotypes, so a
    candidate goes in and may be dropped at once.

    ``add`` is the only path by which the members change, and ``version``
    counts the changes: whatever a caller computed from the members
    still holds while ``version`` stands.
    """

    def __init__(self, capacity: int):
        if not _is_count(capacity):
            raise ValueError("capacity must be an integer >= 1 within float range")
        self.capacity = capacity
        self.members: list[Solution] = []
        self.violation = math.inf
        self.version = 0
        # the members' objectives, the i-th point members[i]'s
        self._us: list[float] = []
        self._as: list[float] = []
        # at 0, the members' staircase crowding distances: built when a full
        # archive first needs them, refreshed around each change, and dropped
        # when an end of the staircase, so a span, changes
        self._dist: list[float] | None = None

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def admits(self, u: float, a: float, total: float) -> bool:
        """Whether a candidate with objectives (u, a) and total violation
        joins the archive: at violation 0, whether it is a member after
        ``add``; above it truncation may still drop it."""
        return self.place(u, a, total) is not None

    def place(self, u: float, a: float, total: float) -> tuple[int, int] | None:
        """Where a candidate with objectives (u, a) and total violation
        goes: the slice of the members it replaces, or None when it stays
        out.  Decided on floats, so a scored row is tested before it is
        packed."""
        us, as_ = self._us, self._as
        n = len(us)
        if total != self.violation:
            return (0, n) if total < self.violation else None
        if total:  # only a member with equal objectives rejects it
            return None if (u, a) in zip(us, as_) else (n, n)
        # of the members with u' >= u, the first has the largest a'; one
        # with a' >= a dominates the candidate or equals it
        p = bisect_left(us, u)
        if p < n and as_[p] >= a:
            return None
        # the dominated members: u' <= u, so below j, and a' <= a, so from k on
        j = bisect_right(us, u, p)
        k = bisect_left(as_, -a, 0, j, key=neg)
        return (k, j) if k < j or n < self.capacity or self._outlasts(u, a, j) else None

    def _outlasts(self, u: float, a: float, j: int) -> bool:
        """Whether a candidate at (u, a) that goes in at position j of the
        full staircase, dominating no member, leaves another member the
        first most crowded one, so that truncation drops that member."""
        us, as_, n = self._us, self._as, len(self._us)
        if not 0 < j < n:  # a new end, at inf: the victim only when every point is an end
            return j > 0 or n > 1
        dist = self._crowding()
        su, sa = us[-1] - us[0], as_[0] - as_[-1]
        mine = _lone_crowding(us[j - 1], as_[j - 1], us[j], as_[j], su, sa)
        # its neighbours' new distances; the other members keep theirs
        below = _lone_crowding(us[j - 2], as_[j - 2], u, a, su, sa) if j > 1 else math.inf
        above = _lone_crowding(u, a, us[j + 1], as_[j + 1], su, sa) if j < n - 1 else math.inf
        left, right = min(dist[:j - 1], default=math.inf), min(dist[j + 1:], default=math.inf)
        return mine >= min(left, below) or mine > min(right, above)

    def add(self, candidate: Solution, at: tuple[int, int] | None = None) -> bool:
        """Offer a solution; returns True when it joined the archive.
        ``place`` decides, unless the caller passes ``at``, what ``place``
        gave for the candidate's floats with the members as they stand; a
        feasible candidate drops the members it dominates."""
        (u, a), total = candidate.objectives.as_tuple(), candidate.total_violation
        if at is None and (at := self.place(u, a, total)) is None:
            return False
        k, j = at
        if total != self.violation:
            self.violation, self._dist = total, None
        self.members[k:j], self._us[k:j], self._as[k:j] = [candidate], [u], [a]
        if self._dist is not None:
            if 0 < k < len(self._us) - 1:
                self._dist[k:j] = [0.0]
                self._recrowd(k - 1, k, k + 1)
            else:
                self._dist = None
        if len(self.members) > self.capacity and self._truncate() is candidate:
            return False
        self.version += 1
        return True

    def _crowding(self) -> list[float]:
        """The kept staircase crowding distances, rebuilt in full if they were dropped."""
        if self._dist is None:
            self._dist = [0.0] * len(self._us)
            staircase_crowding(self._dist, _lone_rows(len(self._dist)), self._us, self._as)
        return self._dist

    def _recrowd(self, *rows: int) -> None:
        """Refresh the kept distances of ``rows`` after their neighbours
        changed and the ends did not; an end keeps inf."""
        us, as_, dist = self._us, self._as, self._dist
        su, sa = us[-1] - us[0], as_[0] - as_[-1]
        for i in rows:
            if 0 < i < len(us) - 1:
                dist[i] = _lone_crowding(us[i - 1], as_[i - 1], us[i + 1], as_[i + 1], su, sa)

    def _truncate(self) -> Solution:
        """Drop the most crowded member, the first of them, and return it."""
        dist = crowding_distance(self.members) if self.violation else self._crowding()
        p = dist.index(min(dist))
        del self._us[p], self._as[p], dist[p]
        if not self.violation:
            # p was inside: the ends are at inf, and the inner points of 3 or
            # more are finite; of 2 points the one left is both ends, at inf
            self._recrowd(p - 1, p)
        return self.members.pop(p)

    def objective_set(self) -> set[tuple[float, float]]:
        return {m.objectives.as_tuple() for m in self.members}


def hypervolume_2d(front: list[ObjectiveVector], ref: ObjectiveVector) -> float:
    """Area dominated by a maximized 2-objective front, bounded by ref;
    a point at or below ref in either objective adds nothing."""
    if not front:
        raise EmptyFront("hypervolume of an empty front")
    return _swept_area(sorted((p.as_tuple() for p in front), reverse=True), ref.fog_utilization, ref.availability)


def _swept_area(points: Iterable[tuple[float, float]], ref_u: float, ref_a: float) -> float:
    """The area above (ref_u, ref_a) that points given in descending
    (u, a) order dominate, swept from the largest u down."""
    hv = 0.0
    best_second = ref_a
    for f1, f2 in points:
        if f2 > best_second and f1 > ref_u:
            hv += (f1 - ref_u) * (f2 - best_second)
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
        # a float count fails deep in numpy, and an infinite or NaN budget never runs out
        integers = (self.population_size, self.max_evaluations, self.seed)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in integers):
            raise ValueError("population_size, max_evaluations and seed must be integers, not bools")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be >= 4 and even")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # a NaN weight would freeze the swarm, an infinite grid give NaN cells
        if not all(0 <= w < math.inf for w in (self.inertia, self.cognitive, self.social)):
            raise ValueError("inertia, cognitive and social must be finite and >= 0 (MOPSO move weights)")
        if not all(_is_count(n) for n in (self.archive_capacity, self.grid_divisions)):
            raise ValueError("archive_capacity and grid_divisions must be integers >= 1 within float range")
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
    the archive holds a member once anything was scored.

    The archive's points are distinct, so sorted in reverse they come in
    ``hypervolume_2d``'s order.  At violation 0 they are the staircase, u
    ascending and a descending, and the largest (min(u, a), max(u, a), a)
    names ``select_compromise``'s point without its genotype tie-break:
    min(u, a) rises up to the first point p with u >= a and falls from p
    on, so that point is p - 1 or p.  Above 0 ``select_compromise`` names it.
    """
    us, as_ = archive._us, archive._as
    if archive.violation:
        comp = select_compromise(archive).objectives
        comp_u, comp_a = comp.fog_utilization, comp.availability
    else:
        p = bisect_left(range(len(us)), True, key=lambda i: us[i] >= as_[i])
        near = slice(max(p - 1, 0), p + 1)
        *_, comp_a, comp_u = max((min(u, a), max(u, a), a, u) for u, a in zip(us[near], as_[near]))
    hv = _swept_area(sorted(zip(us, as_), reverse=True), 0.0, 0.0)
    return GenerationStats(evaluations, max(us), max(as_), comp_u, comp_a, hv, _feasible_fraction(feasible))


def _feasible_fraction(feasible: Sequence[bool]) -> float:
    return int(np.count_nonzero(feasible)) / len(feasible)


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
        self._stats: GenerationStats | None = None
        self._stats_version = -1  # the archive version that _stats was computed at
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
        goes through ``ParetoArchive.add`` with the place already found.
        """
        scored = score_block(genomes, self.prob)
        self.evaluations += len(scored.genotypes)
        archive = self.archive
        for i, ((u, a), total) in enumerate(zip(scored.objectives.tolist(), scored.total.tolist())):
            if (at := archive.place(u, a, total)) is not None:
                archive.add(scored.solution(i), at)
        return scored

    def report(self, feasible: Sequence[bool]) -> None:
        """Hand the trace hook this generation's stats, given the
        population's feasibility flags.  While the archive has not changed
        since the last report, only the evaluations and the feasible
        fraction are new."""
        if not self.trace_hook:
            return
        if self.archive.version == self._stats_version:
            s = self._stats  # built directly, in half the time of dataclasses.replace
            self._stats = GenerationStats(
                self.evaluations, s.best_fog_utilization, s.best_availability, s.compromise_fog_utilization,
                s.compromise_availability, s.hypervolume, _feasible_fraction(feasible),
            )
        else:
            self._stats = generation_stats(self.archive, feasible, self.evaluations)
            self._stats_version = self.archive.version
        self.trace_hook(self._stats)


def greedy_anchors(prob: ProblemInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
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
    fog = fog[np.argsort(prob.up_probability[fog], kind="stable")].tolist()  # least available first
    up, req = prob.up_probability[fog].tolist(), prob.service_avail_req.tolist()
    capacity = prob.effective_capacity.T[fog].tolist()
    demand = np.stack([prob.service_cpu, prob.service_ram, prob.service_storage], axis=1).tolist()
    used = [[0.0, 0.0, 0.0] for _ in fog]
    order = np.argsort(-prob.service_cpu, kind="stable").tolist()

    def place(genotype, svc, hosts) -> int | None:
        """Put ``svc`` on the first of ``hosts`` with room and return its position there, or None."""
        dc, dr, ds = demand[svc]
        for i, k in enumerate(hosts):
            (cpu, ram, sto), (cc, cr, cs) = used[k], capacity[k]
            if cpu + dc <= cc and ram + dr <= cr and sto + ds <= cs:
                genotype[svc], used[k] = fog[k], [cpu + dc, ram + dr, sto + ds]
                return i

    available = [cloud] * prob.n_services
    for svc in order:  # the hosts from bisect_left on meet the requirement
        place(available, svc, range(bisect_left(up, req[svc]), len(fog)))
    fog_rich = available.copy()
    # (used - capacity cpu, k) ascending: the first entry with room has the
    # most cpu left, and the first such host on a tie, as argmax picks
    free = sorted((u[0] - c[0], k) for k, (u, c) in enumerate(zip(used, capacity)))
    for svc in [svc for svc in order if available[svc] == cloud]:
        if (i := place(fog_rich, svc, (k for _, k in free))) is not None:
            k = free.pop(i)[1]
            insort(free, (used[k][0] - capacity[k][0], k))
    return tuple(available), tuple(fog_rich)


def initial_population(prob: ProblemInstance, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, N) assignments: one block of uniform random rows, then three anchors.

    The anchors are the all-cloud placement and the two
    ``greedy_anchors``, so that a short run starts with both ends of the
    front in reach rather than only its low-fog end.  The greedy two are
    placed once per instance (``ProblemInstance.anchors``).
    """
    drawn = rng.integers(0, prob.n_resources, size=(size - 3, prob.n_services))
    return np.vstack([drawn, np.full(prob.n_services, prob.landscape.cloud), *prob.anchors])


def uniform_crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A child that takes each gene from p1 or p2 by a fair coin.  The
    pick is arithmetic: a select on a random mask mispredicts a branch on
    every other gene, and with ``np.where`` the call took 2.8x as long on
    a (40, 400) block."""
    return p2 + (p1 - p2) * (rng.random(p1.shape) < 0.5)


def reset_mutation(child: np.ndarray, rate: float, n_resources: int, rng: np.random.Generator) -> np.ndarray:
    mask = rng.random(child.shape) < rate
    child = child.copy()
    child[mask] = rng.integers(0, n_resources, size=int(mask.sum()))
    return child
