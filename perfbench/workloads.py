"""fogplan's benchmark workloads and the jobs they run.

A workload is a set of problem instances, all generated from the
workload seed, and the jobs run on each: the three algorithms, and on
oracle-sized instances the exhaustive Pareto enumeration first.  Each
algorithm job drives the library the way ``fogplan.cli._run_one`` does:
the algorithm with a ``trace_hook`` (so ``generation_stats`` runs),
then ``select_compromise``, then ``response_time_report`` on the
compromise.  Library functions are looked up on their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from fogplan import oracle, scenario, timing
from fogplan.moea import ALGORITHMS, AlgoParams, common

ALGORITHM_NAMES = tuple(ALGORITHMS)
ORACLE = "oracle"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: instances per pass; quality metrics come from the first pass, so
    #: this sets how many seeds a quality mean averages over
    instances: int
    #: evaluation budget of each algorithm run
    evaluations: int
    #: scaled_scenario replication factor (1: the spec as built)
    replication: int = 1
    #: oracle-sized specs whose exact front is enumerated per instance
    tiny: bool = False

    def spec(self, seed: int) -> scenario.ScenarioSpec:
        if self.tiny:
            return scenario.ScenarioSpec(
                colonies=1, cells_per_colony=2, apps=2, services_per_app=3, seed=seed
            )
        return scenario.ScenarioSpec(seed=seed)

    def seeds(self, workload_seed: int) -> list[int]:
        """Instance (and algorithm) seeds; disjoint for distinct workload seeds."""
        return [workload_seed * self.instances + i for i in range(self.instances)]

    def build(self, spec: scenario.ScenarioSpec):
        if self.replication == 1:
            return scenario.build_instance(spec)
        return scenario.scaled_scenario(spec, self.replication)

    def jobs(self, round_index: int) -> list[str]:
        """Job kinds of one round; the algorithm order rotates every round."""
        k = round_index % len(ALGORITHM_NAMES)
        order = list(ALGORITHM_NAMES[k:] + ALGORITHM_NAMES[:k])
        return [ORACLE] + order if self.tiny else order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why="the paper's experiment: reference scenario (N=25, R=11), three algorithms, "
            "1000 evaluations; the search layers (sort, swarm, decomposition loops) dominate",
            instances=16,
            evaluations=1000,
        ),
        Workload(
            name="scaled16",
            why="reference scenario replicated 16x (N=400, R=161); evaluation and the O(R^2) "
            "latency-matrix setup dominate, the non-dominated sort shrinks",
            instances=8,
            evaluations=1000,
            replication=16,
        ),
        Workload(
            name="tiny-oracle",
            why="oracle-sized instances (N=6, 4^6 assignments): exhaustive front plus 2000-eval "
            "runs; many single-genotype evaluate calls, so fixed per-call overhead dominates",
            instances=12,
            evaluations=2000,
            tiny=True,
        ),
    )
}


@dataclass
class Outcome:
    """What one job returned, and its wall time."""

    kind: str
    seconds: float
    evaluations: int
    members: tuple
    compromise: object = None
    report: object = None
    stats: tuple = ()
    #: median host probe time during the job; set by the harness
    probe_s: float = 0.0


def run_job(kind: str, prob, seed: int, evaluations: int, tracer=None, sampler=None) -> Outcome:
    """Run one job.

    ``sampler``, when given, is called after every generation and
    returns the seconds it spent; they are left out of the job's time.
    """
    if kind == ORACLE:
        start = time.perf_counter()
        front = oracle.exact_pareto(prob)
        seconds = time.perf_counter() - start
        return Outcome(kind, seconds, front.search_space_size, front.solutions)
    params = AlgoParams(seed=seed, max_evaluations=evaluations)
    stats = []
    sampled = 0.0

    def hook(entry):
        nonlocal sampled
        stats.append(entry)
        if sampler is not None:
            sampled += sampler()

    start = time.perf_counter()
    with tracer.span(f"{kind}.loop") if tracer else nullcontext():
        archive = ALGORITHMS[kind](prob, params, trace_hook=hook)
    compromise = common.select_compromise(archive) if len(archive) else None
    report = timing.response_time_report(compromise.genotype, prob) if compromise else None
    seconds = time.perf_counter() - start - sampled
    return Outcome(
        kind, seconds, evaluations, tuple(archive.members), compromise, report, tuple(stats)
    )
