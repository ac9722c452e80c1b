"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Criterion runs are cached at module scope so the
deadline and feasibility checks reuse the utilization-floor runs.
"""

import time

import numpy as np
import pytest

from conftest import random_solutions, tiny_instance
from fogplan.cli import main
from fogplan.fsdp import ObjectiveVector, availability_objective
from fogplan.moea import (
    ALGORITHMS,
    AlgoParams,
    ParetoArchive,
    constrained_dominates,
    fast_nondominated_sort,
    hypervolume_2d,
    pareto_dominates,
    select_compromise,
)
from fogplan.oracle import exact_pareto, md1_simulate
from fogplan.scenario import paper_scenario
from fogplan.timing import Md1Queue, md1_sojourn, response_time_report

SEEDS = range(10)
PAPER_BUDGET = 1000
TINY_BUDGET = 2000
TINY_INSTANCES = 20


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def paper_runs():
    """archive + compromise per (algorithm, seed) on the reference scenario."""
    runs = {}
    for seed in SEEDS:
        prob = paper_scenario(seed)
        for name, run in ALGORITHMS.items():
            archive = run(prob, AlgoParams(seed=seed, max_evaluations=PAPER_BUDGET))
            runs[(name, seed)] = (prob, archive, select_compromise(archive))
    return runs


@pytest.fixture(scope="module")
def tiny_runs():
    """archive + exact front per (algorithm, instance) on oracle-sized instances."""
    runs = {}
    for idx in range(TINY_INSTANCES):
        prob = tiny_instance(idx)
        front = exact_pareto(prob, cap=5000)
        for name, run in ALGORITHMS.items():
            archive = run(prob, AlgoParams(seed=idx, max_evaluations=TINY_BUDGET))
            runs[(name, idx)] = (prob, front, archive)
    return runs


def test_criterion_1_fog_utilization_floor(paper_runs):
    details = []
    ok = True
    for name in ALGORITHMS:
        hits = sum(
            1
            for seed in SEEDS
            if paper_runs[(name, seed)][2].objectives.fog_utilization >= 0.70
        )
        details.append(f"{name}={hits}/10")
        ok &= hits >= 8
    assert verdict(1, "fog utilization >= 0.70 on 8/10 seeds", ok, " ".join(details))


def test_criterion_2_oracle_equivalence(tiny_runs):
    ok = True
    details = []
    for name in ALGORITHMS:
        recovered = 0
        hard_violations = 0
        for idx in range(TINY_INSTANCES):
            _, front, archive = tiny_runs[(name, idx)]
            if front.objective_set() <= archive.objective_set():
                recovered += 1
            for member in archive:
                for exact in front.solutions:
                    if pareto_dominates(member.objectives, exact.objectives):
                        hard_violations += 1
        details.append(f"{name}={recovered}/{TINY_INSTANCES} hard_violations={hard_violations}")
        ok &= recovered >= 0.9 * TINY_INSTANCES and hard_violations == 0
    assert verdict(2, "exact Pareto front recovery", ok, " ".join(details))


def test_criterion_3_archive_feasibility(paper_runs, tiny_runs):
    bad = 0
    total = 0
    for _, archive, _ in paper_runs.values():
        for member in archive:
            total += 1
            bad += not member.feasible
    for _, _, archive in tiny_runs.values():
        for member in archive:
            total += 1
            bad += not member.feasible
    assert verdict(3, "all archive members feasible", bad == 0, f"{total - bad}/{total}")


def test_criterion_4_deadline_satisfaction(paper_runs):
    ok = True
    details = []
    for name in ALGORITHMS:
        hits = 0
        for seed in SEEDS:
            prob, _, compromise = paper_runs[(name, seed)]
            report = response_time_report(compromise.genotype, prob)
            if all(
                report.app_rt[app.id] is not None and report.app_rt[app.id] <= app.deadline
                for app in prob.apps
            ):
                hits += 1
        details.append(f"{name}={hits}/10")
        ok &= hits >= 8
    assert verdict(4, "all five deadlines met on 8/10 seeds", ok, " ".join(details))


def test_criterion_5_queueing_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for rho in (0.2, 0.5, 0.8):
        closed = md1_sojourn(Md1Queue(arrival_rate=rho, service_time=1.0))
        simulated = md1_simulate(rho, 1.0, jobs=10**6, seed=int(rho * 100))
        worst = max(worst, abs(simulated - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 10.0
    assert verdict(5, "M/D/1 closed form vs simulation", ok,
                   f"max_rel_err={worst:.4f} elapsed={elapsed:.1f}s")


def test_criterion_6_runtime_scaling():
    from fogplan.scenario import ScenarioSpec, scaled_scenario

    base = ScenarioSpec()
    budget = 2000
    ok = True
    details = []
    for name, run in ALGORITHMS.items():
        per_eval = []
        for factor in (1, 2, 4):
            prob = scaled_scenario(base, factor)
            # the best of 3 repeats, so that one stall of a shared host cannot decide the verdict
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                run(prob, AlgoParams(seed=0, max_evaluations=budget))
                seconds.append(time.perf_counter() - start)
            per_eval.append(min(seconds) / budget)
        ratios = [b / a for a, b in zip(per_eval, per_eval[1:])]
        details.append(f"{name}:{'/'.join(f'{r:.2f}x' for r in ratios)}")
        ok &= all(r <= 2.5 for r in ratios)
    assert verdict(6, "time per evaluation <= 2.5x per doubling of N", ok, " ".join(details))


def test_criterion_7_determinism(tmp_path, monkeypatch):
    args = ["--experiment", "evolution", "--algo", "all", "--seeds", "0,1",
            "--evals", "200", "--out", str(tmp_path)]
    monkeypatch.setenv("FOGPLAN_WORKERS", "1")
    assert main(args) == 0
    first = (tmp_path / "evolution.csv").read_bytes()
    assert main(args) == 0
    second = (tmp_path / "evolution.csv").read_bytes()
    monkeypatch.setenv("FOGPLAN_WORKERS", "4")
    assert main(args) == 0
    third = (tmp_path / "evolution.csv").read_bytes()
    ok = first == second == third
    assert verdict(7, "byte-identical CSV across reruns and worker counts", ok)


class TestCriterion8InvariantSuites:
    def test_dominance_irreflexive_transitive(self):
        rng = np.random.default_rng(100)
        checks = 0
        for _ in range(80):
            pop = random_solutions(rng, int(rng.integers(4, 33)))
            for s in pop:
                assert not constrained_dominates(s, s)
                checks += 1
            for a in pop:
                for b in pop:
                    for c in pop:
                        if constrained_dominates(a, b) and constrained_dominates(b, c):
                            assert constrained_dominates(a, c)
                            checks += 1
        assert verdict("8a", "dominance irreflexivity/transitivity", checks >= 1000,
                       f"{checks} checks")

    def test_archive_nondomination(self):
        rng = np.random.default_rng(101)
        checks = 0
        for _ in range(40):
            archive = ParetoArchive(capacity=12)
            for sol in random_solutions(rng, 40):
                archive.add(sol)
                for a in archive:
                    for b in archive:
                        if a is not b:
                            assert not constrained_dominates(a, b)
                            checks += 1
        assert verdict("8b", "archive non-domination", checks >= 1000, f"{checks} checks")

    def test_hypervolume_monotone(self):
        rng = np.random.default_rng(102)
        ref = ObjectiveVector(0.0, 0.0)
        for _ in range(1000):
            pts = [ObjectiveVector(float(u), float(a)) for u, a in rng.random((3, 2))]
            extra = ObjectiveVector(float(rng.random()), float(rng.random()))
            assert hypervolume_2d(pts + [extra], ref) >= hypervolume_2d(pts, ref) - 1e-12
        assert verdict("8c", "hypervolume monotonicity", True, "1000 cases")

    def test_availability_monotone_under_upgrade(self):
        prob = paper_scenario(0)
        ups = prob.up_probability
        rng = np.random.default_rng(103)
        checks = 0
        while checks < 1000:
            dep = rng.integers(0, prob.n_resources, prob.n_services)
            svc = int(rng.integers(0, prob.n_services))
            better = np.flatnonzero(ups > ups[dep[svc]])
            if better.size == 0:
                continue
            upgraded = dep.copy()
            upgraded[svc] = int(rng.choice(better))
            assert availability_objective(upgraded, prob) >= availability_objective(dep, prob)
            checks += 1
        assert verdict("8d", "availability monotone under host upgrade", True, "1000 cases")

    def test_sort_matches_bruteforce(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            pop = random_solutions(rng, int(rng.integers(4, 13)))
            fronts = fast_nondominated_sort(pop)
            level_of = {}
            for level, front in enumerate(fronts):
                for sol in front:
                    level_of[id(sol)] = level
            # brute force: peel undominated layers
            remaining = pop[:]
            level = 0
            while remaining:
                front = [
                    s for s in remaining
                    if not any(constrained_dominates(t, s) for t in remaining if t is not s)
                ]
                for s in front:
                    assert level_of[id(s)] == level
                remaining = [s for s in remaining if s not in front]
                level += 1
        assert verdict("8e", "front assignment equals brute force", True, "1000 cases")
