"""Experiment runner: evolution traces, deadline checks, runtime scaling.

Each experiment writes machine-readable CSV; plotting is left to
external tooling.  Runs are deterministic per (config, seed) and
independent (algorithm, seed) runs may execute in parallel workers
(FOGPLAN_WORKERS) without changing the output bytes.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from collections.abc import Sequence
from dataclasses import astuple, fields, replace
from functools import partial
from typing import get_type_hints

from . import scenario as scenario_mod
from .errors import FogplanError, ParseError
from .moea import ALGORITHMS, AlgoParams, GenerationStats, select_compromise
from .timing import response_time_report

SAT_MARKER = "SAT"
EVOLUTION_COLUMNS = [f.name for f in fields(GenerationStats)]


class ConfigError(FogplanError):
    pass


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def _evolution_rows(prob, archive, trace):
    """One row per reported generation."""
    return [[value if name == "evaluations" else _fmt(value) for name, value in zip(EVOLUTION_COLUMNS, astuple(gen))]
            for gen in trace]


def _deadline_rows(prob, archive, trace):
    """Response time against deadline for every app, at the run's compromise."""
    report = response_time_report(select_compromise(archive).genotype, prob)
    rows = []
    for app in prob.apps:
        rt = report.app_rt[app.id]
        satisfied = rt is not None and rt <= app.deadline
        rows.append([app.id, SAT_MARKER if rt is None else _fmt(rt), _fmt(app.deadline), str(satisfied).lower()])
    return rows


#: experiment -> (its CSV columns after algorithm and seed, its rows of one
#: run, whether those rows read the run's trace)
EXPERIMENTS = {
    "evolution": (EVOLUTION_COLUMNS, _evolution_rows, True),
    "deadline": (["app", "response_time_s", "deadline_s", "satisfied"], _deadline_rows, False),
}


def _run_one(rows_of, traced, job):
    """Worker entry: one (algorithm, seed) optimization run, as its CSV
    rows; the run reports its generations only if ``traced``."""
    algo, prob, params = job
    trace = []
    archive = ALGORITHMS[algo](prob, params, trace_hook=trace.append if traced else None)
    return [[algo, params.seed, *row] for row in rows_of(prob, archive, trace)]


def _worker_count() -> int:
    raw = os.environ.get("FOGPLAN_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"FOGPLAN_WORKERS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"FOGPLAN_WORKERS must be >= 1, got {n}")
    return n


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(experiment: str, algorithms: list[str], spec: scenario_mod.ScenarioSpec,
                   params: list[AlgoParams], output_dir: str) -> str:
    """Every (algorithm, seed) run on one instance of ``spec``, in that order, as one CSV."""
    columns, rows_of, traced = EXPERIMENTS[experiment]
    workers = _worker_count()
    prob = scenario_mod.build_instance(spec)
    prob.anchors  # placed once here, so a pickled job carries them to its worker
    jobs = [(algo, prob, p) for algo in algorithms for p in params]
    run = partial(_run_one, rows_of, traced)
    if workers == 1 or len(jobs) == 1:
        results = [run(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(run, jobs))
    path = os.path.join(output_dir, f"{experiment}.csv")
    _write_csv(path, ["algorithm", "seed", *columns], (row for result in results for row in result))
    return path


def run_scaling_experiment(algorithms: list[str], spec: scenario_mod.ScenarioSpec,
                           params: AlgoParams, factors: list[int], output_dir: str) -> str:
    """Wall time of one run per algorithm on ``spec`` replicated by each factor, all checked first."""
    scaled = []
    for factor in factors:
        try:
            scaled.append(scenario_mod.scaled_spec(spec, factor))
        except ParseError as exc:
            raise ConfigError(f"--factors {factor}: {exc}") from exc
    probs = [scenario_mod.build_instance(factor_spec) for factor_spec in scaled]
    for prob in probs:  # placed outside the timed runs, so no algorithm pays for the others
        prob.anchors
    rows = []
    for algo in algorithms:
        for prob in probs:
            start = time.perf_counter()
            ALGORITHMS[algo](prob, params)
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    algo,
                    prob.n_services,
                    _fmt(elapsed * 1e3),
                    _fmt(elapsed * 1e6 / params.max_evaluations),
                ]
            )
    path = os.path.join(output_dir, "scaling.csv")
    _write_csv(
        path,
        ["algorithm", "N_services", "wall_time_ms", "time_per_evaluation_us"],
        rows,
    )
    return path


def _parse_seeds(text: str) -> Sequence[int]:
    """A ``range`` for ``lo..hi``, never a list of its seeds; a sorted list for a comma list."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        seeds = [int(s) for s in text.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value {text!r}") from exc
    repeated = sorted(s for s, k in Counter(seeds).items() if k > 1)
    if repeated:
        raise ConfigError(f"--seeds repeats {repeated}: each seed would run again")
    return sorted(seeds)


def _parse_factors(text: str) -> list[int]:
    try:
        factors = [int(f) for f in text.split(",") if f]
    except ValueError as exc:
        raise ConfigError(f"bad --factors value {text!r}") from exc
    if not factors or any(f < 1 for f in factors):
        raise ConfigError("factors must be a non-empty list of integers >= 1")
    return factors


def _parse_params(pairs: list[str]) -> dict:
    """Each ``k=v`` as its AlgoParams field's type, read as a scenario field is."""
    hints = get_type_hints(AlgoParams)
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in hints or key in ("seed", "max_evaluations"):
            raise ConfigError(f"unknown parameter {key!r}")
        try:
            try:  # an int field's digits stay exact: through a float they round above 2**53
                number = int(value) if hints[key] is int else float(value)
            except ValueError:  # such as 40.0 or 1e3
                number = float(value)
            out[key] = scenario_mod.read_field(f"--param {key}", hints[key], number)
        except ValueError as exc:
            raise ConfigError(f"--param {key}: expected a number, got {value!r}") from exc
        except ParseError as exc:
            raise ConfigError(str(exc)) from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogplan",
        description="Run fog service placement optimization experiments (CSV output).",
    )
    parser.add_argument("--experiment", choices=[*EXPERIMENTS, "scaling"],
                        default="evolution")
    parser.add_argument("--algo", default="all",
                        help="mopso, nsga2, moead, or all (default: all)")
    parser.add_argument("--scenario", default="paper",
                        help="'paper' or path to a scenario YAML file")
    parser.add_argument("--seeds", default="0", help="comma list or lo..hi range")
    parser.add_argument("--evals", type=int, default=1000)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--param", action="append", default=[], metavar="K=V",
                        help="algorithm parameter override (repeatable)")
    parser.add_argument("--factors", default="1,2,4",
                        help="replication factors for the scaling experiment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.algo != "all" and args.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {args.algo!r}")
        algorithms = list(ALGORITHMS) if args.algo == "all" else [args.algo]
        seeds = _parse_seeds(args.seeds)
        if not seeds:
            raise ConfigError("at least one seed is required")
        overrides = _parse_params(args.param)
        try:
            # one check of every parameter, --evals too (max_evaluations >=
            # population_size >= 4), before one AlgoParams per seed is built
            first = AlgoParams(**overrides, seed=seeds[0], max_evaluations=args.evals)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        spec = scenario_mod.ScenarioSpec() if args.scenario == "paper" else scenario_mod.load(args.scenario)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        if args.experiment in EXPERIMENTS:
            params = [replace(first, seed=seed) for seed in seeds]  # each seed >= seeds[0], so valid
            path = run_experiment(args.experiment, algorithms, spec, params, args.out)
        else:
            factors = _parse_factors(args.factors)
            if len(seeds) > 1:
                raise ConfigError(f"the scaling experiment takes one seed, got --seeds {args.seeds}")
            path = run_scaling_experiment(algorithms, spec, first, factors, args.out)
    except FogplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
