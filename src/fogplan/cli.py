"""Experiment runner: evolution traces, deadline checks, runtime scaling.

Each experiment writes machine-readable CSV; plotting is left to
external tooling.  Runs are deterministic per (config, seed) and
independent (algorithm, seed) runs may execute in parallel workers
(FOGPLAN_WORKERS) without changing the output bytes.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from . import scenario as scenario_mod
from .errors import FogplanError
from .moea import ALGORITHMS, AlgoParams, select_compromise
from .timing import response_time_report

SAT_MARKER = "SAT"

_PARAM_FIELDS = {f.name: f.type for f in fields(AlgoParams)}
_FLOAT_PARAMS = {name for name, annotation in _PARAM_FIELDS.items() if "float" in str(annotation)}


class ConfigError(FogplanError):
    pass


@dataclass
class RunConfig:
    algorithms: list[str]
    scenario: str = "paper"
    seeds: list[int] = field(default_factory=lambda: [0])
    max_evaluations: int = 1000
    output_dir: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.max_evaluations <= 0:
            raise ConfigError("max_evaluations must be positive")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}")


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def _scenario_spec(cfg: RunConfig) -> scenario_mod.ScenarioSpec:
    if cfg.scenario == "paper":
        return scenario_mod.ScenarioSpec()
    return scenario_mod.load(cfg.scenario)


def _algo_params(cfg: RunConfig, seed: int) -> AlgoParams:
    overrides = dict(cfg.params)
    overrides["seed"] = seed
    overrides["max_evaluations"] = cfg.max_evaluations
    try:
        return AlgoParams(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _run_one(job):
    """Worker entry: one (algorithm, seed) optimization run."""
    algo, spec, params = job
    prob = scenario_mod.build_instance(spec)
    trace = []
    archive = ALGORITHMS[algo](prob, params, trace_hook=trace.append)
    compromise = select_compromise(archive) if len(archive) else None
    report = response_time_report(compromise.genotype, prob) if compromise else None
    return algo, params.seed, trace, compromise, report


def _worker_count() -> int:
    raw = os.environ.get("FOGPLAN_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"FOGPLAN_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _run_all(cfg: RunConfig):
    spec = _scenario_spec(cfg)
    jobs = [
        (algo, spec, _algo_params(cfg, seed))
        for algo in cfg.algorithms
        for seed in cfg.seeds
    ]
    workers = _worker_count()
    if workers == 1 or len(jobs) == 1:
        results = [_run_one(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    results.sort(key=lambda r: (cfg.algorithms.index(r[0]), r[1]))
    return spec, results


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_evolution_experiment(cfg: RunConfig) -> str:
    _, results = _run_all(cfg)
    rows = []
    for algo, seed, trace, _, _ in results:
        for gen in trace:
            rows.append(
                [
                    algo,
                    seed,
                    gen.evaluations,
                    _fmt(gen.best_fog_utilization),
                    _fmt(gen.best_availability),
                    _fmt(gen.compromise_fog_utilization),
                    _fmt(gen.compromise_availability),
                    _fmt(gen.hypervolume),
                    _fmt(gen.feasible_fraction),
                ]
            )
    path = os.path.join(cfg.output_dir, "evolution.csv")
    _write_csv(
        path,
        [
            "algorithm",
            "seed",
            "evaluations",
            "best_fog_utilization",
            "best_availability",
            "compromise_fog_utilization",
            "compromise_availability",
            "hypervolume",
            "feasible_fraction",
        ],
        rows,
    )
    return path


def run_deadline_experiment(cfg: RunConfig) -> str:
    spec, results = _run_all(cfg)
    prob = scenario_mod.build_instance(spec)
    rows = []
    for algo, seed, _, compromise, report in results:
        if compromise is None:
            continue
        for app in prob.apps:
            rt = report.app_rt[app.id]
            satisfied = rt is not None and rt <= app.deadline
            rows.append(
                [
                    algo,
                    seed,
                    app.id,
                    SAT_MARKER if rt is None else _fmt(rt),
                    _fmt(app.deadline),
                    str(satisfied).lower(),
                ]
            )
    path = os.path.join(cfg.output_dir, "deadline.csv")
    _write_csv(
        path,
        ["algorithm", "seed", "app", "response_time_s", "deadline_s", "satisfied"],
        rows,
    )
    return path


def run_scaling_experiment(cfg: RunConfig, factors: list[int]) -> str:
    if not factors or any(f < 1 for f in factors):
        raise ConfigError("factors must be a non-empty list of integers >= 1")
    base = _scenario_spec(cfg)
    params = _algo_params(cfg, cfg.seeds[0])
    rows = []
    for algo in cfg.algorithms:
        for factor in factors:
            prob = scenario_mod.scaled_scenario(base, factor)
            start = time.perf_counter()
            ALGORITHMS[algo](prob, params)
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    algo,
                    prob.n_services,
                    _fmt(elapsed * 1e3),
                    _fmt(elapsed * 1e6 / cfg.max_evaluations),
                ]
            )
    path = os.path.join(cfg.output_dir, "scaling.csv")
    _write_csv(
        path,
        ["algorithm", "N_services", "wall_time_ms", "time_per_evaluation_us"],
        rows,
    )
    return path


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in text.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value {text!r}") from exc


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in _PARAM_FIELDS or key in ("seed", "max_evaluations"):
            raise ConfigError(f"unknown parameter {key!r}")
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"--param {key}: expected a number, got {value!r}") from exc
        if not math.isfinite(number):
            raise ConfigError(f"--param {key}: expected a finite number, got {value!r}")
        if key in _FLOAT_PARAMS:
            out[key] = number
        elif number.is_integer():
            out[key] = int(number)
        else:
            raise ConfigError(f"--param {key}: expected an integer, got {value!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogplan",
        description="Run fog service placement optimization experiments (CSV output).",
    )
    parser.add_argument("--experiment", choices=["evolution", "deadline", "scaling"],
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
    created = []
    try:
        algorithms = list(ALGORITHMS) if args.algo == "all" else [args.algo]
        cfg = RunConfig(
            algorithms=algorithms,
            scenario=args.scenario,
            seeds=_parse_seeds(args.seeds),
            max_evaluations=args.evals,
            output_dir=args.out,
            params=_parse_params(args.param),
        )
        os.makedirs(cfg.output_dir, exist_ok=True)
        if args.experiment == "evolution":
            created.append(run_evolution_experiment(cfg))
        elif args.experiment == "deadline":
            created.append(run_deadline_experiment(cfg))
        else:
            try:
                factors = [int(f) for f in args.factors.split(",") if f]
            except ValueError as exc:
                raise ConfigError(f"bad --factors value {args.factors!r}") from exc
            created.append(run_scaling_experiment(cfg, factors))
    except (ConfigError, FogplanError) as exc:
        for path in created:
            if os.path.exists(path):
                os.unlink(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        for path in created:
            if os.path.exists(path):
                os.unlink(path)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    for path in created:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
