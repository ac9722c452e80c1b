"""Measurement loop, metrics and report of fogplan's benchmark.

Untraced run (``trace=0``): set up every instance, then run rounds of
jobs, one instance per round and round-robin over the instances, until
the first pass over all instances is done and ``seconds`` have passed.
The whole set-up is repeated after every round, so that its median
(``setup_s``) samples the same phases of a noisy host as the jobs.
Quality metrics come from the first pass only, so they are the same for
the same seed however fast the program is; time metrics use every job.
Jobs of later passes must return exactly what the first pass returned.

Time metrics are given at the reference host speed.  The host probe
runs before and after every job and every instance build, and inside
algorithm jobs after a generation at most every ``PROBE_EVERY_S``; its
time is never counted.  A wall time is scaled by ``REF_PROBE_S`` over
the median probe time of its job or set-up.  The raw wall times are
reported beside them as details.

Traced run (``trace=1``): one untraced pass over the first half of the
instances, then the same pass with the tracer installed (setup
included).  Counts repeat exactly for a seed; the difference of the two
passes' job times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np
from fogplan.cli import main as cli_main

from check import Checker, dominated_exact_points, hypervolume
from tracer import Tracer
from workloads import ALGORITHM_NAMES, ORACLE, WORKLOADS, run_job

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: (name, unit) of every end-to-end metric, printed with trace=0
END_TO_END = (
    ("setup_s", "s"),
    *((f"run_s.{a}", "s") for a in ALGORITHM_NAMES),
    ("evals_per_s", "1/s"),
    *((f"hypervolume.{a}", "area") for a in ALGORITHM_NAMES),
    ("compromise_fog_utilization", "fraction"),
    ("deadlines_met_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed with trace=1.  A
#: ``.s`` metric is the layer's self time summed over the traced pass.
PER_LAYER = (
    ("moea.fast_nondominated_sort.s", "s"),
    ("moea.constrained_dominates.calls", "count"),
    ("moea.crowding_distance.s", "s"),
    ("timing.response_time_report.s", "s"),
    ("fsdp.availability_objective.s", "s"),
    ("fsdp.capacity_violation.s", "s"),
    ("fsdp.fog_utilization.s", "s"),
    ("fsdp.deadline_violation.s", "s"),
    ("fsdp.evaluate.s", "s"),
    ("fsdp.evaluate.calls", "count"),
    ("fsdp.as_assignment.s", "s"),
    ("fsdp.as_assignment.calls", "count"),
    ("moea.make_solution.s", "s"),
    ("moea.archive_add.s", "s"),
    ("moea.archive_add.calls", "count"),
    ("moea.archive_accept_ratio", "ratio"),
    ("moea.archive_distinct_ratio", "ratio"),
    ("moea.generation_stats.s", "s"),
    ("moea.variation.s", "s"),
    ("moea.select_compromise.s", "s"),
    *((f"{a}.loop.s", "s") for a in ALGORITHM_NAMES),
    ("scenario.build.s", "s"),
    ("model.latency_matrix.s", "s"),
)


#: the host probe's time at the reference host speed, in seconds
REF_PROBE_S = 0.0015
#: least time between two host probes inside a job, in seconds
PROBE_EVERY_S = 0.04
_PROBE_INPUT = np.random.default_rng(0).random((40, 40))


def host_probe() -> float:
    """Seconds for a fixed loop of small numpy operations: host speed, not program speed.

    fogplan spends most of its time in numpy calls on small arrays, so
    the probe is made of such calls: through a busy neighbour's slow
    phase its time follows fogplan's more closely than ``calibrate``'s
    does.  It is the benchmark's own code and runs no fogplan code, so a
    faster or slower fogplan leaves it unchanged.
    """
    start = time.perf_counter()
    x = _PROBE_INPUT
    for _ in range(150):
        y = x.sum(axis=0)
        x = _PROBE_INPUT + np.minimum(x, y[None, :])[0, 0] * 1e-9
    return time.perf_counter() - start


class InJobProbes:
    """Host probes taken inside a job, from its per-generation hook."""

    def __init__(self):
        self.probes = []
        self._next = time.perf_counter() + PROBE_EVERY_S

    def __call__(self) -> float:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe.

        Returns the seconds spent, which the job leaves out of its time.
        """
        start = time.perf_counter()
        if start < self._next:
            return 0.0
        self.probes.append(host_probe())
        end = time.perf_counter()
        self._next = end + PROBE_EVERY_S
        return end - start


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not program speed.

    It allocates tuples, fills a dict and sorts.  Reported as metadata
    beside the host probe; it follows a slow host less closely than the
    probe does, so nothing is scaled by it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(50_000):
        key = (i * 7919 % 100_003, i % 97)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - start


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def paper_csv_digest(seed: int) -> str:
    """sha256 of the CLI's paper evolution CSV for one seed, one worker."""
    OUT_DIR.mkdir(exist_ok=True)
    saved = os.environ.get("FOGPLAN_WORKERS")
    os.environ["FOGPLAN_WORKERS"] = "1"
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            args = ["--experiment", "evolution", "--algo", "all", "--seeds", str(seed),
                    "--evals", "1000", "--out", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(args)
            if code != 0:
                raise RuntimeError(f"fogplan CLI exited with {code}")
            return hashlib.sha256(Path(tmp, "evolution.csv").read_bytes()).hexdigest()
    finally:
        if saved is None:
            del os.environ["FOGPLAN_WORKERS"]
        else:
            os.environ["FOGPLAN_WORKERS"] = saved


def timed_setup(workload, specs, times):
    """Build every instance once, appending (wall s, median probe s) to ``times``.

    The host is probed before each build and after the last; probe time
    is left out of the wall time.
    """
    gc.collect()
    probs, probes, wall = [], [host_probe()], 0.0
    for spec in specs:
        start = time.perf_counter()
        probs.append(workload.build(spec))
        wall += time.perf_counter() - start
        probes.append(host_probe())
    times.append((wall, statistics.median(probes)))
    return probs


def _fingerprint(outcome):
    return sorted((m.genotype, m.objectives.as_tuple()) for m in outcome.members)


class Pass:
    """Jobs run over a workload's instances, with their checks."""

    def __init__(self, workload, seeds, probs):
        self.workload = workload
        self.seeds = seeds
        self.probs = probs
        self.checkers = [Checker(p) for p in probs]
        self.records = []  # (round, instance, outcome or None, problems)

    def run(self, seconds, tracer=None, reference=None, between_rounds=None):
        """Run rounds until one pass is done and ``seconds`` have passed.

        Without ``reference`` the first pass is fully checked and later
        passes must repeat it; with one, every job must repeat it.
        ``between_rounds`` is called after every round.
        """
        first = {} if reference is None else reference
        start = time.perf_counter()
        n = len(self.probs)
        rnd = 0
        while True:
            i = rnd % n
            exact = None
            for kind in self.workload.jobs(rnd):
                outcome, problems = self._job(kind, i, tracer)
                if outcome is not None:
                    key = (kind, i)
                    if key in first:
                        expected, known = first[key]
                        if _fingerprint(outcome) != expected:
                            problems.append("result differs from the first run of this job")
                        problems.extend(known)
                    else:
                        problems.extend(self._check(outcome, i, exact))
                        first[key] = (_fingerprint(outcome), tuple(problems))
                    if kind == ORACLE:
                        exact = outcome.members
                self.records.append((rnd, i, outcome, problems))
            rnd += 1
            if between_rounds:
                between_rounds()
            if rnd >= n and time.perf_counter() - start >= seconds:
                return first

    def _job(self, kind, i, tracer):
        gc.collect()
        # no probes inside traced jobs: they would count in the layers' self time
        inside = InJobProbes() if tracer is None else None
        try:
            before = host_probe()
            outcome = run_job(
                kind, self.probs[i], self.seeds[i], self.workload.evaluations, tracer, inside
            )
            probes = [before, host_probe(), *(inside.probes if inside else ())]
            outcome.probe_s = statistics.median(probes)
        except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
            traceback.print_exc()
            return None, ["raised"]
        return outcome, []

    def _check(self, outcome, i, exact):
        checker = self.checkers[i]
        problems = checker.members(outcome.members)
        if outcome.kind == ORACLE:
            return problems
        if outcome.compromise is None or not any(m is outcome.compromise for m in outcome.members):
            problems.append("compromise is not an archive member")
        hv = hypervolume([m.objectives.as_tuple() for m in outcome.members])
        last = outcome.stats[-1] if outcome.stats else None
        if last is None or last.evaluations != outcome.evaluations:
            problems.append("generation stats do not end at the evaluation budget")
        elif abs(last.hypervolume - hv) > 1e-9:
            problems.append(f"generation stats hypervolume {last.hypervolume} != {hv}")
        if self.workload.tiny:
            if exact is None:
                problems.append("no exact front to compare with")
            elif dominated_exact_points(outcome.members, exact):
                problems.append("archive member dominates an exact-front point")
        return problems

    def first_pass(self):
        return [r for r in self.records if r[0] < len(self.probs)]

    def failed(self) -> int:
        return sum(1 for _, _, outcome, problems in self.records if outcome is None or problems)

    def job_seconds(self) -> float:
        """Summed job time of the pass, at the reference host speed."""
        return sum(
            reference_s(o.seconds, o.probe_s)
            for _, _, o, p in self.records if o is not None and not p
        )


def _deadlines_met(outcome, prob) -> bool:
    if outcome is None or outcome.report is None:
        return False
    return all(
        (rt := outcome.report.app_rt[app.id]) is not None and rt <= app.deadline
        for app in prob.apps
    )


def reference_s(wall: float, probe: float) -> float:
    """A wall time at the reference host speed, from the probe time during it."""
    return wall * REF_PROBE_S / probe


def _time_figures(runs, evals, setup_times, to_reference: bool):
    """Time metrics from (wall s, probe s) samples, in reference or wall seconds.

    A job run more than once counts with the median of its times, so
    every instance weighs the same however many passes the run made.
    """
    def seconds(sample):
        return reference_s(*sample) if to_reference else sample[0]

    job_s = {key: statistics.median(map(seconds, samples)) for key, samples in runs.items()}
    figures = {"setup_s": statistics.median(map(seconds, setup_times))}
    for kind in sorted({k for k, _ in runs}):
        name = "oracle_s" if kind == ORACLE else f"run_s.{kind}"
        figures[name] = statistics.median(t for (k, _), t in job_s.items() if k == kind)
    figures["evals_per_s"] = sum(evals.values()) / sum(job_s.values())
    return figures


def end_to_end(run: Pass, setup_times):
    """Every end-to-end metric, plus details that are reported, not gated.

    Time metrics are at the reference host speed; the details give the
    same figures in wall seconds under ``wall``.
    """
    runs, evals = {}, {}
    for _, i, o, p in run.records:
        if o is not None and not p:
            runs.setdefault((o.kind, i), []).append((o.seconds, o.probe_s))
            evals[o.kind, i] = o.evaluations
    first_algo = [(i, o, p) for _, i, o, p in run.first_pass() if o is None or o.kind != ORACLE]
    values = _time_figures(runs, evals, setup_times, to_reference=True)
    details = {"wall": _time_figures(runs, evals, setup_times, to_reference=False)}
    details["setup_s"] = {"samples": len(setup_times),
                          "max": max(reference_s(*t) for t in setup_times)}
    for kind in ALGORITHM_NAMES + ((ORACLE,) if run.workload.tiny else ()):
        every = [reference_s(*t) for (k, _), ts in runs.items() if k == kind for t in ts]
        name = "oracle_s" if kind == ORACLE else f"run_s.{kind}"
        values.setdefault(name, float("nan"))
        details[name] = {"instances": sum(k == kind for k, _ in runs), "samples": len(every),
                         "max": max(every, default=None)}
    for algo in ALGORITHM_NAMES:
        hvs = [
            hypervolume([m.objectives.as_tuple() for m in o.members])
            for i, o, p in first_algo if o is not None and not p and o.kind == algo
        ]
        values[f"hypervolume.{algo}"] = statistics.fmean(hvs) if hvs else 0.0
    fogs = [o.compromise.objectives.fog_utilization for i, o, p in first_algo
            if o is not None and not p]
    values["compromise_fog_utilization"] = statistics.fmean(fogs) if fogs else 0.0
    values["deadlines_met_fraction"] = sum(
        _deadlines_met(o, run.probs[i]) for i, o, p in first_algo if not p
    ) / len(first_algo)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details["failed_fraction"] = run.failed() / len(run.records)
    if run.workload.tiny:
        details["oracle_s"]["median"] = values.pop("oracle_s")
        details["front_recovered_fraction"] = _front_recovered(run)
    return values, details


def _front_recovered(run: Pass) -> float:
    """Share of first-pass (algorithm, instance) pairs covering the exact front."""
    exact, pairs = {}, []
    for _, i, o, p in run.first_pass():
        if o is not None and not p and o.kind == ORACLE:
            exact[i] = {s.objectives.as_tuple() for s in o.members}
        elif o is None or o.kind != ORACLE:
            pairs.append((i, o, p))
    covered = sum(
        1 for i, o, p in pairs
        if o is not None and not p and i in exact
        and exact[i] <= {m.objectives.as_tuple() for m in o.members}
    )
    return covered / len(pairs)


def per_layer(tracer: Tracer, traced: Pass):
    totals = tracer.layer_totals()
    values = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "s":
            values[name] = totals[layer][0]
        elif field == "calls":
            values[name] = totals[layer][1] if layer in totals else tracer.counts[layer]
    offered = totals["moea.archive_add"][1]
    values["moea.archive_accept_ratio"] = tracer.counts["moea.archive_add.accepted"] / offered
    archives = [o.members for _, _, o, p in traced.records
                if o is not None and o.kind != ORACLE]
    values["moea.archive_distinct_ratio"] = sum(
        len({m.objectives.as_tuple() for m in a}) for a in archives
    ) / sum(len(a) for a in archives)
    details = {}
    if traced.workload.tiny:
        details["oracle.exact_pareto.s"] = totals["oracle.exact_pareto"][0]
        details["oracle.enumerated.calls"] = tracer.counts["oracle.enumerated"]
    return values, details


def bench(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line dict, full record dict)."""
    calibration, probes = [calibrate()], [host_probe()]
    seeds = workload.seeds(seed)
    if trace:
        seeds = seeds[:(len(seeds) + 1) // 2]
    specs = [workload.spec(s) for s in seeds]
    if not trace:
        setup_times = []
        run = Pass(workload, seeds, timed_setup(workload, specs, setup_times))
        run.run(seconds, between_rounds=lambda: timed_setup(workload, specs, setup_times))
        values, details = end_to_end(run, setup_times)
        units = dict(END_TO_END)
        attempted, failed = len(run.records), run.failed()
    else:
        run = Pass(workload, seeds, [workload.build(spec) for spec in specs])
        reference = run.run(0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Pass(workload, seeds, [workload.build(spec) for spec in specs])
            traced.run(0, tracer=tracer, reference=reference)
        finally:
            tracer.restore()
        values, details = per_layer(tracer, traced)
        untraced_s, traced_s = run.job_seconds(), traced.job_seconds()
        details["trace_overhead_s"] = traced_s - untraced_s
        details["trace_overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{workload.name}-seed{seed}-spans.npz"
        tracer.write(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
        units = dict(PER_LAYER)
        attempted = len(run.records) + len(traced.records)
        failed = run.failed() + traced.failed()
    calibration.append(calibrate())
    probes.append(host_probe())
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "os_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "scenario_spec_sha256": {
            str(s.seed): hashlib.sha256(repr(s).encode()).hexdigest()[:16] for s in specs
        },
        "replication": workload.replication,
        "calibration_s": calibration,
        "host_probe_s": probes,
        "ref_probe_s": REF_PROBE_S,
        "paper_evolution_csv_sha256": paper_csv_digest(seed),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    samples = {}
    for _, i, o, p in run.records:
        if o is not None and not p:
            samples.setdefault(o.kind, []).append([i, o.seconds, o.probe_s])
    if not trace:
        samples["setup"] = setup_times
    record = {"meta": meta, "details": details, "samples": samples, "result": result}
    return result, record


def main(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = bench(WORKLOADS[workload], seed, seconds, trace)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:<22.6g} {metric['unit']}")
    for name, value in record["details"].items():
        print(f"{name:36s} {json.dumps(value)}")
    print("meta " + json.dumps(record["meta"]))
    print(json.dumps(result))
    return 0
