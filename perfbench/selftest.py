"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracer import PATCHES, Tracer  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_metric_with_unit(name, trace):
    small = replace(WORKLOADS[name], instances=1, evaluations=80)
    result, record = harness.bench(small, seed=0, seconds=0, trace=trace)
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    if trace:
        assert "trace_overhead_s" in record["details"]
    else:
        assert record["details"]["failed_fraction"] == 0
        if small.tiny:
            assert record["details"]["front_recovered_fraction"] > 0


def test_probe_time_is_left_out_of_job_time():
    paper = WORKLOADS["paper"]
    prob = paper.build(paper.spec(0))
    spent = []

    def sampler():
        start = time.perf_counter()
        time.sleep(0.002)
        spent.append(time.perf_counter() - start)
        return spent[-1]

    start = time.perf_counter()
    outcome = run_job("nsga2", prob, 0, 200, sampler=sampler)
    wall = time.perf_counter() - start
    assert len(spent) == len(outcome.stats) > 1
    assert 0 < outcome.seconds <= wall - sum(spent)


def _fogplan_namespace():
    """Identity snapshot of every attribute of fogplan's modules and patched classes."""
    owners = [m for n, m in sys.modules.items() if n == "fogplan" or n.startswith("fogplan.")]
    for module_name, target, _, _ in PATCHES:
        if "." in target:
            owners.append(getattr(sys.modules[module_name], target.split(".")[0]))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_function():
    import fogplan.fsdp
    import fogplan.moea.nsga2
    import fogplan.oracle

    before = _fogplan_namespace()
    make_solution = fogplan.moea.nsga2.make_solution
    tracer = Tracer()
    tracer.install()
    try:
        # consumer modules are patched, not only the defining one
        assert fogplan.moea.nsga2.make_solution is not make_solution
        assert fogplan.oracle.make_solution is not fogplan.moea.nsga2.make_solution
        assert fogplan.fsdp.ProblemInstance.as_assignment.__wrapped__ is not None
        changed = [k for k, v in _fogplan_namespace().items() if before.get(k) is not v]
        assert len(changed) >= len(PATCHES)
    finally:
        tracer.restore()
    after = _fogplan_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_a_failed_install():
    before = _fogplan_namespace()
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install(PATCHES + (("fogplan.fsdp", "no_such_function", "x", "span"),))
    after = _fogplan_namespace()
    assert all(after[k] is v for k, v in before.items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
