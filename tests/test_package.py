import importlib
import importlib.util
from pathlib import Path

import pytest

import fogplan
import fogplan.moea

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", [fogplan, fogplan.moea], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_traced_name_resolves():
    # the benchmark's tracer patches these (module, target) pairs by name;
    # load it by path and only read its table: no patch is installed
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, target, *_ in tracer.PATCHES:
        owner = importlib.import_module(module_name)
        for attr in target.lstrip("=").split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append((module_name, target))
    assert tracer.PATCHES and missing == []
