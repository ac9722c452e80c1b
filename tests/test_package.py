import pytest

import fogplan
import fogplan.moea


@pytest.mark.parametrize("module", [fogplan, fogplan.moea], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
