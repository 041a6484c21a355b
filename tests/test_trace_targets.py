"""The benchmark tracer's targets exist and are bound where it patches them.

``perfbench/tracing.py`` wraps each listed function in every module that
imported it, and refuses to start if one of those modules binds another
object. This checks the same bindings without starting a traced run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("name,home,fn,patch_in", [
    pytest.param(name, home, fn, patch_in, id=name)
    for name, _, home, fn, patch_in in _targets()
])
def test_target_bound_in_every_patched_module(name, home, fn, patch_in):
    original = getattr(importlib.import_module(home), fn, None)
    assert callable(original), f"{home}.{fn} is missing"
    for mod_name in patch_in:
        bound = getattr(importlib.import_module(mod_name), fn, None)
        assert bound is original, f"{mod_name}.{fn} is not {home}.{fn}"
