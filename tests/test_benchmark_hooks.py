"""The benchmark's probes must keep resolving on the package.

`perfbench/sample.py` wraps public `pdtomo` functions and map factories
by (module, attribute).  A rename or deletion on the package side would
make a probe fail at install time, so every entry is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SAMPLE = Path(__file__).resolve().parents[1] / "perfbench" / "sample.py"


def load_sample():
    spec = importlib.util.spec_from_file_location("perfbench_sample", SAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE_MODULE = load_sample()
HOOKS = sorted(
    {(module, attr) for module, attr, *_ in SAMPLE_MODULE.FUNCTION_HOOKS}
    | {(module, attr) for module, attr, *_ in SAMPLE_MODULE.MAP_HOOKS}
)


def test_hook_tables_are_not_empty():
    assert SAMPLE_MODULE.FUNCTION_HOOKS and SAMPLE_MODULE.MAP_HOOKS


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_benchmark_hook_resolves(module, attr):
    assert module.split(".")[0] == "pdtomo"
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} no longer resolves"


def test_record_methods_the_probe_wraps_exist():
    from pdtomo.solver import ConvergenceRecord

    assert callable(ConvergenceRecord.append)
    assert callable(ConvergenceRecord.to_csv)
