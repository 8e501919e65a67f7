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


def test_lowrank_sweep_computes_the_eigenpairs_once(tmp_path, monkeypatch):
    # perfbench marks `lowrank-sweep` incorrect unless its four rho values
    # make one `cli.save_eigenset` call, three `cli.load_eigenset` calls
    # and one file in `cache_dir`
    from pdtomo import cli

    calls = {"save_eigenset": 0, "load_eigenset": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cache = tmp_path / "eigcache"
    argv = ["sweep", "-o", str(tmp_path / "out")]
    for pair in (
        "nx=16",
        "geometry=desk-sparse",
        "problem=lsq",
        "plan=lowrank",
        "k_eigs=3",
        "k_max=5",
        "record_stride=5",
        f"cache_dir={cache}",
    ):
        argv += ["--set", pair]
    argv += ["--param", "rho", "--values", "0.05,0.1,0.2,1.0"]
    assert cli.main(argv) == 0
    assert calls == {"save_eigenset": 1, "load_eigenset": 3}
    assert len(list(cache.iterdir())) == 1
