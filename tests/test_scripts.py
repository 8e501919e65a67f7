"""The study scripts in scripts/ run end to end on short passes."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (extra arguments, paths it reports on stdout)
RUNS = {
    "lsq_convergence": (["--k-max", "5"], 3),
    "precondition_study": (["--k-max", "5"], 1),
    "tv_constrained_study": (["--k-max", "5"], 2),
    "toy_dynamics": ([], None),
    "split_crossover": (["--blocks", "1", "--nx", "16", "--gradient-nx", "16"], 1),
}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_study_script_main_runs(name, tmp_path, capsys):
    extra, n_reported = RUNS[name]
    module = load_script(name)
    assert module.main(["-o", str(tmp_path), *extra]) == 0
    reported = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("wrote "):
            reported.append(line.removeprefix("wrote "))
        elif " -> " in line:
            reported.append(line.split(" -> ", 1)[1])
    if n_reported is None:
        # toy_dynamics writes one or more files per demo
        assert len(reported) >= len(module.DEMOS)
    else:
        assert len(reported) == n_reported
    for path in map(Path, reported):
        assert path.exists() and tmp_path in path.parents
        if path.is_dir():
            # a run directory holds the run's artifacts
            assert (path / "convergence.csv").is_file() and (path / "manifest").is_file()
        elif path.name == "summary.csv":
            # a sweep records a failed value as a row, not an error
            with open(path, newline="") as fh:
                assert {row["status"] for row in csv.DictReader(fh)} == {"ok"}
