"""The scripts in scripts/ run end to end on short passes."""

import csv
import importlib.util
from pathlib import Path

import pytest

from pdtomo.cli import DEMOS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# run-based study -> the labels of its runs, in order
RUN_STUDIES = {
    "lsq": ["cppd", "gd", "cgls"],
    "precondition": ["scalar", "K_1", "K_5", "K_25"],
    "tv": ["tvclsq", "lsq"],
}
# case -> (script, its arguments but -o)
CASES = {
    **{study: ("studies", [study, "--k-max", "5"]) for study in RUN_STUDIES},
    "toy": ("studies", ["toy"]),
    "split_crossover": (
        "split_crossover",
        ["--blocks", "1", "--nx", "16", "--gradient-nx", "16"],
    ),
}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == ["split_crossover", "studies"]
    assert sorted(load_script("studies").STUDIES) == sorted(RUN_STUDIES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_study_script_main_runs(case, tmp_path, capsys):
    script, argv = CASES[case]
    module = load_script(script)
    assert module.main([*argv, "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    if case == "toy":
        # one directory of CSVs per demo, each file reported
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DEMOS)
        written = sorted(str(p) for p in tmp_path.glob("*/*.csv"))
        assert sorted(line.removeprefix("wrote ") for line in out) == written
    elif case == "split_crossover":
        path = tmp_path / "split_crossover.csv"
        assert out[-1] == f"wrote {path}"
        with open(path, newline="") as fh:
            # X and X^T of every preset, then D and D^T at one grid size
            assert len(list(csv.DictReader(fh))) == 2 * len(module.PRESETS) + 2
    else:
        summary = tmp_path / "summary.csv"
        assert out == [f"{case} summary -> {summary}"]
        with open(summary, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["value"] for row in rows] == RUN_STUDIES[case]
        for row in rows:
            assert row["status"] == "ok"
            run = tmp_path / row["value"]
            assert (run / "convergence.csv").is_file() and (run / "manifest").is_file()


@pytest.mark.parametrize("study", sorted(RUN_STUDIES))
def test_study_whose_every_config_is_invalid_writes_nothing(study, tmp_path, capsys):
    out = tmp_path / "out"
    assert load_script("studies").main([study, "-o", str(out), "--k-max", "0"]) == 1
    assert "k_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(CASES))
def test_empty_outdir_is_refused_before_anything_is_written(case, tmp_path, monkeypatch):
    # Path("") is the working directory, and f"{''}/name" the root
    script, argv = CASES[case]
    monkeypatch.chdir(tmp_path)
    assert load_script(script).main([*argv, "-o", ""]) != 0
    assert list(tmp_path.iterdir()) == []
