"""The README's Python examples run as written against the package, its
`pdtomo eig` example prints what its comment shows, its config table
matches the config's fields and defaults, and its study commands name
the scripts and studies that exist."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from pdtomo import cli
from pdtomo.config import ExperimentConfig, parse_config_text
from test_scripts import load_script

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the first block's 2,000 scalar-plan iterations converge on
    # inverse-crime data, and the second block steps on from its plan
    assert namespace["record"].at_iteration(2000, "image_rmse") < 1e-3
    assert namespace["state"].iteration == 100
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_config_table_matches_the_config_fields_and_defaults():
    text = README.read_text()
    table = text.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    keys, values = [], []
    for row in table.split("\n\n", 1)[0].splitlines():
        key_cell, default_cell = row.split("|")[1:3]
        names = re.findall(r"`([^`]+)`", key_cell)
        defaults = re.findall(r"`([^`]*)`", default_cell)
        assert len(defaults) == len(names), row
        keys += names
        values += defaults
    assert keys == [f.name for f in fields(ExperimentConfig)]
    defaults = ExperimentConfig()
    for key, value in zip(keys, values):
        parsed = getattr(parse_config_text(f"{key} = {value}"), key)
        assert parsed == getattr(defaults, key), key


EIG_LINE = re.compile(r"eigenvalues \[(.*)\], sigma0 (\S+) cached at (\S+)$")


def test_readme_eig_example_prints_its_comment(tmp_path, monkeypatch, capsys):
    command, comment = re.search(
        r"^(pdtomo eig .*)\n# (eigenvalues .*)$", README.read_text(), re.M
    ).groups()
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0
    got = EIG_LINE.match(capsys.readouterr().out.strip()).groups()
    want = EIG_LINE.match(comment).groups()
    # the eigcache file name and the printed eigenvalues exactly
    assert got[2] == want[2] and Path(got[2]).is_file()
    assert got[0] == want[0]
    assert float(got[1]) == pytest.approx(float(want[1]), rel=1e-12)


def test_readme_study_commands_name_existing_scripts_and_every_study():
    block = re.search(
        r"^## Study scripts\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S
    ).group(1)
    studies = []
    for line in block.splitlines():
        python, script, *args = shlex.split(line, comments=True)
        assert python == "python3" and script.startswith("scripts/"), line
        assert (README.parent / script).is_file(), line
        if script == "scripts/studies.py":
            studies.append(args[0])
    known = {"toy", *load_script("studies").STUDIES}
    assert set(studies) == known
