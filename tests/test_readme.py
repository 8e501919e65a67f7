"""The README's Python examples run as written against the package, and
its config table matches the config's fields and defaults."""

import re
from dataclasses import fields
from pathlib import Path

from pdtomo.config import ExperimentConfig, parse_config_text

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
