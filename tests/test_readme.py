"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

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
