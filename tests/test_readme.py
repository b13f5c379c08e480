"""README.md's examples run as written: every `python` block, in order, in one namespace."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_python_blocks_run(capsys):
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) >= 2  # the quick start and the ensemble, which builds on it
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out
