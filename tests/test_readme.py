"""The README's Python examples run as written.

Every ```python block of README.md is executed, in order, in one shared
namespace, as a reader pasting them into one session would.
"""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for n, block in enumerate(blocks, 1):
        exec(compile(block, "README.md python block %d" % n, "exec"), namespace)
    assert "hbar^1: 1/2*i" in capsys.readouterr().out
