"""Run the README's Python examples, so the documented API cannot drift
from the code: each ```python block runs in a fresh namespace, with its
own asserts."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_examples_are_found():
    # a pattern that found no block would leave nothing to run
    for name in ("run_adaptive", "price_call"):
        assert any(name in block for block in BLOCKS)


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
