import importlib.util
import os

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


class A:
    """Class docstring."""

    # a comment line
    x = """not a docstring,
    but a string over two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_code_lines_skips_blank_lines_comments_and_docstrings():
    # counted: import, class, both lines of x's string, def, both lines of
    # the return
    assert _tool("code_lines").code_lines(_SNIPPET) == 7


def test_code_lines_prints_each_module_and_the_total(capsys):
    code_lines = _tool("code_lines")
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
    assert "incremental.py" in {name for _, name in rows[:-1]}
