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


def _runs(**values):
    """Canned perfbench metrics dicts, one per pair, from lists of values."""
    n = len(next(iter(values.values())))
    return [{name: {"value": v[i], "unit": "s"} for name, v in values.items()}
            for i in range(n)]


def test_perf_pairs_summary_counts_wins_bounds_and_the_claim():
    perf_pairs = _tool("perf_pairs")
    end_to_end = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_heap_mb", "unit": "MB", "better": "lower", "bound": 0.2},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
    parent = _runs(wall_s=[1.0, 1.1, 1.2, 1.0, 1.1, 1.0, 1.2, 1.1, 1.0, 1.1],
                   peak_heap_mb=[10.0] * 10, rate=[5.0] * 10)
    change = _runs(wall_s=[0.8, 0.9, 1.0, 0.8, 0.9, 0.8, 1.0, 0.9, 0.8, 1.2],
                   peak_heap_mb=[10.0] * 9 + [13.0], rate=[4.0] * 10)
    wall, heap, rate = perf_pairs.summarise(parent, change, end_to_end)
    # nine of ten pairs lower, and a median gap of 0.2 against a parent IQR
    # of 0.1
    assert wall["wins"] == 9 and wall["pairs"] == 10
    assert wall["parent"] == (1.0, 1.1, 1.1) and wall["change"][1] == 0.9
    assert abs(wall["median_change_pct"] + 100 * 0.2 / 1.1) < 1e-12
    assert wall["claim_holds"] and not wall["worse_than_bound"]
    # ties count for neither side; one worse run leaves the median
    assert heap["wins"] == 0 and heap["median_change_pct"] == 0.0
    assert not heap["claim_holds"] and not heap["worse_than_bound"]
    # higher is better: a 20% drop is worse than a 10% bound
    assert rate["wins"] == 0 and rate["median_change_pct"] == -20.0
    assert rate["worse_than_bound"] and not rate["claim_holds"]
    # eight wins of ten fall short of the claim whatever the gap
    change[1]["wall_s"]["value"] = 1.2
    assert not perf_pairs.summarise(parent, change, end_to_end)[0]["claim_holds"]
    lines = perf_pairs.format_summary([wall, rate]).splitlines()
    assert "wins 9/10" in lines[0] and "claim holds" in lines[0]
    assert "WORSE THAN BOUND" in lines[1]
