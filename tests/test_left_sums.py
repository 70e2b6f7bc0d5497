"""Every float sum in the package adds left to right.

``sum`` compensates its rounding from Python 3.12 on, and ``math.fsum``
rounds once, so either would give other bits than a left-to-right chain of
``+`` (``tables._left_sum``) on some supported version.  The package may
call neither, except at the sites listed in ``INTEGER_SUMS``, which add
integers and so are exact.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loglin_effects"

#: (module, enclosing function, source) of each ``sum`` allowed: it adds ints
INTEGER_SUMS = [("fitting.py", "_fit", "sum(cell)")]


def _float_sum_sites(path):
    """(module, enclosing function, source) of every use of ``sum`` or
    ``fsum`` in the module at ``path``: a call, or the name itself where it
    is not called."""
    text = path.read_text()
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        children = list(ast.iter_child_nodes(node))
        called = isinstance(node, ast.Call) and _is_sum(node.func)
        if called:  # the call is the site, not its name
            children.remove(node.func)
        if called or _is_sum(node):
            sites.append((path.name, function,
                          ast.get_source_segment(text, node)))
        for child in children:
            visit(child, function)

    visit(ast.parse(text), None)
    return sites


def _is_sum(node):
    if isinstance(node, ast.Name):
        return node.id in ("sum", "fsum")
    if isinstance(node, ast.Attribute):
        return node.attr == "fsum"
    if isinstance(node, ast.alias):
        return node.name == "fsum"
    return False


def test_no_float_sum_but_the_listed_integer_sites():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in _float_sum_sites(path)]
    assert sites == INTEGER_SUMS


def test_the_check_sees_every_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import math\n"
        "from math import fsum\n"
        "def f(values):\n"
        "    total = sum(values) + math.fsum(values)\n"
        "    return list(map(sum, [values])), fsum\n"
    )
    assert _float_sum_sites(path) == [
        ("module.py", None, "fsum"),
        ("module.py", "f", "sum(values)"),
        ("module.py", "f", "math.fsum(values)"),
        ("module.py", "f", "sum"),
        ("module.py", "f", "fsum"),
    ]
