"""Rules the package source keeps: every failure is a typed PblpError,
never an assert (which python -O strips), and no float decides
anything, so float() appears only in the lossy plot comments of
cli_io.emit_plot_data."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pblp"
FLOAT_ALLOWED = {("cli_io", "emit_plot_data")}


def _violations(path: pathlib.Path) -> list[str]:
    module = path.stem
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name  # nested code counts as its outer function
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and (module, function) not in FLOAT_ALLOWED
        ):
            found.append(f"{path.name}:{node.lineno}: float() call")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_source_has_no_assert_and_no_stray_float():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [line for path in paths for line in _violations(path)]
    assert found == []


def test_the_rules_see_what_they_forbid(tmp_path):
    bad = tmp_path / "cli_io.py"
    bad.write_text(
        "def emit_plot_data(x):\n"
        "    return float(x)\n"
        "def emit_solution(x):\n"
        "    assert x\n"
        "    return [float(v) for v in x]\n"
    )
    assert _violations(bad) == [
        "cli_io.py:4: assert statement",
        "cli_io.py:5: float() call",
    ]
