"""Rules the package source keeps: every failure is a typed PblpError,
never an assert (which python -O strips) and never a StopIteration
from a next() without a default, and no float decides anything, so
float() appears only in the lossy plot comments of
cli_io.emit_plot_data.  The weight geometry, the problem records, the
decomposition and the oracles compute in ints and build a Fraction only
where a number leaves them: in weight_geometry only
ConvexPolygon2.vertices and ConvexPolygon2.area, in problem_model only
the plotted lambda segments, in wsd only an image's Fraction view and
the weight an unbounded solve names, and in oracle only the returned
images and the lambda grid.  Only weight_geometry builds a
ConvexPolygon2, so every polygon comes from a cut or a hull that keeps
canonical form.  No state lives at module level: no module-level dict,
list or set but __all__, and no global statement.  Two modules also keep their
layer: the vertex oracle shares no logic with the decomposition and the
interval routes it cross-checks, and the weight geometry builds only on
the problem records and raises the package's errors.  A case is its share vector
Case.shares, so Case.ONE and Case.TWO are named only in Case itself,
in the two interval routes and in the route pick that selects them.
Every module but the package __init__ uses each name it imports, and
every name the package __init__ exports is referenced by some other
module of the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pblp"
FLOAT_ALLOWED = {("cli_io", "emit_plot_data")}
FRACTION_RULED = {"weight_geometry", "problem_model", "wsd", "oracle"}
FRACTION_ALLOWED = {
    ("weight_geometry", "ConvexPolygon2.vertices"),
    ("weight_geometry", "ConvexPolygon2.area"),
    ("problem_model", "segment_for_lambda"),
    ("wsd", "ExtremeImage.image"),
    ("wsd", "find_extreme_image"),
    ("oracle", "extreme_nondominated_bruteforce"),
    ("oracle", "dichotomic_bolp"),
    ("oracle", "lambda_grid"),
    ("oracle", "sweep_lambda"),
}
MUTABLE_DISPLAYS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp
)
IMPORTS_FORBIDDEN = {"oracle": {"wsd", "breakpoints"}}
IMPORTS_ALLOWED = {"weight_geometry": {"problem_model", "errors"}}
CASE_NAMED = {
    ("problem_model", "Case"),
    ("breakpoints", "interval_lp_case1"),
    ("breakpoints", "interval_lp_case2"),
    ("breakpoints", "solve_on_decomposition"),
}


def _violations(path: pathlib.Path) -> list[str]:
    module = path.stem
    found = []

    def visit(node, function):
        # nested code counts as its outer function, a method as Class.method
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if function is None or function.endswith("."):
                function = (function or "") + node.name
                if isinstance(node, ast.ClassDef):
                    function += "."
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and (module, function) not in FLOAT_ALLOWED
        ):
            found.append(f"{path.name}:{node.lineno}: float() call")
        if (
            isinstance(node, ast.Call)
            and module in FRACTION_RULED
            and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and (module, function) not in FRACTION_ALLOWED
        ):
            found.append(f"{path.name}:{node.lineno}: Fraction() call")
        if (
            isinstance(node, ast.Call)
            and module != "weight_geometry"
            and "ConvexPolygon2" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ):
            found.append(f"{path.name}:{node.lineno}: ConvexPolygon2() call")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "next"
            and len(node.args) == 1
            and not node.keywords
        ):
            found.append(f"{path.name}:{node.lineno}: next() without a default")
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
        "def first(x):\n"
        "    return next(iter(x)), next(iter(x), None)\n"
    )
    assert _violations(bad) == [
        "cli_io.py:4: assert statement",
        "cli_io.py:5: float() call",
        "cli_io.py:7: next() without a default",
    ]


def test_the_fraction_rule_sees_what_it_forbids(tmp_path):
    geometry = tmp_path / "weight_geometry.py"
    geometry.write_text(
        "import fractions\n"
        "from fractions import Fraction\n"
        "Point2 = tuple[Fraction, Fraction]\n"
        "class ConvexPolygon2:\n"
        "    def vertices(self):\n"
        "        return [Fraction(x, w) for x, w in self.triples]\n"
        "    def area(self):\n"
        "        def half(v):\n"
        "            return Fraction(v, 2)\n"
        "        return half(1)\n"
        "    def is_empty(self):\n"
        "        return Fraction(0) == 0\n"
        "def area(poly):\n"
        "    return fractions.Fraction(1, 2)\n"
        "def vertices(poly):\n"
        "    return Fraction(1)\n"
    )
    assert _violations(geometry) == [
        "weight_geometry.py:12: Fraction() call",
        "weight_geometry.py:14: Fraction() call",
        "weight_geometry.py:16: Fraction() call",
    ]
    elsewhere = tmp_path / "breakpoints.py"
    elsewhere.write_text(geometry.read_text())
    assert _violations(elsewhere) == []
    wsd = tmp_path / "wsd.py"
    wsd.write_text(
        "from fractions import Fraction\n"
        "class ExtremeImage:\n"
        "    def image(self):\n"
        "        return tuple(Fraction(a, self.den) for a in self.numerators)\n"
        "def find_extreme_image(p, w):\n"
        "    raise ValueError(str(Fraction(w[0], w[2])))\n"
        "def decompose(p):\n"
        "    return Fraction(1, 2)\n"
    )
    assert _violations(wsd) == ["wsd.py:8: Fraction() call"]
    oracle = tmp_path / "oracle.py"
    oracle.write_text(
        "from fractions import Fraction\n"
        "def lambda_grid(m, k):\n"
        "    return [Fraction(i) * m / k for i in range(k + 1)]\n"
        "def _cone_rays(r):\n"
        "    return Fraction(r[0], r[-1])\n"
    )
    assert _violations(oracle) == ["oracle.py:5: Fraction() call"]


def test_the_polygon_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "wsd.py"
    bad.write_text(
        "from . import weight_geometry as wg\n"
        "from .weight_geometry import ConvexPolygon2, convex_hull\n"
        "def component(ts):\n"
        "    return convex_hull(ts), ConvexPolygon2(tuple(ts))\n"
        "def empty():\n"
        "    return wg.ConvexPolygon2(())\n"
    )
    assert _violations(bad) == [
        "wsd.py:4: ConvexPolygon2() call",
        "wsd.py:6: ConvexPolygon2() call",
    ]
    geometry = tmp_path / "weight_geometry.py"
    geometry.write_text(
        "def simplex_triangle():\n"
        "    return ConvexPolygon2(((0, 0, 1), (1, 0, 1), (0, 1, 1)))\n"
    )
    assert _violations(geometry) == []


def _state_violations(path: pathlib.Path) -> list[str]:
    """Module-level dicts, lists and sets (displays, comprehensions and
    dict/list/set calls) other than __all__, and global statements."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        names = [ast.unparse(t) for t in targets]
        if mutable and names != ["__all__"]:
            found.append(f"{path.name}:{node.lineno}: module-level {names[0]}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                found.append(f"{path.name}:{node.lineno}: global {name}")
    return found


def test_no_module_level_state():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [line for path in paths for line in _state_violations(path)]
    assert found == []


def test_the_state_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "lp_core.py"
    bad.write_text(
        "__all__ = ['solve_lp']\n"
        "_cache = {}\n"
        "_seen: set = set()\n"
        "_order = [k for k in range(3)]\n"
        "_sizes = (1, 2)\n"
        "_state.rows = []\n"
        "_solve_calls = 0\n"
        "def solve_lp():\n"
        "    global _solve_calls, _cache\n"
        "    local = {}\n"
    )
    assert _state_violations(bad) == [
        "lp_core.py:2: module-level _cache",
        "lp_core.py:3: module-level _seen",
        "lp_core.py:4: module-level _order",
        "lp_core.py:6: module-level _state.rows",
        "lp_core.py:9: global _solve_calls",
        "lp_core.py:9: global _cache",
    ]


def _pblp_imports(tree):
    """(line, pblp module) for every import of a pblp module in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pblp" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "pblp":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                yield node.lineno, parts[0]
            else:  # from . import a, b / from pblp import a, b
                for alias in node.names:
                    yield node.lineno, alias.name


def _layering_violations(path: pathlib.Path) -> list[str]:
    module = path.stem
    forbidden = IMPORTS_FORBIDDEN.get(module, set())
    allowed = IMPORTS_ALLOWED.get(module)
    return [
        f"{path.name}:{line}: imports {name}"
        for line, name in sorted(_pblp_imports(ast.parse(path.read_text(), filename=str(path))))
        if name in forbidden or (allowed is not None and name not in allowed)
    ]


def test_oracle_and_geometry_keep_their_layers():
    modules = (*IMPORTS_FORBIDDEN, *IMPORTS_ALLOWED)
    found = [line for m in modules for line in _layering_violations(SRC / f"{m}.py")]
    assert found == []


def test_the_layering_rule_sees_what_it_forbids(tmp_path):
    oracle = tmp_path / "oracle.py"
    oracle.write_text(
        "from .lp_core import solve_lp\n"
        "from .wsd import decompose\n"
        "def f():\n"
        "    from . import breakpoints, numerics\n"
        "import pblp.wsd\n"
    )
    assert _layering_violations(oracle) == [
        "oracle.py:2: imports wsd",
        "oracle.py:4: imports breakpoints",
        "oracle.py:5: imports wsd",
    ]
    geometry = tmp_path / "weight_geometry.py"
    geometry.write_text(
        "from fractions import Fraction\n"
        "from .problem_model import Pblp\n"
        "from .numerics import INF\n"
        "from .lp_core import solve_lp\n"
        "from pblp import wsd\n"
    )
    assert _layering_violations(geometry) == [
        "weight_geometry.py:3: imports numerics",
        "weight_geometry.py:4: imports lp_core",
        "weight_geometry.py:5: imports wsd",
    ]


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never references; a name listed in
    __all__ counts as referenced, and __future__ imports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line}: unused import {name}"
        for line, name in imported
        if name not in used
    ]


def test_modules_import_only_what_they_use():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    assert len(paths) >= 10
    found = [line for path in paths for line in _unused_imports(path)]
    assert found == []


def test_the_import_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "wsd.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .lp_core import FeasibleSystem, solve_lp\n"
        "from .numerics import INF\n"
        "__all__ = ['INF']\n"
        "def f(system: FeasibleSystem):\n"
        "    return os.sep\n"
    )
    assert _unused_imports(bad) == [
        "wsd.py:3: unused import F",
        "wsd.py:4: unused import solve_lp",
    ]


def _unreferenced_exports(package: pathlib.Path) -> list[str]:
    """Names the package __init__ imports from a module m, and so
    exports, that no module of package but __init__ reads.  A module
    reads the name when it loads it and is m or imported it from m, or
    when it loads it as an attribute of m bound by "from . import m".
    An attribute of anything else, or a name another module defines for
    itself, does not count."""
    init = ast.parse((package / "__init__.py").read_text())
    exported = [
        (alias.lineno, node.module, alias.asname or alias.name)
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    referenced = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add((path.stem, node.id))
                referenced.add(imported.get(node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                referenced.add((modules[node.value.id], node.attr))
    return [
        f"__init__.py:{line}: {name} is exported and never referenced"
        for line, module, name in exported
        if (module, name) not in referenced
    ]


def test_every_export_is_referenced_in_the_package():
    assert _unreferenced_exports(SRC) == []


def test_the_export_rule_sees_what_it_forbids(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .lp_core import (\n"
        "    solve_lp,\n"
        "    solve_lex_lp,\n"
        ")\n"
        "from .wsd import decompose, find_extreme_image\n"
        "from .problem_model import Case, fix_lambda, ws_scalarize\n"
    )
    (tmp_path / "lp_core.py").write_text(
        "def solve_lp(lp):\n"
        "    return lp\n"
        "def solve_lex_lp(lp):\n"
        "    return lp\n"
    )
    (tmp_path / "wsd.py").write_text(
        "from . import problem_model as pm\n"
        "from .lp_core import solve_lp as run\n"
        "def decompose(p):\n"
        "    return run(pm.Case)\n"
        "def find_extreme_image(p):\n"
        "    return p.find_extreme_image(p.fix_lambda)\n"
    )
    (tmp_path / "problem_model.py").write_text(
        "class Case:\n"
        "    pass\n"
        "def fix_lambda(p):\n"
        "    return p\n"
        "def ws_scalarize(p):\n"
        "    return p\n"
    )
    (tmp_path / "oracle.py").write_text(
        "def fix_lambda(p):\n"
        "    return p\n"
        "def sweep(p):\n"
        "    return fix_lambda(p)\n"
    )
    assert _unreferenced_exports(tmp_path) == [
        "__init__.py:3: solve_lex_lp is exported and never referenced",
        "__init__.py:5: decompose is exported and never referenced",
        "__init__.py:5: find_extreme_image is exported and never referenced",
        "__init__.py:6: fix_lambda is exported and never referenced",
        "__init__.py:6: ws_scalarize is exported and never referenced",
    ]


def _case_violations(path: pathlib.Path) -> list[str]:
    """Case.ONE and Case.TWO named outside the top-level definitions
    in CASE_NAMED."""
    module = path.stem
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "Case"
                and node.attr in ("ONE", "TWO")
                and (module, owner) not in CASE_NAMED
            ):
                found.append(f"{path.name}:{node.lineno}: Case.{node.attr}")
    return found


def test_cases_are_named_only_where_the_routes_are_picked():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [line for path in paths for line in _case_violations(path)]
    assert found == []


def test_the_case_rule_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "problem_model.py"
    bad.write_text(
        "class Case(Enum):\n"
        "    def shares(self):\n"
        "        return (1, 0) if self is Case.ONE else (1, 1)\n"
        "def fix_lambda(p, lam):\n"
        "    if p.case is Case.ONE:\n"
        "        return p.c2\n"
        "DEFAULT = Case.TWO\n"
    )
    assert _case_violations(bad) == [
        "problem_model.py:5: Case.ONE",
        "problem_model.py:7: Case.TWO",
    ]
    routes = tmp_path / "breakpoints.py"
    routes.write_text(
        "def interval_lp_case1(h, base):\n"
        "    return _interval_lp(h, Case.ONE, base)\n"
        "def _den(case):\n"
        "    return (1, 0, 0) if case is Case.ONE else (1, 1, 0)\n"
    )
    assert _case_violations(routes) == ["breakpoints.py:4: Case.ONE"]
