"""Every module-level import of the package is used.

A deletion that leaves an import behind keeps a dead dependency between
modules; this guard reads each module's syntax tree (no import runs) and
lists the imported names that nothing in the module refers to.  Seven
more guards read the same trees: every top-level function, class or
constant is referenced, no `except` clause but the last resort of `cli.main`
catches every exception, only `homog_core._compile_function` turns
text into code, no statement evaluates two polynomials apart, no module
but `homog_core` evaluates a polynomial alone, no command handler of
`cli` returns an exit code, and only `SampledPair` turns GAP_FACTOR into
a gap tolerance.  One fresh interpreter checks that no command imports
`numpy.ma`.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slemma"


def unused_imports(path: Path) -> list[str]:
    """`<file>:<line> <name>` for each module-level import of `path`
    whose name is never referenced; `__future__` imports are exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_module_imports():
    unused = [item for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for item in unused_imports(path)]
    assert unused == []


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's
    name, or the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """`<file>:<line> <name>` for each top-level function, class or
    constant of the modules in `paths` that no code of those modules
    refers to outside the definition itself; dunder names such as
    `__all__` are exempt.  Importing a name counts as a reference, so the
    package's exports in `__init__.py` do."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined, used = {}, set()
    for path, tree in trees.items():
        for node in tree.body:
            for name in defined_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    defined[name] = f"{path.name}:{node.lineno} {name}"
        for top in tree.body:
            own = defined_names(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    used.add(name)
    return [where for name, where in defined.items() if name not in used]


def test_every_top_level_definition_is_referenced():
    assert unreferenced_definitions(sorted(SRC.glob("*.py"))) == []



def owned_nodes(path: Path) -> list[tuple[ast.AST, str]]:
    """(node, owner) for every node of `path`'s syntax tree; owner is the
    innermost function or class holding the node, or `<module>`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            found.append((child, owner))
            scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            visit(child, child.name if isinstance(child, scope) else owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def broad_handlers(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each `except` clause of `path` that
    is bare or catches `Exception` or `BaseException`, alone or in a
    tuple; <function> is the innermost function or class holding it."""
    found = []
    for node, owner in owned_nodes(path):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None or any(isinstance(name, ast.Name) and name.id in (
                    "Exception", "BaseException") for name in names):
                found.append(f"{path.name}:{node.lineno} {owner}")
    return found


def test_no_broad_exception_handlers():
    # only the last-resort handler in cli.main may catch everything: it
    # turns an unexpected exception into exit 3; elsewhere a broad handler
    # hides a bug or replays work to disguise one
    broad = [item for path in sorted(SRC.glob("*.py")) for item in broad_handlers(path)]
    assert [item for item in broad if not re.fullmatch(r"cli\.py:\d+ main", item)] == []


def code_generation_calls(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each call of the builtins `compile`,
    `exec` or `eval` in `path`; <function> is the innermost function or
    class holding it."""
    return [f"{path.name}:{node.lineno} {owner}" for node, owner in owned_nodes(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("compile", "exec", "eval")]


def test_straight_line_code_is_compiled_in_one_place():
    # generated source reaches the interpreter only through the compiler
    # that sees no builtin but abs, so a second copy cannot drift from it
    calls = [item for path in sorted(SRC.glob("*.py")) for item in code_generation_calls(path)]
    assert [item for item in calls
            if not re.fullmatch(r"homog_core\.py:\d+ _compile_function", item)] == []
    assert len(calls) == 2


def evaluate_pairs(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each statement of `path` whose own
    expressions (not those of the statements nested in it) call
    `.evaluate(` more than once; <function> is the innermost function or
    class holding it."""
    found = []
    for node, owner in owned_nodes(path):
        if not isinstance(node, ast.stmt):
            continue
        calls = [call for child in ast.iter_child_nodes(node) if not isinstance(child, ast.stmt)
                 for call in ast.walk(child) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Attribute) and call.func.attr == "evaluate"]
        if len(calls) > 1:
            found.append(f"{path.name}:{node.lineno} {owner}")
    return found


def test_polynomials_on_the_same_points_are_evaluated_in_one_pass(tmp_path):
    # f.evaluate(X) and g.evaluate(X) each take their own powers of X;
    # evaluate_many((f, g), X) shares them
    sample = tmp_path / "sample.py"
    sample.write_text("def h(f, g, X):\n"
                      "    if f.evaluate(X).min() > 0:\n"
                      "        return f.evaluate(X) - g.evaluate(X)\n")
    assert evaluate_pairs(sample) == ["sample.py:3 h"]
    assert [item for path in sorted(SRC.glob("*.py")) for item in evaluate_pairs(path)] == []


def evaluate_calls(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each call of an attribute named
    `evaluate` in `path`; <function> is the innermost function or class
    holding it."""
    return [f"{path.name}:{node.lineno} {owner}" for node, owner in owned_nodes(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate"]


def test_only_homog_core_evaluates_a_polynomial_alone():
    # outside homog_core every pass over sample points goes through
    # evaluate_many, so that a second polynomial on the same points joins
    # the pass instead of taking the powers of the points again
    assert [item for path in sorted(SRC.glob("*.py")) if path.name != "homog_core.py"
            for item in evaluate_calls(path)] == []


def exit_code_returns(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each `return` in a top-level `cmd_*`
    function of `path` whose value is an int literal or a tuple whose
    first element is one."""
    found = []
    for top in ast.parse(path.read_text()).body:
        if not (isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_")):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if isinstance(value, ast.Constant) and type(value.value) is int:
                found.append(f"{path.name}:{node.lineno} {top.name}")
    return found


def test_command_handlers_return_verdicts_not_exit_codes(tmp_path):
    # a handler returns its report's verdict and its summary line; cli.main
    # alone maps a verdict to an exit code
    sample = tmp_path / "sample.py"
    sample.write_text("def cmd_a(args, problem):\n"
                      "    if args:\n"
                      "        return 1\n"
                      "    return 0, 'line'\n"
                      "def helper():\n"
                      "    return 0\n")
    assert sorted(exit_code_returns(sample)) == ["sample.py:3 cmd_a", "sample.py:4 cmd_a"]
    assert exit_code_returns(SRC / "cli.py") == []


def gap_factor_uses(path: Path) -> list[str]:
    """`<file>:<line> <function>` for each name or attribute `GAP_FACTOR`
    that `path` reads or imports, outside its own definition;
    <function> is the innermost function or class holding it."""
    return [f"{path.name}:{node.lineno} {owner}" for node, owner in owned_nodes(path)
            if (isinstance(node, ast.Name) and node.id == "GAP_FACTOR"
                and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "GAP_FACTOR")
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == "GAP_FACTOR" for alias in node.names))]


def test_only_the_sampled_pair_reads_the_gap_factor(tmp_path):
    # a pair's gap_tol is the one trusted gap width of its samples; a
    # second copy of GAP_FACTOR * 2 pi / count could drift from it
    sample = tmp_path / "sample.py"
    sample.write_text("from .image_analysis import GAP_FACTOR\n"
                      "GAP_FACTOR = 3.0\n"
                      "def h(count):\n"
                      "    return image_analysis.GAP_FACTOR / count\n")
    assert gap_factor_uses(sample) == ["sample.py:1 <module>", "sample.py:4 h"]
    assert [item for path in sorted(SRC.glob("*.py")) for item in gap_factor_uses(path)
            if not re.fullmatch(r"image_analysis\.py:\d+ __init__", item)] == []


NUMPY_MA_SCRIPT = """
import sys
from slemma.cli import COMMANDS, main
switch, fixture, out = sys.argv[1:]
runs = [[command, switch] for command in COMMANDS]
runs += [["image", fixture], ["shs-check", fixture]]
for k, argv in enumerate(runs):
    main([*argv, "--out-dir", f"{out}/{k}"])
print("numpy.ma imported:", "numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # np.median, np.unique, np.isin and their kin import numpy.ma on first
    # use, about 10-20 ms and 1 MB of a cold run that needs none of it
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT, str(ROOT / "problems" / "switch_sextic.json"),
         str(ROOT / "tests" / "fixtures" / "quadratic3_spurious_gap.json"), str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy.ma imported: False"
