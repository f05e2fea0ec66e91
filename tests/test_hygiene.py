"""Checks of the program, tool and test modules themselves."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = [*(ROOT / "tests").glob("*.py"), ROOT / "perfbench" / "test_perfbench.py",
           *(ROOT / "src" / "compact_tik").glob("*.py"), *(ROOT / "tools").glob("*.py")]


def test_no_test_module_defines_a_name_twice():
    # Python keeps only the last module-level definition of a name, so a test
    # that an earlier definition of the same name holds never runs, and a
    # function that an earlier definition of the same name holds is dead code
    repeated = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = collections.Counter(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        repeated += [f"{path.relative_to(ROOT)}: {name}" for name, k in names.items() if k > 1]
    assert repeated == []
