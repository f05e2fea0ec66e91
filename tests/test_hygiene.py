"""Checks of the test modules themselves."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_MODULES = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "perfbench" / "test_perfbench.py"]


def test_no_test_module_defines_a_name_twice():
    # Python keeps only the last module-level definition of a name, so a test
    # that an earlier definition of the same name holds never runs
    repeated = []
    for path in TEST_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = collections.Counter(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        repeated += [f"{path.relative_to(ROOT)}: {name}" for name, k in names.items() if k > 1]
    assert repeated == []
