"""Checks of the program, tool and test modules themselves."""

import ast
import collections
import dataclasses
import importlib.util
import inspect
import pathlib
import subprocess

from compact_tik import experiment, linop, mlp, nnsolver, tikhonov

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


# function scopes: an import inside one binds its name for that function only
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scope_nodes(scope):
    """The nodes of a scope, nested function scopes included but not their contents."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(tree, lines):
    """(line, name) of each import whose name no code in its scope reads.

    A name is read where it resolves to that import: in the importing scope or
    a nested one that does not import the name again. Lines marked
    ``# noqa: F401`` are exempt.
    """
    unused = set()

    def visit(scope, visible):
        nodes = list(scope_nodes(scope))
        visible = dict(visible)
        for node in nodes:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    binding = (alias.lineno, (alias.asname or alias.name).split(".")[0])
                    visible[binding[1]] = binding
                    if "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.add(binding)
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in visible:
                unused.discard(visible[node.id])
            elif isinstance(node, SCOPES):
                visit(node, visible)

    visit(tree, {})
    return sorted(unused)


def test_no_package_module_imports_a_name_it_never_uses():
    # a module-level import of a name that only one command uses loads its
    # module into every process; such an import belongs in that command
    found = []
    for path in sorted((ROOT / "src" / "compact_tik").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for line, name in unused_imports(tree, text.splitlines())]
    assert found == []


def test_an_import_shadowed_in_its_only_user_counts_as_unused():
    text = (
        "import os\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from . import svgplot\n"
        "from . import radon  # noqa: F401\n"
        "def plot():\n"
        "    from . import svgplot\n"
        "    return svgplot, os.sep\n"
        "def sweep():\n"
        "    def cell():\n"
        "        return ThreadPoolExecutor\n"
        "    return cell\n"
    )
    assert unused_imports(ast.parse(text), text.splitlines()) == [(3, "svgplot")]


def load_code_size():
    spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_size_counts_lines_by_the_grep_rule():
    paths = sorted((ROOT / "src" / "compact_tik").glob("*.py"))
    grep = subprocess.run(["grep", "-hcvE", r"^\s*(#|$)", *map(str, paths)],
                          capture_output=True, text=True, check=True)
    assert load_code_size().code_lines(paths) == sum(map(int, grep.stdout.split()))


def test_code_size_counts_dataclass_fields_and_defaulted_parameters(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 2\n"
        "    def f(self, k=1, *, m=2, n): return lambda v=3: v\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    z: float = 0.0\n"
        "class C(NamedTuple):\n"
        "    w: int\n"
        "def g(a, b=None): pass\n"
    )
    assert load_code_size().settable_values([path]) == (3, 4)


def test_library_solvers_and_loops_take_their_settings_from_the_caller():
    # SweepConfig and the command schemas hold each setting's default; a
    # second default in a library signature would run a value no manifest names
    required = {
        linop.cg_solve: ("tol", "max_iter"),
        linop.cg_solve_shifted: ("tol", "max_iter"),
        tikhonov.solve_tikhonov: ("tol", "max_iter"),
        mlp.AdamState.for_params: ("learning_rate",),
        experiment.run_sweep: ("threads",),
        experiment.linear_oracle: ("seed",),
    }
    defaulted = [f"{fn.__qualname__}({name})" for fn, names in required.items()
                 for name in names
                 if inspect.signature(fn).parameters[name].default is not inspect.Parameter.empty]
    fields = {f.name: f for f in dataclasses.fields(nnsolver.NnReconstructionConfig)}
    defaulted += [f"NnReconstructionConfig.{name}" for name in ("iterations", "seed")
                  if fields[name].default is not dataclasses.MISSING]
    assert defaulted == []
