"""Print the package's code lines and settable values, the two size numbers of a simplicity change.

Run from anywhere:

    python3 tools/code_size.py [path/to/src/compact_tik]

The rules, over the package's ``*.py`` files (``src/compact_tik`` of this
checkout by default):

- code lines: lines that are neither blank nor a comment, the count of
  ``grep -cvE '^\\s*(#|$)'``; docstring lines count;
- settable values: the fields of every ``@dataclass`` class (its annotated
  class-level names) plus every parameter that has a default, in a ``def``
  or a ``lambda``, keyword-only ones included. ``NamedTuple`` fields are not
  counted: the two such classes, ``radon._Block`` and ``radon._Group``, hold
  parts of a compiled projector table, which no caller sets (counting their
  seven fields would add 7).
"""

import ast
import pathlib
import re
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "compact_tik"
CODE_LINE = re.compile(r"^\s*(#|$)")


def code_lines(paths):
    """Lines of ``paths`` that are neither blank nor a comment."""
    return sum(not CODE_LINE.match(line) for path in paths
               for line in path.read_text().splitlines())


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(paths):
    """(dataclass fields, defaulted parameters) of ``paths``."""
    fields = defaults = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                              for stmt in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
    return fields, defaults


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    paths = sorted(pathlib.Path(argv[0] if argv else PACKAGE).glob("*.py"))
    fields, defaults = settable_values(paths)
    print(f"code lines: {code_lines(paths)}")
    print(f"settable values: {fields + defaults} "
          f"(dataclass fields {fields}, defaulted parameters {defaults})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
