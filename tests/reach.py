"""The functions of ``src/ordext`` that no CLI command enters.

Usage (from the repository root)::

    PYTHONPATH=src python3 tests/reach.py

It runs every command of the golden manifest (``tests/golden/manifest.json``)
in process through ``ordext.cli.main``, by the ``run_command`` of
``tests/golden/make_golden.py``, importing the package under the same profile
hook, which notes the code object of every Python call.  It then
writes to ``tests/reach.txt`` each ``def`` of ``src/ordext`` whose code no
command entered, as ``module.qualname``, one a line, sorted.  Calls are keyed
by code object, so a method defined on two classes is two entries; lambdas and
comprehensions belong to the function around them, since which of them have a
code object of their own depends on the Python version.

CI regenerates the file and fails when it differs from the committed one, so
a function that the commands stop (or start) reaching shows in the diff.
Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Set, Tuple

from golden.make_golden import load_manifest, run_command

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "ordext"
OUT = HERE / "reach.txt"

Key = Tuple[str, int, str]  # file, first line (a decorator's, if any), name


def defined_functions(src: Path) -> Dict[Key, str]:
    """Every ``def`` of the package under ``src`` by the key its code object
    has, with its ``module.qualname``."""
    names = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                names[path, first, child.name] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        module = "ordext" if path.stem == "__init__" else f"ordext.{path.stem}"
        visit(ast.parse(path.read_text()), str(path), f"{module}.")
    return names


def entered(run: Callable[[], None]) -> Set[Key]:
    """The keys of the code objects that ``run()`` calls into."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes}


def run_manifest() -> None:
    """Every golden command, in the current directory, its output discarded;
    an exit code other than the manifest's stops the run."""
    for entry in load_manifest():
        code = run_command(entry["argv"])[0]
        if code != entry["exit"]:
            raise SystemExit(f"{entry['id']}: exit {code}, the manifest says {entry['exit']}")


def main() -> int:
    names = defined_functions(SRC.resolve())
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # grid writes its CSV here
        try:
            reached = entered(run_manifest)
        finally:
            os.chdir(cwd)
    unreached = sorted(name for key, name in names.items() if key not in reached)
    OUT.write_text("".join(f"{name}\n" for name in unreached))
    print(f"wrote {len(unreached)} of {len(names)} functions to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
