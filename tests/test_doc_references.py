"""Every backticked dotted reference to a package module, such as
`exact._rising_ratio` or `jacobilin.cli.METHODS`, in the docstrings of
`src/jacobilin` and in README.md names an attribute that exists: a renamed
or deleted function would otherwise leave its docs pointing at nothing."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jacobilin"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
REFERENCE = re.compile(rf"`(?:jacobilin\.)?((?:{'|'.join(MODULES)})(?:\.\w+)+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def references() -> list[tuple[str, str]]:
    """(file, reference) for each dotted module reference in the docs."""
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node):
                texts.append((path.name, ast.get_docstring(node)))
    return [(where, ref) for where, text in texts for ref in REFERENCE.findall(text)]


def resolves(ref: str) -> bool:
    module, *attrs = ref.split(".")
    obj = importlib.import_module(f"jacobilin.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_reference_resolves():
    found = references()
    assert ("hypergeom.py", "exact._rising_ratio") in found
    assert [f"{where}: `{ref}`" for where, ref in found if not resolves(ref)] == []


def test_a_stale_reference_is_reported():
    text = "`exact.no_such_function`, `jacobilin.jacobi.CoeffVector.items`, `jacobilin.exact`"
    assert REFERENCE.findall(text) == ["exact.no_such_function", "jacobi.CoeffVector.items"]
    assert not resolves("exact.no_such_function")
    assert resolves("jacobi.CoeffVector.items")
