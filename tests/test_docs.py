"""The package exports what it lists, uses every private helper it binds,
calls no second norm, and the package docstring's example and README's
``>>>`` examples run as written."""

import ast
import doctest
import pathlib
import re

import uecsm

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "uecsm"


def test_every_export_resolves_once():
    # A deleted name left in __all__ would break ``from uecsm import *``.
    assert sorted(set(uecsm.__all__)) == sorted(uecsm.__all__)
    assert [name for name in uecsm.__all__ if not hasattr(uecsm, name)] == []


def test_every_private_helper_is_used():
    # A module-level private name that nothing else mentions was stranded
    # by a deletion; a whole-word count over the package finds it.
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    bound = set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in bound if name.startswith("_") and not name.endswith("__")}
    text = "\n".join(sources)
    assert [name for name in sorted(private)
            if len(re.findall(rf"\b{name}\b", text)) < 2] == []


def test_one_norm():
    # frobenius_norm and _column_norms are the package's norms, each with the
    # arithmetic of np.linalg.norm; a reference to that function in the code
    # (not in a docstring) would be a second implementation of the rule.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and ast.unparse(node).endswith("linalg.norm")]
    assert found == []


def test_package_docstring_example():
    result = doctest.testmod(uecsm)
    assert (result.failed, result.attempted) == (0, 3)


def test_readme_examples():
    # The python fences run as one session, in the order they appear.
    fences = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(fences), {}, "README", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert (result.failed, result.attempted) == (0, 10)
