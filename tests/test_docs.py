"""The package exports what it lists, and the package docstring's example
and README's ``>>>`` examples run as written."""

import doctest
import pathlib
import re

import uecsm

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    # A deleted name left in __all__ would break ``from uecsm import *``.
    assert sorted(set(uecsm.__all__)) == sorted(uecsm.__all__)
    assert [name for name in uecsm.__all__ if not hasattr(uecsm, name)] == []


def test_package_docstring_example():
    result = doctest.testmod(uecsm)
    assert (result.failed, result.attempted) == (0, 3)


def test_readme_examples():
    # The python fences run as one session, in the order they appear.
    fences = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(fences), {}, "README", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert (result.failed, result.attempted) == (0, 10)
