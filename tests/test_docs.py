"""The package docstring's example runs as written."""

import doctest

import uecsm


def test_package_docstring_example():
    result = doctest.testmod(uecsm)
    assert (result.failed, result.attempted) == (0, 3)
