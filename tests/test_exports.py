"""The package export lists name only what the package defines."""

import pytest

import imcsearch
import imcsearch.nnsim


@pytest.mark.parametrize("package", [imcsearch, imcsearch.nnsim],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
