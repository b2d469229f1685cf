import doctest

import pytest

from deodhar import cells, weyl


@pytest.mark.parametrize("module", [weyl, cells], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted == {"deodhar.weyl": 5, "deodhar.cells": 4}[module.__name__]
    assert result.failed == 0
