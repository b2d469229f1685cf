import doctest

import pytest

from deodhar import cells, chevalley, weyl


@pytest.mark.parametrize("module", [weyl, cells, chevalley], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    expected = {"deodhar.weyl": 8, "deodhar.cells": 4, "deodhar.chevalley": 3}
    assert result.attempted == expected[module.__name__]
    assert result.failed == 0
