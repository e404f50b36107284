"""The >>> examples in the docs run and print the values they quote."""

import doctest

import pytest

from newcomb import tlg

# Each module whose docstrings carry >>> examples.
DOCUMENTED = [tlg]


@pytest.mark.parametrize("module", DOCUMENTED, ids=lambda module: module.__name__)
def test_docstring_examples_print_what_they_quote(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
