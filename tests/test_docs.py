"""The >>> examples in the docs run and print the values they quote."""

import doctest
from pathlib import Path

import pytest

from newcomb import decision, tlg

README = Path(__file__).resolve().parents[1] / "README.md"
# Each module whose docstrings carry >>> examples.
DOCUMENTED = [decision, tlg]


@pytest.mark.parametrize("module", DOCUMENTED, ids=lambda module: module.__name__)
def test_docstring_examples_print_what_they_quote(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_examples_print_what_they_quote():
    # the Library block; a renamed or deleted export that it imports fails here too
    results = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
