"""The mutation check's table has not gone stale: each edit still applies to its file."""

import pytest

import mutants


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_edit_applies_once_and_its_tests_exist(mutant):
    assert (mutants.ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests and all((mutants.ROOT / t).is_file() for t in mutant.tests)
