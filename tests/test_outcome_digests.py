"""The recorded outcomes in tests/data/outcome_digests.json (written by
tests/make_outcome_digests.py) cover exactly the tests that read them, and a
changed outcome fails with the id of its test."""

import re
from types import SimpleNamespace

import pytest

from make_outcome_digests import check_recorded, committed, recorded_ids


def test_committed_file_holds_exactly_the_recorded_ids():
    assert sorted(committed()) == sorted(key for key, _, _ in recorded_ids())


def test_a_changed_outcome_names_its_test():
    key, lines, arg = next(recorded_ids())
    node = SimpleNamespace(nodeid=f"tests/{key}")
    planted = list(lines(arg))
    check_recorded(node, planted)
    planted[-1] += " "
    with pytest.raises(AssertionError, match=re.escape(key)):
        check_recorded(node, planted)
