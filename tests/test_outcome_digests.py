"""The recorded outcomes in tests/data/outcome_digests.json (written by
tests/make_outcome_digests.py) cover exactly the tests that read them, a
changed outcome fails with the id of its test, and a test that takes
`recorded` without an entry in `CASES` fails at collection."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from make_outcome_digests import check_recorded, committed, recorded_ids

TESTS = Path(__file__).resolve().parent


def test_committed_file_holds_exactly_the_recorded_ids():
    assert sorted(committed()) == sorted(key for key, _, _ in recorded_ids())


def test_a_changed_outcome_names_its_test():
    key, lines, arg = next(recorded_ids())
    planted = check_recorded(key, lines(arg))
    planted[-1] += " "
    with pytest.raises(AssertionError, match=re.escape(key)):
        check_recorded(key, planted)


def test_a_test_without_a_case_fails_collection(tmp_path):
    # This directory's conftest loaded as a plugin, on a test file outside it.
    (tmp_path / "test_unlisted.py").write_text("def test_unlisted(recorded):\n    recorded()\n")
    path = [str(TESTS), str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "-p", "conftest", "test_unlisted.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True,
    )
    assert done.returncode == pytest.ExitCode.INTERRUPTED, done.stdout
    assert "1 error during collection" in done.stdout
    assert ("test_unlisted.py::test_unlisted takes `recorded` but has no entry in "
            "make_outcome_digests.CASES") in done.stdout
