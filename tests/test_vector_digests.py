"""Regression gate: every linearization vector on the committed grid, up to
degree 12 in both families, hashes to the digest committed in
tests/data/vector_digests.json (written by tests/make_vector_digests.py)."""

import json

import pytest

from make_vector_digests import DIGEST_FILE, FAMILIES, MAX_DEGREE, point_key, vector_digest

from conftest import GRID
from jacobilin import make_params

COMMITTED = json.loads(DIGEST_FILE.read_text())


def test_committed_file_covers_the_grid():
    assert COMMITTED["max_degree"] == MAX_DEGREE
    want = {point_key(al, be, fam) for al, be in GRID for fam in FAMILIES}
    assert set(COMMITTED["digests"]) == want


@pytest.mark.parametrize("point", GRID)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vectors_match_committed_digest(point, family):
    p = make_params(*point)
    got = vector_digest(p, FAMILIES[family])
    assert got == COMMITTED["digests"][point_key(*point, family)]
