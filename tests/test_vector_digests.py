"""Regression gate: every linearization vector on the committed grid, up to
degree 12 in both families, hashes to the digest recorded for its grid point
and family in tests/data/outcome_digests.json
(`make_outcome_digests.vector_lines`)."""

import pytest

from make_outcome_digests import VECTOR_FAMILIES, check_recorded, committed, vector_lines

from conftest import GRID

TEST = "test_vector_digests.py::test_vectors_match_committed_digest"


def test_committed_file_covers_the_grid():
    want = {f"{TEST}[{family}-point{i}]" for family in VECTOR_FAMILIES for i in range(len(GRID))}
    assert {key for key in committed() if key.startswith(TEST)} == want


@pytest.mark.parametrize("point", GRID)
@pytest.mark.parametrize("family", sorted(VECTOR_FAMILIES))
def test_vectors_match_committed_digest(point, family, request):
    check_recorded(request.node, vector_lines((family, point)))
