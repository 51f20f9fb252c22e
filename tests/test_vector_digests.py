"""Regression gate: every linearize_jacobi vector on the committed grid, up
to degree 12, hashes to the digest recorded for its grid point in
tests/data/outcome_digests.json (`make_outcome_digests.vector_lines`); the
gencheb vectors are recorded by test_gencheb.py's assembly ids."""


def test_vectors_match_committed_digest(recorded):
    recorded()
