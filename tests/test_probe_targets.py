"""The mutation probe's TARGETS name functions that exist: a stale name
would otherwise be skipped without a word."""

from pathlib import Path

import mutation_probe

SRC = Path(__file__).resolve().parents[1] / "src" / "jacobilin"


def test_every_target_names_a_function():
    assert mutation_probe.stale_targets(SRC) == []


def test_a_stale_target_is_reported(monkeypatch):
    monkeypatch.setitem(mutation_probe.TARGETS, "jacobi", "linearize_jacobi _gone Gone.method")
    assert mutation_probe.stale_targets(SRC) == ["jacobi._gone", "jacobi.Gone.method"]

