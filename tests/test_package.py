"""Tests for the package's public surface."""
import diamondqc


def test_every_export_resolves():
    missing = [name for name in diamondqc.__all__ if not hasattr(diamondqc, name)]
    assert not missing
