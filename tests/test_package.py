"""The package's public names: ``eigenrom.__all__`` lists each once, and
every listed name resolves, so deleting a function without its export (or
the reverse) fails here rather than at a user's ``from eigenrom import *``."""

import eigenrom


def test_every_export_resolves():
    missing = [name for name in eigenrom.__all__ if not hasattr(eigenrom, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(eigenrom.__all__) == len(set(eigenrom.__all__))
