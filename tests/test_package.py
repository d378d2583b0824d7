"""The package's public names: ``eigenrom.__all__`` lists each once, and
every listed name resolves, so deleting a function without its export (or
the reverse) fails here rather than at a user's ``from eigenrom import *``.
The README's library example runs against the package as it is."""

import re
from pathlib import Path

import eigenrom

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in eigenrom.__all__ if not hasattr(eigenrom, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(eigenrom.__all__) == len(set(eigenrom.__all__))


def test_readme_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
