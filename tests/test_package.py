"""The package's public names: ``eigenrom.__all__`` lists each once, and
every listed name resolves, so deleting a function without its export (or
the reverse) fails here rather than at a user's ``from eigenrom import *``.
The README's library example runs against the package as it is, and the
README names exactly the options of ``eigenrom run``."""

import argparse
import re
from pathlib import Path

import eigenrom
from eigenrom.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in eigenrom.__all__ if not hasattr(eigenrom, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(eigenrom.__all__) == len(set(eigenrom.__all__))


def test_readme_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})


def test_readme_names_exactly_the_run_options():
    [sub] = [action for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    options = {option for action in sub.choices["run"]._actions
               for option in action.option_strings if option.startswith("--")}
    # from the CLI section on: the install section names pip's options
    text = README.read_text().split("\n## CLI\n", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert sorted(named - options) == [], "README names no such option"
    assert sorted(options - named) == [], "README leaves options out"
