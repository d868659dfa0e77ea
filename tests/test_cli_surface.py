"""Every long option of the CLI is exercised somewhere.

The test walks :func:`repro.cli.build_parser`, collects the long options
of every subcommand, and requires each one to appear as a quoted string
in a test file or as a token in a step of the CI workflow.  An option
that nothing passes is an option no one knows still works: test it, or
delete it with its plumbing.
"""

import argparse
import os
import re

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
CI = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def _long_options(parser, path=()):
    """``{(subcommand path, option)}`` for every long option."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _long_options(sub, path + (name,))
        else:
            found |= {(" ".join(path), option)
                      for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
    return found


def _test_sources():
    for folder, _, files in os.walk(TESTS):
        for name in files:
            path = os.path.join(folder, name)
            if name.endswith(".py") and path != os.path.abspath(__file__):
                with open(path, encoding="utf-8") as fh:
                    yield fh.read()


def test_every_long_option_is_exercised():
    options = _long_options(build_parser())
    assert ("train", "--policy") in options  # the walk reaches subcommands
    tests = "\n".join(_test_sources())
    with open(CI, encoding="utf-8") as fh:
        ci = fh.read()
    unexercised = sorted(
        f"{command} {option}" for command, option in options
        if f'"{option}"' not in tests and f"'{option}'" not in tests
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", ci))
    assert not unexercised, (
        "long options no test or CI step passes: " + ", ".join(unexercised))
