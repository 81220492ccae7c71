"""The ``lint`` verb: reprolint, the determinism & invariant checker."""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ConfigurationError
from repro.lintkit.cli import add_lint_arguments, run_lint


def register(verbs: dict[str, argparse.ArgumentParser]) -> None:
    """Declare ``lint``'s options and handler."""
    add_lint_arguments(verbs["lint"])
    verbs["lint"].set_defaults(run=_lint)


def _lint(args: argparse.Namespace) -> int:
    """Run reprolint; prints its own report and returns the exit code."""
    try:
        return run_lint(args)
    except ConfigurationError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
