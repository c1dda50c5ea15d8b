"""argparse ``type=`` converters shared by the sweep CLIs.

A rejected value becomes an argparse usage error (exit status 2) that
names the offending argument, instead of a traceback or a silently
empty run.
"""

from __future__ import annotations

import argparse


def nonnegative_int(text: str) -> int:
    """An integer >= 0, e.g. a CCM size in bytes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """An integer >= 1, e.g. a seed or routine count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value
