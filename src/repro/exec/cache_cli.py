"""``python -m repro cache`` — inspect and manage the artifact store.

The content-addressed cache under ``--cache-dir`` (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ccm``) is shared by every
sweep CLI; this command is the operator's view of it::

    python -m repro cache stats                  # entries and bytes
    python -m repro cache stats --json -         # machine-readable
    python -m repro cache clear                  # drop every entry
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from .artifacts import ArtifactCache, default_cache_dir

_CACHE_DIR_HELP = ("artifact cache directory (default: "
                   "$REPRO_CACHE_DIR or ~/.cache/repro-ccm)")


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{n} B"
        value /= 1024
    return f"{n} B"


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The artifact-cache flags every sweep CLI takes."""
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=_CACHE_DIR_HELP)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the artifact cache before running")


def cache_from_args(args: argparse.Namespace) -> Optional[ArtifactCache]:
    """The cache selected by :func:`add_cache_arguments`' flags (None
    under ``--no-cache``), cleared first under ``--clear-cache``."""
    if args.no_cache:
        return None
    cache = ArtifactCache(args.cache_dir or default_cache_dir())
    if args.clear_cache:
        cache.clear()
    return cache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and manage the on-disk artifact cache")
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help=_CACHE_DIR_HELP)
    parser.add_argument("--json", metavar="PATH", nargs="?", const="-",
                        default=None,
                        help="write the result as JSON to PATH ('-' for "
                             "stdout)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = ArtifactCache(args.cache_dir or default_cache_dir(),
                          version="cli")

    if args.action == "clear":
        before = cache.stats()
        cache.clear()
        payload = {"cleared": before["entries"],
                   "freed_bytes": before["total_bytes"]}
        message = (f"cleared {payload['cleared']} entries "
                   f"({_format_bytes(payload['freed_bytes'])}) "
                   f"from {cache.root}")
    else:
        payload = cache.stats()
        message = (f"{payload['root']}: {payload['entries']} entries, "
                   f"{_format_bytes(payload['total_bytes'])}")

    if args.json == "-":
        print(json.dumps(payload, indent=2))
    elif args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(message)
    else:
        print(message)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
