"""Command-line entry point.

Usage: setstat <kind> [--config PATH] [--seed N] [--out DIR] [--n N]

Without --config the kind's preset parameters run as-is; flags override the
corresponding config fields one-for-one.  Exit codes: 0 success, 1 requested
check failed, 2 usage or config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
    run,
)
from .textio import json_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setstat",
        description="Seeded experiments over convex-set statistics: "
        "set arithmetic demos, random-set limit laws, set-valued kernel "
        "regression, and inverse optimization.",
    )
    parser.add_argument("--version", action="version", version=f"setstat {__version__}")
    parser.add_argument(
        "kind",
        choices=EXPERIMENT_KINDS,
        help="experiment to run",
    )
    parser.add_argument("--config", help="JSON config file (defaults to the kind's preset)")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--n", type=int, help="override the sample-count parameter n")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            config = parse_config(args.config)
            if config.kind != args.kind:
                raise ConfigError(
                    f"config kind {config.kind!r} does not match requested {args.kind!r}"
                )
        else:
            config = config_from_dict({"kind": args.kind})
        data = config_to_dict(config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            data["seed"] = {"seed": args.seed, "stream": 0}
        if args.out is not None:
            data["out"] = args.out
        if args.n is not None:
            if "n" not in data["params"]:
                raise ConfigError(f"kind {args.kind!r} has no parameter 'n'")
            data["params"]["n"] = args.n
        config = config_from_dict(data)
    except (ConfigError, OSError) as exc:
        print(f"setstat: config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"setstat: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver caps, IO failures, invalid data
        print(f"setstat: runtime error: {exc}", file=sys.stderr)
        return 3

    summary = {
        "kind": config.kind,
        "checks": report.checks,
        "metrics_keys": sorted(report.metrics),
        "files": report.files,
        "wall_clock_s": round(report.wall_clock_s, 3),
    }
    sys.stdout.write(json_text(summary))
    if not report.passed:
        failed = sorted(name for name, ok in report.checks.items() if not ok)
        print(f"setstat: checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
