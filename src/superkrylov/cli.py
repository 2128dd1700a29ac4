"""Command-line entry point for the experiment runners.

Subcommands are the keys of ``experiments.COMMANDS``:

    superkrylov convergence  --config cfg.txt [--seed N] [--out DIR]
    superkrylov deriv-scaling --config cfg.txt ...
    superkrylov minimax-demo  --config cfg.txt ...
    superkrylov gram          --config cfg.txt ...

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigParse, SuperKrylovError
from .experiments import COMMANDS, parse_config, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="path to key = value config")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config master_seed")
    sub.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superkrylov",
        description="Ground-state energy estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, runner in COMMANDS.items():
        _add_common(subs.add_parser(
            name, help=(runner.__doc__ or "").partition("\n")[0]))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.master_seed = args.seed
        if args.out is not None:
            config.out = args.out
        path = run(args.command, config)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SuperKrylovError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
