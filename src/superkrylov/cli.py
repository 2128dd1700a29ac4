"""Command-line entry point for the experiment runners.

Subcommands mirror the experiment families:

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
from .experiments import (
    parse_config,
    run_convergence,
    run_derivative_scaling,
    run_gram,
    run_minimax_demo,
)

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
    for name, text in (
        ("convergence", "energy error versus Krylov dimension"),
        ("deriv-scaling", "derivative error versus datapoint count"),
        ("minimax-demo", "under/over-fitting traces with certificates"),
        ("gram", "dump projected pair matrices"),
    ):
        _add_common(subs.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.master_seed = args.seed
        if args.out is not None:
            config.out = args.out
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "convergence":
            path = run_convergence(config)
        elif args.command == "deriv-scaling":
            path = run_derivative_scaling(config)
        elif args.command == "minimax-demo":
            path = run_minimax_demo(config)
        else:
            path = run_gram(config)
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
