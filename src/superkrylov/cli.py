"""Command-line entry point for the experiment runners:
``superkrylov COMMAND --config cfg.txt [--seed N] [--out DIR]``, where
COMMAND, a key of ``experiments.COMMANDS``, may also follow the options.
Each config key's kind and range are declared once, on its field of
``experiments.ExperimentConfig``.  Exit codes: 0 success, 2 configuration
error (stderr ``config error:``), 3 invalid input met inside a sweep
(``invalid input:``) or a numerical failure (``numerical failure:``).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigParse, InvalidInput, SuperKrylovError
from .experiments import COMMANDS, parse_config, run

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; the epilog lists each command with the
    first line of its runner's docstring."""
    parser = argparse.ArgumentParser(
        prog="superkrylov",
        description="Ground-state energy estimation experiments",
        epilog="commands:\n" + "\n".join(
            "  %-15s%s" % (name, (runner.__doc__ or "").partition("\n")[0])
            for name, runner in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", metavar="COMMAND", choices=COMMANDS,
                        help="the sweep to run, one of the commands below")
    parser.add_argument("--config", required=True, help="path to key = value config")
    parser.add_argument("--seed", dest="master_seed", type=int, metavar="N",
                        help="override the config master_seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        for key in ("master_seed", "out"):
            if getattr(args, key) is not None:
                setattr(config, key, getattr(args, key))
        path = run(args.command, config)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SuperKrylovError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
