"""Command-line front end: parse a config, run one experiment, emit a report.

Exit status is 0 exactly when every assertion in the run passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache

from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with one message line: a line break or other unprintable
        character in the message (from a bad argument, say) is escaped."""
        super().error("".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                              for c in message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyslice",
        description="Exact slice-diameter experiments on polyhedral norm balls.",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                        help="which sweep to run (omit only with --config)")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file mirroring ExperimentConfig; flags override its entries")
    parser.add_argument("--n", type=int, dest="N", metavar="INT",
                        help="single N instead of the default grid")
    parser.add_argument("--r", metavar="P/Q", help="lifting weight r > 0")
    parser.add_argument("--delta", metavar="P/Q", help="slice depth for thm1")
    parser.add_argument("--epsilon", metavar="P/Q", help="target diameter bound")
    parser.add_argument("--epsilons", metavar="P/Q,...",
                        help="strictly decreasing list for profiles")
    parser.add_argument("--omega-rule", dest="omega_rule", metavar="RULE",
                        help="'default' or 'list:w2,w3,...' weights")
    parser.add_argument("--alpha", metavar="P/Q", help="slice depth for prop2")
    parser.add_argument("--g", metavar="SPEC",
                        help="functional for prop2: e1, e1+e2, random, or comma-separated rationals")
    parser.add_argument("--trials", type=int, metavar="INT",
                        help="random vectors per sandwich case")
    parser.add_argument("--space", dest="space_path", metavar="FILE",
                        help="space description JSON (kind+params or explicit generators)")
    parser.add_argument("--seed", type=int, metavar="INT", help="RNG seed")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--output", dest="output_path", metavar="PATH",
                        help="write the report here instead of stdout")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once: parsing leaves it unchanged."""
    return build_parser()


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("config file %s nests too deeply to parse" % args.config) from None
            except json.JSONDecodeError as exc:
                raise ValueError("config file %s is not valid JSON: %s" % (args.config, exc)) from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    flags = vars(args)
    if args.epsilons is not None:
        flags = dict(flags, epsilons=[part.strip() for part in args.epsilons.split(",")])
    for f in fields(ExperimentConfig):
        if flags[f.name] is not None:
            data[f.name] = flags[f.name]
    if "experiment" not in data:
        raise ValueError("no experiment named on the command line or in the config")
    return ExperimentConfig.from_dict(data)


def _check_output_path(path) -> None:
    """Refuse an --output path whose directory is missing, or that names a
    directory, before the run rather than after it."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError("output directory %s is not an existing directory" % directory)
    if os.path.isdir(path):
        raise ValueError("output path %s is a directory" % path)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        if config.output_path:
            _check_output_path(config.output_path)
    except (ValueError, TypeError, OSError) as exc:
        parser.error(str(exc))
    report = run_experiment(config)
    text = report.render()
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error("cannot write %s: %s" % (config.output_path, exc.strerror or exc))
    else:
        sys.stdout.write(text)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
