"""Command-line interface.

Subcommands:
  run      execute an (algorithm x problem x seeds) grid and write results
  compare  recompute statistics over an existing output directory
  list     show the problem and algorithm registries

A config file (INI, section [run]) can supply any `run` option; explicit
flags win over the file.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .harness import (ALGORITHMS, ExperimentSpec, compare_directory,
                      run_experiment)
from .problems import available_problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="famv",
                                     description="Mixed-variable firefly optimization harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid")
    run.add_argument("--problem", action="append", help="problem name (repeatable)")
    run.add_argument("--algo", action="append", help="algorithm name (repeatable)")
    run.add_argument("--runs", type=int)
    run.add_argument("--budget", type=int,
                     help="FE budget; defaults depend on the problem class")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--config", help="INI config file")
    run.add_argument("--stride", type=int, help="trace sampling stride")
    run.add_argument("--dim", type=int, help="synthetic problem dimension")

    cmp_cmd = sub.add_parser("compare", help="stats over existing summaries")
    cmp_cmd.add_argument("--in", dest="in_dir", required=True)

    sub.add_parser("list", help="list problems and algorithms")
    return parser


# INI key and flag name -> ExperimentSpec field
_SPEC_FIELDS = {"problem": "problems", "algo": "algorithms", "out": "out_dir",
                "runs": "runs", "budget": "budget", "seed": "base_seed",
                "stride": "stride", "dim": "dim"}


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """A spec of only the settings given in the config file or as flags."""
    settings = {}
    if args.config:
        cfg = configparser.ConfigParser()
        if not cfg.read(args.config):
            raise ValueError(f"cannot read config file {args.config!r}")
        section = cfg["run"] if cfg.has_section("run") else cfg["DEFAULT"]
        unknown = sorted(set(section) - set(_SPEC_FIELDS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in section.items():
            if key in ("problem", "algo"):
                value = [v.strip() for v in value.split(",") if v.strip()]
            elif key != "out":
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"{key} must be an integer, got {value!r}") from None
            settings[_SPEC_FIELDS[key]] = value
    for key, name in _SPEC_FIELDS.items():
        value = getattr(args, key)
        if value is not None:
            settings[name] = value
    return ExperimentSpec(**settings)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = _spec_from_args(args)
            run_experiment(spec)
            print(f"wrote results to {spec.out_dir}")
        elif args.command == "compare":
            compare_directory(args.in_dir)
            print(f"wrote results to {args.in_dir}")
        elif args.command == "list":
            print("problems:")
            for name in available_problems():
                print(f"  {name}")
            print("algorithms:")
            for name in ALGORITHMS:
                print(f"  {name}")
    except (KeyError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
