"""Command-line entry point.

Subcommands: ``rd``, ``baseline``, ``separate``, ``verify``. All commands
are non-interactive; every stochastic result is reproducible from the
config digest plus the seed root (--seed overrides the config's seed).

Exit codes: 0 success, 1 validation error (every config key is checked
at load, and the message names the bad key), 2 runtime failure,
3 acceptance failure (a verify suite, today the wrong-law negative
control on the config's first target, did not pass, or ``separate`` found
no pair feasible at any block length; its record is written either way).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_baseline,
    cmd_rd,
    cmd_separate,
    cmd_verify,
)
from .separation import MIN_TRIALS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepnet",
        description="Source-channel separation experiments over simulated networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("rd", "rate-distortion sweep for the configured source"),
        ("baseline", "measure the untransformed system's guarantees"),
        ("separate", "apply the separation architecture and verify it"),
        ("verify", "run the checks that read the config: the wrong-law negative control"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="seed root override")
        cmd.add_argument("--out", default="results", help="output directory")
        cmd.add_argument("--trials", type=int, default=None,
                         help="trial count override (baseline and separate only)")
        cmd.add_argument("--overwrite", action="store_true",
                         help="reuse the first experiment id instead of creating a new one")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.trials is not None and args.command in ("rd", "verify"):
        print(f"error: --trials does not apply to {args.command}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.trials is not None and args.trials < MIN_TRIALS:
        print(f"error: --trials {args.trials} is below the floor of {MIN_TRIALS}",
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        config = ExperimentConfig.load(args.config)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.command == "rd":
            record = cmd_rd(config, args.out, seed=args.seed, overwrite=args.overwrite)
        elif args.command == "baseline":
            record = cmd_baseline(
                config, args.out, seed=args.seed, overwrite=args.overwrite,
                trials=args.trials,
            )
        elif args.command == "separate":
            record = cmd_separate(
                config, args.out, seed=args.seed, overwrite=args.overwrite,
                trials=args.trials,
            )
        elif args.command == "verify":
            record, ok = cmd_verify(config, args.out, seed=args.seed,
                                    overwrite=args.overwrite)
            print(f"record: {record.experiment_id}")
            return EXIT_OK if ok else EXIT_ACCEPTANCE
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"record: {record.experiment_id} (digest {record.config_digest[:8]}, "
          f"{record.wall_clock_s:.1f}s)")
    runs = record.payload["runs"] if args.command == "separate" else []
    if runs and not any(run["pairs"] for run in runs):
        print("error: no pair is feasible at any block length", file=sys.stderr)
        return EXIT_ACCEPTANCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
