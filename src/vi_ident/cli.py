"""Command-line entry point.

    vi-ident <subcommand> --config <path> [--out <dir>] [--seed <n>] [--strict]

Subcommands map one-to-one onto experiment kinds; the config's
``experiment.kind`` must match the subcommand.  ``--seed`` takes a
nonnegative integer.  One parser, built at import, serves every subcommand.
Exit codes: 0 on success, 1 when ``--strict`` is set and a result check failed
(or a solver failed), 2 on configuration and command-line errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config
from .errors import ConfigError, SolverError
from .experiments import run_experiment

_COMMAND_KINDS = {
    "solve-forward": "forward",
    "rate-study": "rate-study",
    "kernel-check": "kernel-check",
    "check-gradient": "gradient-check",
    "identify": "identify",
    "continuation": "continuation",
}


def _seed(text: str) -> int:
    if not text.isdecimal():  # numpy's default_rng takes no negative seed
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


_PARSER = argparse.ArgumentParser(
    prog="vi-ident",
    description="Friction variational inequalities: forward solves, "
    "gradient checks, and coefficient identification.",
)
_PARSER.add_argument("command", choices=_COMMAND_KINDS, help="the experiment; the config's kind must match it")
_PARSER.add_argument("--config", required=True, help="path to the YAML config")
_PARSER.add_argument("--out", default=None, help="output directory (overrides config)")
_PARSER.add_argument("--seed", type=_seed, default=0, help="nonnegative random seed (default 0)")
_PARSER.add_argument("--strict", action="store_true", help="exit nonzero if any result check fails")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        expected = _COMMAND_KINDS[args.command]
        if cfg.experiment["kind"] != expected:
            raise ConfigError(
                f"experiment.kind: config declares {cfg.experiment['kind']!r} "
                f"but the subcommand expects {expected!r}"
            )
        results, manifest = run_experiment(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"vi-ident: config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"vi-ident: solver failure: {exc}", file=sys.stderr)
        return 1

    summary = {k: v for k, v in results.items() if not isinstance(v, (dict, list))}
    print(json.dumps(summary, sort_keys=True, default=str))
    print(f"manifest: {manifest}")
    if args.strict and not results.get("checks_passed", True):
        print("vi-ident: result checks FAILED (--strict)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
