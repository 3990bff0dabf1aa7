"""Command-line front end.

Subcommands: ``run`` (Monte-Carlo batch), ``search`` (strategy sweep),
``paper-example`` (replay the four-pair attack walkthrough).  Exit status:
0 success, 1 usage error, 2 walkthrough assertion failure.
"""

import argparse
import json
import sys

from .harness import (
    ATTACKS,
    ReplayMismatch,
    RunConfig,
    render_report_csv,
    render_report_json,
    render_search_csv,
    render_search_json,
    replay_paper_example,
    run_batch,
    run_search,
)
from .protocol import VARIANTS

OUTPUT_FORMATS = ("json", "csv")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, reserved here for
    # walkthrough mismatches)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _pa_bits(text: str):
    if text.lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        # argparse prefixes "argument --pa-bits: ".
        raise argparse.ArgumentTypeError(f"must be an integer or 'auto', got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=VARIANTS, default="original")
    parser.add_argument("--n", type=int, default=32, help="pair count (a session uses 2n pairs)")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0, help="unsigned 64-bit master seed")
    parser.add_argument("--tau", type=float, default=0.0, help="tolerated check-mismatch fraction")
    parser.add_argument("--hash-bits", type=int, default=64, help="digest length of the improved variant")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqkdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run a Monte-Carlo batch of sessions")
    _add_common(run_p)
    run_p.add_argument("--attack", choices=ATTACKS, default="none")
    run_p.add_argument("--strategy-file", default=None, help="JSON strategy description (attack=custom)")
    run_p.add_argument("--pa-bits", type=_pa_bits, default=None, metavar="INT|auto")
    run_p.add_argument("--balanced-k2", action="store_true", help="force exactly n raw and n check positions")

    search_p = sub.add_parser("search", help="sweep the gate x classical strategy space")
    _add_common(search_p)

    sub.add_parser("paper-example", help="replay the four-pair attack walkthrough")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_from_args(args) -> RunConfig:
    custom = None
    path = getattr(args, "strategy_file", None)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ValueError(f"custom_strategy: cannot read {path} ({err})") from None
        try:
            custom = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"custom_strategy: {path} is not valid JSON ({err})") from None
    return RunConfig(
        protocol=args.protocol,
        attack=getattr(args, "attack", "none"),
        custom_strategy=custom,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        tau=args.tau,
        hash_bits=args.hash_bits,
        pa_bits=getattr(args, "pa_bits", None),
        balanced_k2=getattr(args, "balanced_k2", False),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "paper-example":
        try:
            replay_paper_example()
        except ReplayMismatch as err:
            print(f"paper-example failed: {err}", file=sys.stderr)
            return 2
        return 0

    try:
        config = _config_from_args(args)
        if args.command == "run":
            report = run_batch(config)
            text = render_report_json(report) if args.format == "json" else render_report_csv(report)
        else:
            results = run_search(config)
            text = render_search_json(results, config) if args.format == "json" else render_search_csv(results)
        _emit(text, args.out)
    except (ValueError, OSError) as err:
        print(f"sqkdlab: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
