"""Command-line front end.

Subcommands: ``run`` (Monte-Carlo batch), ``search`` (strategy sweep),
``paper-example`` (replay the four-pair attack walkthrough).  Exit status:
0 success, 1 usage error, 2 walkthrough assertion failure.

A ``run`` or ``search`` option sets the RunConfig field of its name, and
one left out stays out of the parsed args, so the field keeps RunConfig's
default: RunConfig holds every run default, and its session defaults are
ProtocolParams'.  ``--strategy-file`` fills ``custom_strategy``;
``--format`` and ``--out`` pick the report's form and path.
"""

import argparse
import dataclasses
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


def _add_run_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A ``run`` or ``search`` sub-parser with the options both take; one
    omitted stays out of the parsed args, so RunConfig's default applies."""
    parser = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    parser.add_argument("--protocol", choices=VARIANTS)
    parser.add_argument("--n", type=int, help="pair count (a session uses 2n pairs)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, help="unsigned 64-bit master seed")
    parser.add_argument("--tau", type=float, help="tolerated check-mismatch fraction")
    parser.add_argument("--hash-bits", type=int, help="digest length of the improved variant")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    # --help prints the docstring's first two paragraphs (nothing under -OO, which strips docstrings).
    parser = _Parser(prog="sqkdlab", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = _add_run_parser(sub, "run", "run a Monte-Carlo batch of sessions")
    run_p.add_argument("--attack", choices=ATTACKS)
    run_p.add_argument("--strategy-file", help="JSON strategy description (attack=custom)")
    run_p.add_argument("--pa-bits", type=_pa_bits, metavar="INT|auto")
    run_p.add_argument("--balanced-k2", action="store_true", help="force exactly n raw and n check positions")

    _add_run_parser(sub, "search", "sweep the gate x classical strategy space")

    sub.add_parser("paper-example", help="replay the four-pair attack walkthrough")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_from_args(args) -> RunConfig:
    """The RunConfig of the options given; custom_strategy is read from --strategy-file."""
    given = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig) if field.name in args}
    if "strategy_file" in args:
        path = args.strategy_file
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ValueError(f"custom_strategy: cannot read {path} ({err})") from None
        try:
            given["custom_strategy"] = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"custom_strategy: {path} is not valid JSON ({err})") from None
    return RunConfig(**given)


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
