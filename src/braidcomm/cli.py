"""Batch command line interface.

Subcommands::

    braidcomm verify --group {gvb|sg|all} --n 3,4,5,6 --window 5 \
        [--claims FILTER] [--format {table|json-lines}]
    braidcomm export-presentation --group GROUP --n N
    braidcomm replay --script NAME --window M [--transcript PATH]

``verify`` exits nonzero exactly when some claim is refuted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import registry, replays
from .catalog import FAMILIES, catalog
from .derived import raw_derived, simplified_derived
from .tietze import MARGIN
from .words import fmt_gen

EXPORTABLE = tuple(f.lower() for f in FAMILIES) + (
    "gvb-derived", "sg-derived", "gvb-derived-raw", "sg-derived-raw",
)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _strand_counts(text: str) -> list[int]:
    """Comma-separated strand counts, each covered by some claim."""
    try:
        ns = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError(f"expected at least one strand count, got {text!r}")
    covered = {c.n for c in registry.REGISTRY if c.n is not None}
    unsupported = sorted(set(ns) - covered)
    if unsupported:
        raise argparse.ArgumentTypeError(
            f"no claim covers n={unsupported}; choose from {sorted(covered)}")
    return ns


def _strand_count(text: str) -> int:
    """One strand count, at least 3."""
    value = _integer(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"n must be >= 3, got {value}")
    return value


def _transcript_path(text: str) -> str:
    """A file path that opens for writing, checked before the replay runs.
    The check appends nothing to a file that exists and leaves no file
    that did not."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file")
    target = os.path.realpath(text)
    created = not os.path.exists(target)
    try:
        open(target, "a").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot open {text!r} for writing: {exc.strerror}") from None
    if created:
        os.remove(target)
    return text


def _window(text: str) -> int:
    """A truncation bound with a nonempty interior."""
    value = _integer(text)
    if value < MARGIN + 1:
        raise argparse.ArgumentTypeError(
            f"window must be >= {MARGIN + 1} to leave a nonempty interior, got {value}")
    return value


def cmd_verify(args) -> int:
    report = registry.run(claim_filter=args.claims, groups=args.group,
                          ns=args.n, window=args.window)
    if args.format == "json-lines":
        for result in report.results:
            print(result.json_line())
    else:
        print(registry.emit_claims(report))
        print(registry.emit_table(report))
    return report.exit_status


def cmd_export(args) -> int:
    name = args.group
    if name.endswith("-derived-raw"):
        pres = raw_derived(name.split("-")[0].upper(), args.n)
    elif name.endswith("-derived"):
        pres = simplified_derived(name.split("-")[0].upper(), args.n)
    else:
        pres = catalog(name.upper(), args.n)
    print(pres)
    return 0


def cmd_replay(args) -> int:
    p = replays.SCRIPTS[args.script](args.window)
    text = p.transcript_text()
    survivors = sorted(p.interior())
    summary = (f"interior survivors ({len(survivors)}): "
               + ", ".join(fmt_gen(g) for g in survivors) + "\n")
    if args.transcript:
        with open(args.transcript, "w") as handle:
            handle.write(text + summary)
        print(f"transcript written to {args.transcript}")
    else:
        sys.stdout.write(text + summary)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcomm",
        description="verify commutator-subgroup structure of braid-like groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run claims and report verdicts")
    verify.add_argument("--group", choices=("gvb", "sg", "all"), default="all")
    verify.add_argument("--n", type=_strand_counts, default="3,4,5,6",
                        help="comma-separated strand counts")
    verify.add_argument("--window", type=_window, default=4, help="truncation bound, >= 3")
    verify.add_argument("--claims", default="",
                        help="substring filter on claim ids")
    verify.add_argument("--format", choices=("table", "json-lines"), default="table")
    verify.set_defaults(func=cmd_verify)

    export = sub.add_parser("export-presentation", help="print a presentation file")
    export.add_argument("--group", type=str.lower, choices=EXPORTABLE, required=True)
    export.add_argument("--n", type=_strand_count, required=True, help=">= 3")
    export.set_defaults(func=cmd_export)

    replay = sub.add_parser("replay", help="run a named elimination script")
    replay.add_argument("--script", choices=sorted(replays.SCRIPTS), required=True)
    replay.add_argument("--window", type=_window, required=True, help=">= 3")
    replay.add_argument("--transcript", type=_transcript_path)
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not registry.select(args.claims, args.group, args.n):
        parser.error(f"argument --claims: no claim id containing {args.claims!r} is in "
                     f"--group {args.group} --n {','.join(map(str, args.n))}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
