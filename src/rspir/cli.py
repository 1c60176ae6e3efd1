"""Command line front end: build, verify, run, rate, graph, search."""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .decode import NotReliableError, derive_decode_table
from .graphdot import export_bipartite_dot
from .protocol import format_messages, parse_messages, random_messages, run_protocol
from .scheme import VARIANTS, build_scheme
from .schemeio import SchemeParseError, load_scheme, serialize_scheme
from .search import BudgetExceededError, SearchSpace, search_schemes
from .verify import audit_rate, audit_randomness, measure_lines, verify_scheme


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rspir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a shipped scheme and print or save it")
    p.add_argument("variant", choices=VARIANTS)
    p.add_argument("--k", type=int, default=None, help="message count (ignored for k4-special)")
    p.add_argument("--m", type=int, default=1, help="field extension degree (default 1)")
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("verify", help="run all exact checks; exit 0 only if every check passes")
    p.add_argument("scheme")

    p = sub.add_parser("run", help="simulate one seeded protocol run")
    p.add_argument("scheme")
    p.add_argument("--seed", default="0")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--messages-file", default=None, help="K rows of L*blocks symbols (default: seeded uniform)")

    p = sub.add_parser("rate", help="download cost, rate, and randomness audits")
    p.add_argument("scheme")
    p.add_argument("--blocks", type=int, default=None, help="include finite-block rate with index bits")

    p = sub.add_parser("graph", help="DOT bipartite answer-pair graph colored by decoded message")
    p.add_argument("scheme")
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("search", help="exhaustively search a small space of linear schemes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--max-len", type=int, default=1)
    p.add_argument("--m1", type=int, default=None, help="database 1 answer count (default K)")
    p.add_argument("--m2", type=int, default=None, help="database 2 answer count (default K)")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--start", type=int, default=0, help="resume cursor of a search that ran out of budget")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            scheme = build_scheme(args.variant, args.k, args.m)
            _emit(serialize_scheme(scheme), args.out)
            return 0

        if args.command == "verify":
            scheme = load_scheme(args.scheme)
            report = verify_scheme(scheme)
            sys.stdout.write(report.to_text())
            return 0 if report.all_passed else 1

        if args.command == "run":
            scheme = load_scheme(args.scheme)
            if args.messages_file is None:
                messages = random_messages(scheme, args.seed, args.blocks)
            else:
                with open(args.messages_file, encoding="utf-8") as fh:
                    messages = parse_messages(fh.read(), scheme, args.blocks)
            transcript = run_protocol(scheme, messages, args.seed, args.blocks)
            sys.stdout.write("messages\n" + format_messages(messages))
            sys.stdout.write(transcript.to_text())
            return 0

        if args.command == "rate":
            scheme = load_scheme(args.scheme)
            lines = measure_lines(audit_rate(scheme, args.blocks), audit_randomness(scheme))
            sys.stdout.write("\n".join(lines) + "\n")
            return 0

        if args.command == "graph":
            scheme = load_scheme(args.scheme)
            table = derive_decode_table(scheme)
            _emit(export_bipartite_dot(scheme, table), args.out)
            return 0

        if args.command == "search":
            space = SearchSpace(
                K=args.k, L=args.l, R=args.r, m=args.m,
                max_len=args.max_len,
                M1=args.m1 if args.m1 is not None else args.k,
                M2=args.m2 if args.m2 is not None else args.k,
            )
            try:
                result = search_schemes(space, args.budget, args.start)
            except BudgetExceededError as e:
                sys.stdout.write(f"budget exceeded: examined {e.examined}, resume cursor {e.cursor}\n")
                for scheme in e.partial:
                    sys.stdout.write("\n" + serialize_scheme(scheme))
                return 1
            if result.exhausted_with_none:
                sys.stdout.write(f"exhausted: no valid scheme in space ({result.examined} candidates)\n")
            else:
                sys.stdout.write(
                    f"found {len(result.schemes)} scheme class(es) in {result.examined} candidates\n"
                )
                for scheme in result.schemes:
                    sys.stdout.write("\n" + serialize_scheme(scheme))
            return 0

    except (SchemeParseError, OSError, ValueError, NotReliableError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
