"""Command-line interface.

Exit codes: 0 success (or "equivalent" / all checks pass), 1 semantic
negative (invalid function, not equivalent, failed checks), 2 unusable
input (unreadable file, malformed document, budget, wrong domain).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache
from operator import methodcaller
from pathlib import Path

from .documents import parse_morse_document, parse_tree_document, star_document
from .equivalence import (
    forman_equivalent,
    homological_sequence,
    homologically_equivalent,
    persistence_diagram,
    persistence_equivalent,
)
from .errors import ParseError, TreemorseError
from .merge_tree import induce_merge_tree, merge_equivalent
from .oracle import DEFAULT_SIMPLEX_BUDGET, check_invariants, count_merge_classes
from .stars import lr_sequence, realize_on_star, thin_from_lr


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read(args.path)
    try:
        parse_morse_document(text)
    except ParseError:
        raise
    except TreemorseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("valid")
    return 0


# each choice names the one thing it runs, in the order --help lists them; a format
# looks its renderer up on the tree per call, so a method patched on MergeTree runs
FORMATS = {"text": methodcaller("to_text"), "shape": methodcaller("shape_code"), "dot": methodcaller("to_dot")}
RELATIONS = {
    "merge": lambda f, g: merge_equivalent(induce_merge_tree(f), induce_merge_tree(g)),
    "forman": forman_equivalent,
    "homological": homologically_equivalent,
    "persistence": persistence_equivalent,
}


def cmd_merge_tree(args: argparse.Namespace) -> int:
    print(FORMATS[args.format](induce_merge_tree(parse_morse_document(_read(args.path)))))
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    f = parse_morse_document(_read(args.path))
    tree = induce_merge_tree(f)
    thin = tree.is_thin()
    print(f"impasses: {tree.impasse_count()}")
    print(f"matching: {f.domain.matching_number()}")
    print(f"thin: {'true' if thin else 'false'}")
    if thin:
        print(f"lr: {lr_sequence(tree)}")
    sequence = homological_sequence(f)
    print("homological sequence: " + ",".join(str(b0) for b0 in sequence.b0_values))
    print("persistence diagram:")
    print(persistence_diagram(f).to_text())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    f = parse_morse_document(_read(args.path_a))
    g = parse_morse_document(_read(args.path_b))
    verdict = RELATIONS[args.relation](f, g)
    print("equivalent" if verdict else "not-equivalent")
    return 0 if verdict else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    tree = parse_tree_document(_read(args.path))
    if args.count_classes:
        print(count_merge_classes(tree, budget=args.budget))
        return 0
    report = check_invariants(tree, budget=args.budget)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def cmd_star_realize(args: argparse.Namespace) -> int:
    star, f = realize_on_star(thin_from_lr(args.sequence))
    print(star_document(star, f))
    return 0


@cache  # built on the first call, then reused: parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treemorse",
        description="Discrete Morse functions on trees and their merge trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document against the Morse conditions")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("merge-tree", help="print the induced merge tree")
    p.add_argument("path")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=cmd_merge_tree)

    p = sub.add_parser("invariants", help="impasses, matching, thinness, sequences")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("compare", help="test an equivalence between two documents")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--relation", choices=RELATIONS, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("enumerate", help="exhaust all injective labelings of a tree")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--count-classes", action="store_true")
    group.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true", help="machine-readable --check report")
    p.add_argument("--budget", type=int, default=DEFAULT_SIMPLEX_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("star-realize", help="realize an LR sequence on a star graph")
    p.add_argument("sequence", help='e.g. "LRRL"; empty string for the one-edge star')
    p.set_defaults(func=cmd_star_realize)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()  # for this call only: nothing a command builds forms a cycle
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreemorseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
