"""Command-line front end.

Exit codes: 0 planar / certificate valid / campaign passed; 1 non-planar /
certificate invalid / campaign failed; 2 input error; 3 resource or
internal error, or a standard output closed before everything was written
(left without a traceback).  Graph arguments are edge-list files, ``-``
for stdin.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .documents import (
    DocumentError,
    lemma_report_to_doc,
    parse_edge_list,
    to_json,
    verdict_doc_is_valid,
    verdict_to_doc,
)
from .errors import InternalInconsistencyError, SearchBudgetExceeded
from .graphs import Graph
from .harness import CAMPAIGNS
from .lemmas import lemma_report
from .planarity import DEFAULT_CONFIG, DecisionConfig, DecisionPath, decide

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def _count(text: str) -> int:
    """A non-negative int, the argparse type of --max-n and --samples."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _config(args: argparse.Namespace) -> DecisionConfig:
    return DecisionConfig(node_budget=args.budget, path=DecisionPath(args.via))


def _collector_paused(command):
    """command with CPython's cyclic garbage collector paused while it
    runs, and the caller's collector state restored after it.

    check and certify allocate in proportion to their input and keep most
    of it to the end, so the collections their allocations trigger would
    only traverse the loaded graph and document again and again; their
    few short-lived cycles are reclaimed once the collector is back on."""

    @functools.wraps(command)
    def paused(args: argparse.Namespace) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return command(args)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    # decide audits either answer before it returns it: the face trace of a
    # planar rotation, or validate_subdivision of a certificate, is what
    # certify would check of the document built from it, so --validate
    # needs no second pass
    verdict = decide(g, _config(args))
    print(to_json(verdict_to_doc(g, verdict)))
    return EXIT_OK if verdict.planar else EXIT_NEGATIVE


@_collector_paused
def _cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    doc = _load_json(args.verdict)
    return EXIT_OK if verdict_doc_is_valid(g, doc) else EXIT_NEGATIVE


def _cmd_lemmas(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    print(to_json(lemma_report_to_doc(lemma_report(g))))
    return EXIT_OK


def _cmd_harness(args: argparse.Namespace) -> int:
    names = list(CAMPAIGNS) if args.campaign == "all" else [args.campaign]
    passed = True
    for name in names:
        report = CAMPAIGNS[name](args.max_n, args.samples, args.seed)
        if args.text:
            print(report.render_text())
        else:
            sys.stdout.write(report.to_kv())
        passed = passed and report.passed
    return EXIT_OK if passed else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="planarcert",
        description="Decide planarity with a checkable certificate either way.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide planarity of an edge-list graph")
    check.add_argument("graph", help="edge-list file, or - for stdin")
    check.add_argument(
        "--via",
        choices=[p.value for p in DecisionPath],
        default=DecisionPath.SUBDIVISION.value,
        help="route that certifies a non-planar answer: a Kuratowski "
        "subdivision extracted with the left-right test (default), or the "
        "minor search; it runs only on graphs the left-right test rejects",
    )
    check.add_argument(
        "--validate",
        action="store_true",
        help="audit the verdict as certify would before printing it: the "
        "face trace that confirms genus 0, or the validation of the "
        "Kuratowski certificate, each of which every check runs once",
    )
    check.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CONFIG.node_budget,
        help="steps allowed to one decision (exit 3 when spent): an edge "
        "oriented by the left-right test, in the decision and in the "
        "Kuratowski extraction, or a connected set tried by the minor search",
    )
    check.set_defaults(func=_cmd_check)

    certify = sub.add_parser(
        "certify", help="validate a verdict document against a graph"
    )
    certify.add_argument("graph", help="edge-list file, or - for stdin")
    certify.add_argument("verdict", help="verdict JSON file, or - for stdin")
    certify.set_defaults(func=_cmd_certify)

    lemmas = sub.add_parser(
        "lemmas", help="evaluate the edge-deletion conditions on a graph"
    )
    lemmas.add_argument("graph", help="edge-list file, or - for stdin")
    lemmas.set_defaults(func=_cmd_lemmas)

    harness = sub.add_parser("harness", help="run a verification campaign")
    harness.add_argument("campaign", choices=[*CAMPAIGNS, "all"])
    harness.add_argument("--max-n", type=_count, default=5)
    harness.add_argument("--samples", type=_count, default=100)
    harness.add_argument("--seed", type=int, default=42)
    harness.add_argument(
        "--text", action="store_true", help="human-readable report instead of key-value"
    )
    harness.set_defaults(func=_cmd_harness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SearchBudgetExceeded, InternalInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # DocumentError and CapacityError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`planarcert check big.txt | head -1`):
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_RESOURCE
    sys.exit(code)


if __name__ == "__main__":
    entry()
