"""Command-line front end: every checker plus the verification harness.

All standard-output is JSON (compact by default, indented with --pretty).
Exit codes: 0 on success, 1 when a yes/no subcommand answers "no", 2 on
usage or input errors, which the library reports as ValueError (the format
errors of the parsers included).

Each subcommand's handler maps (input, args) to (document, exit code) and
prints nothing.  The input is what the subcommand declares when it is
registered: the file named by its positional argument, parsed with
parse_graph or parse_complex; the positional argument itself when it
declares no parser; or None when it has no positional argument.  main
alone loads the input file, calls the handler and prints the document;
beyond that, cover reads its JSON cover file and fixtures -o writes its
destination.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohen_macaulay import cm_characteristic_profile, cm_report_json
from .complexes import (
    DEFAULT_SHELLING_BUDGET,
    NOT_SHELLABLE,
    ComplexFormatError,
    is_shellable,
    parse_complex,
)
from .covers import (
    alpha_clique_cover,
    basic_clique_cover,
    perfect_r_matchings,
)
from .fixtures import fixture_names, fixture_text
from .graphs import GraphFormatError, is_perfect, is_unmixed, parse_graph
from .homology import FieldSpec, reduced_betti

DEFAULT_CM_CHARS = (0, 2, 3)
DEFAULT_HARNESS_CHARS = (0, 2)


def _read_text(path: str) -> str:
    """The file's text; ValueError naming the path when it cannot be read or
    is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load(path: str, parse):
    """Parse the file with parse_graph or parse_complex; format errors name the file."""
    try:
        return parse(_read_text(path))
    except (GraphFormatError, ComplexFormatError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _fields(chars: list[int] | None) -> list[FieldSpec]:
    return [FieldSpec(c) for c in chars or DEFAULT_CM_CHARS]


def _emit(obj, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, indent=2, sort_keys=True)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _cmd_cm(g, args):
    reports = cm_characteristic_profile(g, _fields(args.char))
    return {"profile": [cm_report_json(r) for r in reports]}, 0


def _yes_no(key: str, predicate):
    """A handler answering predicate(graph) as {key: verdict}, exit 1 on no."""

    def run(g, args):
        verdict = predicate(g)
        return {key: verdict}, 0 if verdict else 1

    return run


def _cmd_shellable(cx, args):
    res = is_shellable(cx, budget=args.budget)
    doc = {
        "status": res.status,
        "order": [list(f) for f in res.order] if res.order else None,
        "steps": res.steps,
    }
    return doc, 1 if res.status == NOT_SHELLABLE else 0


def _cmd_homology(cx, args):
    fields = _fields(args.char)
    return {
        "dimension": cx.dimension(),
        "f_vector": list(cx.f_vector()),
        "betti": {
            str(f.characteristic): list(reduced_betti(cx, f)) for f in fields
        },
    }, 0


def _cmd_matchings(g, args):
    found = perfect_r_matchings(g, args.r, limit=args.limit)
    return {
        "r": args.r,
        "matchings": [[list(c) for c in m.cliques] for m in found],
    }, 0


def _cmd_cover(g, args):
    text = _read_text(args.cover)
    try:
        members = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{args.cover}: expected a JSON list of cliques: {exc}") from None
    if not isinstance(members, list) or not all(isinstance(c, list) for c in members):
        raise ValueError(f"{args.cover}: expected a JSON list of cliques, each a list of vertices")
    res = basic_clique_cover(g, members)
    return {
        "cliques": [list(c) for c in res.cliques],
        "dropped": list(res.dropped),
    }, 0


def _cmd_classg(g, args):
    cover = alpha_clique_cover(g)
    doc = {
        "in_class": cover is not None,
        "cover": [list(c) for c in cover] if cover is not None else None,
    }
    return doc, 0 if cover is not None else 1


def _cmd_harness(_, args):
    # imported here, so the other subcommands skip the enumeration module
    from .harness import run_battery

    summary = run_battery(
        n_max=args.n_max,
        r=args.r,
        characteristics=args.char or DEFAULT_HARNESS_CHARS,
        report_path=args.output,
    )
    return summary, 0 if summary["violations_total"] == 0 else 1


def _cmd_fixtures(name, args):
    text = fixture_text(name)
    if not args.output:
        return {"fixture": name, "text": text}, 0
    try:
        with open(args.output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc}") from None
    return {"written": args.output, "fixture": name}, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgraph",
        description="Exact Cohen-Macaulayness, shellability, homology, "
        "clique covers and matchings for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="indent JSON output")

    def command(name: str, func, help: str, parse=None, metavar=None, arg_help=None):
        """Register a subcommand; metavar names its positional argument, which
        main loads with parse (when not None) and hands to func."""
        p = sub.add_parser(name, help=help, parents=[pretty])
        p.set_defaults(func=func, parse=parse, input=None)
        if metavar is not None:
            p.add_argument("input", metavar=metavar, help=arg_help)
        return p

    p = command("cm", _cmd_cm, "Cohen-Macaulayness profile of a graph",
                parse_graph, "graph", "edge-list file")
    p.add_argument("--char", type=int, action="append", metavar="C",
                   help="field characteristic, repeatable (default: 0 2 3)")

    command("unmixed", _yes_no("unmixed", is_unmixed),
            "are all maximal independent sets equal-sized?", parse_graph, "graph")

    command("perfect", _yes_no("perfect", is_perfect), "is the graph perfect?",
            parse_graph, "graph")

    p = command("shellable", _cmd_shellable,
                "exhaustive shellability search on a pure complex",
                parse_complex, "complex", "facet-list file")
    p.add_argument("--budget", type=int, default=DEFAULT_SHELLING_BUDGET,
                   help="prefix-extension budget (default 10^8)")

    p = command("homology", _cmd_homology, "reduced Betti numbers of a complex",
                parse_complex, "complex")
    p.add_argument("--char", type=int, action="append", metavar="C")

    p = command("matchings", _cmd_matchings, "perfect r-matchings of a graph",
                parse_graph, "graph")
    p.add_argument("--r", type=int, required=True, help="clique size")
    p.add_argument("--limit", type=int, default=None, help="stop after this many")

    p = command("cover", _cmd_cover, "disjointify a clique cover (JSON list file)",
                parse_graph, "graph")
    p.add_argument("cover", help="JSON file: list of cliques")

    command("classg", _cmd_classg,
            "search for a cover by independence-number many cliques", parse_graph, "graph")

    p = command("harness", _cmd_harness, "run the verification sweeps")
    p.add_argument("--n-max", type=int, default=7, help="vertex bound (<= 9)")
    p.add_argument("--r", type=int, default=2, help="clique/partition size")
    p.add_argument("--char", type=int, action="append", metavar="C",
                   help="field characteristic, repeatable (default: 0 2)")
    p.add_argument("-o", "--output", default=None, help="line-delimited JSON report path")

    p = command("fixtures", _cmd_fixtures, "write a bundled example graph",
                None, "name", "one of: " + ", ".join(fixture_names()))
    p.add_argument("-o", "--output", default=None, help="destination path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        source = args.input if args.parse is None else _load(args.input, args.parse)
        doc, code = args.func(source, args)
    except ValueError as exc:
        sys.stderr.write(f"cmgraph: error: {exc}\n")
        return 2
    _emit(doc, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
