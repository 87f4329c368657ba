"""Command line front end.

Graphs stream one graph6 string per line on stdin (or --graph/--file), results
stream one record per line on stdout, so subcommands compose under pipes:

    chromaconn generate --family cycle --params 5 | chromaconn compute --pattern rainbow

Exit codes: 0 all lines handled, 1 malformed input or unmet preconditions,
2 budget exhaustion.  When both occur the run reports 1: raising the budget
cannot fix a malformed run.  A bad flag combination is one error before any
input is read; per-line failures go to stderr and processing continues with
the next line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

from .coloring import EdgeColoring, Pattern
from .graph import (
    _FAMILIES,
    connected_graphs_up_to,
    generate,
    parse_graph6,
    write_graph6,
)
from .solve import (
    BudgetExceededError,
    connection_number,
    count_colorings,
    disconnection_number,
    proper_rainbow_connection_number,
    result_to_dict,
)
from .verify import (
    CUT_PATTERNS,
    PROPER_RAINBOW,
    certificate_from_dict,
    is_pattern_connected,
    is_pattern_disconnected,
    is_pattern_k_connected,
    is_proper_rainbow_connected,
    verify_certificate,
)

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV = "CHROMA_BUDGET"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2

PATTERN_CHOICES = ("rainbow", "proper", "monochromatic", "conflict-free",
                   "proper-rainbow")

_PROPERTY = {"connect": "connected", "disconnect": "disconnected"}

# the eight invariants of `chromaconn table`, in column order; each is
# called as solve(graph, budget=budget)
TABLE_COLUMNS = {
    "rc": partial(connection_number, pattern=Pattern.RAINBOW),
    "pc": partial(connection_number, pattern=Pattern.PROPER),
    "mc": partial(connection_number, pattern=Pattern.MONOCHROMATIC),
    "cfc": partial(connection_number, pattern=Pattern.CONFLICT_FREE),
    "rd": partial(disconnection_number, pattern=Pattern.RAINBOW),
    "pd": partial(disconnection_number, pattern=Pattern.PROPER),
    "md": partial(disconnection_number, pattern=Pattern.MONOCHROMATIC),
    "prc": proper_rainbow_connection_number,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; input errors are 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{BUDGET_ENV} must be >= 1, got {value}")
    return value


class _Query(NamedTuple):
    """What --pattern/--task/--k/--mode ask for: the record's pattern name,
    property, k and mode (None at k = 1), the solver, called as
    solve(graph, budget=budget), and the certifier, certify(graph, coloring)."""
    pattern: str
    prop: str
    k: Optional[int]
    mode: Optional[str]
    solve: Callable
    certify: Callable


def _resolve(args) -> _Query:
    """The query of compute, verify --coloring and count; ValueError for a flag
    combination that does not exist, a pattern without a cut form under
    --task disconnect included.  The solvers' own preconditions
    (connectivity, k-connectivity) stay per-line errors."""
    key = args.pattern.replace("-", "_")
    k, mode = args.k, args.mode
    if key == PROPER_RAINBOW:
        if args.task != "connect" or k != 1:
            raise ValueError(
                "proper-rainbow supports only --task connect with k=1")
        objective = Pattern.RAINBOW.objective
        solve = proper_rainbow_connection_number
        certify = is_proper_rainbow_connected
    else:
        pattern = Pattern.from_name(key)
        objective = pattern.objective
        if args.task == "disconnect":
            if pattern not in CUT_PATTERNS:
                raise ValueError(
                    f"pattern {key} has no disconnection variant")
            solve = partial(disconnection_number, pattern=pattern)
            certify = partial(is_pattern_disconnected, pattern=pattern)
        else:
            solve = partial(connection_number, pattern=pattern, k=k,
                            mode=mode)
            certify = (partial(is_pattern_connected, pattern=pattern)
                       if k == 1 else
                       partial(is_pattern_k_connected, pattern=pattern, k=k,
                               mode=mode))
    wanted = getattr(args, "objective", None)
    if wanted is not None and wanted != objective:
        raise ValueError(
            f"pattern {key} has objective {objective}, not {wanted}")
    if args.task == "disconnect" and k != 1:
        raise ValueError("disconnection does not take k")
    k, mode = (None, None) if k == 1 else (k, mode)
    return _Query(key, _PROPERTY[args.task], k, mode, solve, certify)


def _input_lines(args) -> Iterator[str]:
    if getattr(args, "graph", None) is not None:
        yield args.graph
        return
    path = getattr(args, "file", None)
    try:
        source = sys.stdin if path is None else open(path)
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}")
    # stdin and --file decode alike whatever the locale, so piping equals a
    # file; a byte that is not UTF-8 reaches the graph6 parser as a surrogate
    source.reconfigure(encoding="utf-8", errors="surrogateescape")
    with source:
        for line in source:
            line = line.strip()
            if line:
                yield line


def _run_lines(args, handle) -> int:
    """Call handle(line) on every input line and return the exit code.  A
    line's error goes to stderr with its line number and the next line is
    read; handle returns True for a line that ran out of budget without
    raising."""
    input_error = budget_error = False
    for lineno, line in enumerate(_input_lines(args), 1):
        try:
            budget_error |= bool(handle(line))
        except (ValueError, BudgetExceededError) as exc:
            print(f"error: {exc} (line {lineno})", file=sys.stderr)
            if isinstance(exc, BudgetExceededError):
                budget_error = True
            else:
                input_error = True
    if input_error:
        return EXIT_INPUT
    return EXIT_BUDGET if budget_error else EXIT_OK


def _parse_line_graph(line: str):
    try:
        return parse_graph6(line)
    except ValueError as exc:
        raise ValueError(f"bad graph6 {line!r}: {exc}") from exc


def _emit(args, record: dict, text: Optional[str]):
    print(json.dumps(record, separators=(",", ":"))
          if args.format == "json" else text)


def print_text_table(header, rows):
    """Print rows under header in left-aligned columns two spaces apart."""
    cells = [tuple(map(str, row)) for row in (header, *rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------- compute


def _cmd_compute(args) -> int:
    query = _resolve(args)
    budget = _resolve_budget(args)
    label = (args.task if query.k is None
             else f"{args.task}[k={query.k},{query.mode}]")

    def handle(line):
        graph = _parse_line_graph(line)
        record = result_to_dict(graph, query.solve(graph, budget=budget),
                                query.pattern, query.k, query.mode)
        _emit(args, record,
              f"{record['graph']} {query.pattern} {label} "
              f"value={record['value']} coloring={record['coloring'] or '-'} "
              f"nodes={record['nodes_explored']}")

    return _run_lines(args, handle)


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    if args.coloring is None:
        # JSON records as produced by compute; check their certificates
        return _run_lines(args, partial(_verify_record, args))
    # graph6 lines; test the given coloring for the requested property
    if args.pattern is None:
        raise ValueError("--coloring requires --pattern")
    query = _resolve(args)
    try:
        coloring = EdgeColoring.from_text(args.coloring)
    except ValueError as exc:
        raise ValueError(f"bad coloring: {exc}") from exc

    def handle(line):
        graph = _parse_line_graph(line)
        cert = query.certify(graph, coloring)
        holds = cert is not None
        g6 = write_graph6(graph)
        _emit(args, {"graph": g6, "pattern": query.pattern, query.prop: holds,
                     "certificate_valid": verify_certificate(
                         graph, coloring, cert) if holds else None},
              f"{g6} {query.prop}: {'true' if holds else 'false'}")

    return _run_lines(args, handle)


def _verify_record(args, line):
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("expected a JSON object per line")
        for field in ("graph", "coloring", "certificate"):
            if field not in record:
                raise ValueError(f"record missing field {field!r}")
        for field in ("graph", "coloring"):
            if not isinstance(record[field], str):
                raise ValueError(f"field {field!r} must be a string")
        graph = _parse_line_graph(record["graph"])
        coloring = EdgeColoring.from_text(record["coloring"])
        cert = certificate_from_dict(record["certificate"])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad record: {exc}") from exc
    valid = verify_certificate(graph, coloring, cert)
    _emit(args, {"graph": record["graph"], "valid": valid},
          f"{record['graph']} {'valid' if valid else 'invalid'}")


# ------------------------------------------------------------------ count


def _cmd_count(args) -> int:
    query = _resolve(args)
    pattern = Pattern.from_name(query.pattern)
    prop = query.prop
    budget = _resolve_budget(args)

    def handle(line):
        graph = _parse_line_graph(line)
        total = count_colorings(graph, pattern, args.colors, prop=prop,
                                budget=budget)
        g6 = write_graph6(graph)
        _emit(args, {"graph": g6, "pattern": pattern.value, "property": prop,
                     "t": args.colors, "count": total},
              f"{g6} {pattern.value} {prop} t={args.colors} count={total}")

    return _run_lines(args, handle)


# ------------------------------------------------------------------ table


def _table_row(graph, budget):
    row = {}
    exhausted = []
    for name, solve in TABLE_COLUMNS.items():
        try:
            row[name] = solve(graph, budget=budget).value
        except BudgetExceededError:
            row[name] = None
            exhausted.append(name)
    return row, exhausted


def _cmd_table(args) -> int:
    budget = _resolve_budget(args)
    rows = []

    def handle(line):
        graph = _parse_line_graph(line)
        row, exhausted = _table_row(graph, budget)
        g6 = write_graph6(graph)
        if args.format == "text":
            rows.append((g6, *("?" if v is None else v for v in row.values())))
        else:
            _emit(args, {"graph": g6, **row, "exhausted": exhausted}, None)
        return bool(exhausted)

    code = _run_lines(args, handle)
    if rows:
        print_text_table(("graph", *TABLE_COLUMNS), rows)
    return code


# --------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    if (args.family is None) == (args.all_connected is None):
        raise ValueError("give exactly one of --family or --all-connected")
    if args.all_connected is not None:
        graphs = connected_graphs_up_to(args.all_connected)
    else:
        params = tuple(int(p) for p in args.params.split(",")) \
            if args.params else ()
        graphs = [generate(args.family, params)]
    for graph in graphs:
        print(write_graph6(graph))
    return EXIT_OK


# ------------------------------------------------------------------- main


def _add_io_options(sub, with_budget=True):
    sub.add_argument("--graph", help="single graph6 string instead of stdin")
    sub.add_argument("--file", help="read graph6 lines from a file")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    if with_budget:
        sub.add_argument(
            "--budget", type=_positive_int, default=None,
            help=f"max search nodes per solve, >= 1 "
                 f"(default ${BUDGET_ENV} or {DEFAULT_BUDGET})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chromaconn",
        description="exact pattern connection and disconnection numbers")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    compute = subs.add_parser(
        "compute", help="optimal coloring for one pattern and task")
    compute.add_argument("--pattern", required=True, choices=PATTERN_CHOICES)
    compute.add_argument("--task", choices=("connect", "disconnect"),
                         default="connect")
    compute.add_argument("--k", type=_positive_int, default=1,
                         help="disjoint paths required per pair (connect only)")
    compute.add_argument("--mode", choices=("edge", "vertex"), default="edge")
    compute.add_argument("--objective", choices=("min", "max"), default=None,
                         help="assert the pattern's objective, as a guard")
    _add_io_options(compute)
    compute.set_defaults(func=_cmd_compute)

    verify = subs.add_parser(
        "verify",
        help="test a coloring for a property, or check compute records")
    verify.add_argument("--pattern", choices=PATTERN_CHOICES, default=None)
    verify.add_argument("--task", choices=("connect", "disconnect"),
                        default="connect")
    verify.add_argument("--k", type=_positive_int, default=1)
    verify.add_argument("--mode", choices=("edge", "vertex"), default="edge")
    verify.add_argument("--coloring", default=None,
                        help="comma separated edge colors; with it, input is "
                             "graph6 lines, without it, compute JSON records")
    _add_io_options(verify, with_budget=False)
    verify.set_defaults(func=_cmd_verify)

    count = subs.add_parser(
        "count", help="number of t-colorings with the property")
    count.add_argument("--pattern", required=True, choices=PATTERN_CHOICES[:4])
    count.add_argument("--task", choices=("connect", "disconnect"),
                       default="connect")
    count.add_argument("-t", "--colors", type=_positive_int, required=True,
                       help="palette size")
    _add_io_options(count)
    count.set_defaults(func=_cmd_count, k=1, mode="edge")  # for _resolve

    table = subs.add_parser(
        "table", help="all eight invariants per input graph")
    _add_io_options(table)
    table.set_defaults(func=_cmd_table)

    gen = subs.add_parser("generate", help="emit graph6 lines")
    gen.add_argument("--family", choices=sorted(_FAMILIES))
    gen.add_argument("--params", default="",
                     help="comma separated integers for the family")
    gen.add_argument("--all-connected", type=_positive_int, default=None,
                     metavar="N",
                     help="all connected graphs up to N vertices (N <= 8)")
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # raised before the first line is read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
