"""Command line front end.

Graphs stream one graph6 string per line on stdin (or --graph/--file), results
stream one record per line on stdout, so subcommands compose under pipes:

    chromaconn generate --family cycle --params 5 | chromaconn compute --pattern rainbow

Exit codes: 0 all lines handled, 1 malformed input or unmet preconditions,
2 budget exhaustion.  When both occur the run reports 1: raising the budget
cannot fix a malformed run.  Per-line failures go to stderr and processing
continues with the next line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Iterator, Optional

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


class _Status:
    """Collects per-line failures; input errors dominate the exit code."""

    def __init__(self):
        self.input_error = False
        self.budget_error = False

    def code(self) -> int:
        if self.input_error:
            return EXIT_INPUT
        if self.budget_error:
            return EXIT_BUDGET
        return EXIT_OK


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


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        print(f"error: {BUDGET_ENV} must be an integer, got {raw!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    if value < 1:
        print(f"error: {BUDGET_ENV} must be >= 1, got {value}",
              file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return value


def _resolve_budget(args) -> int:
    return args.budget if args.budget is not None else _default_budget()


def _input_lines(args) -> Iterator[str]:
    if getattr(args, "graph", None) is not None:
        yield args.graph
        return
    path = getattr(args, "file", None)
    try:
        source = sys.stdin if path is None else open(path)
    except OSError as exc:
        print(f"error: cannot open {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    # stdin and --file decode alike whatever the locale, so piping equals a
    # file; a byte that is not UTF-8 reaches the graph6 parser as a surrogate
    source.reconfigure(encoding="utf-8", errors="surrogateescape")
    with source:
        for line in source:
            line = line.strip()
            if line:
                yield line


def _parse_pattern(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key == PROPER_RAINBOW:
        return PROPER_RAINBOW
    return Pattern.from_name(key).value


def _parse_line_graph(line: str):
    try:
        return parse_graph6(line)
    except ValueError as exc:
        raise ValueError(f"bad graph6 {line!r}: {exc}") from exc


def _emit_json(record: dict):
    print(json.dumps(record, separators=(",", ":")))


def _line_error(status: _Status, lineno: int, exc: Exception):
    print(f"error: {exc} (line {lineno})", file=sys.stderr)
    if isinstance(exc, BudgetExceededError):
        status.budget_error = True
    else:
        status.input_error = True


# ---------------------------------------------------------------- compute


def _cmd_compute(args) -> int:
    pattern_name = _parse_pattern(args.pattern)
    task = args.task
    if pattern_name == PROPER_RAINBOW:
        if task != "connect" or args.k != 1:
            print("error: proper-rainbow supports only --task connect with k=1",
                  file=sys.stderr)
            return EXIT_INPUT
    else:
        pattern = Pattern.from_name(pattern_name)
        if args.objective is not None and args.objective != pattern.objective:
            print(f"error: pattern {pattern_name} has objective "
                  f"{pattern.objective}, not {args.objective}",
                  file=sys.stderr)
            return EXIT_INPUT
    if task == "disconnect" and args.k != 1:
        print("error: disconnection does not take k", file=sys.stderr)
        return EXIT_INPUT
    budget = _resolve_budget(args)
    status = _Status()
    for lineno, line in enumerate(_input_lines(args), 1):
        try:
            graph = _parse_line_graph(line)
            if pattern_name == PROPER_RAINBOW:
                result = proper_rainbow_connection_number(graph, budget=budget)
                k = mode = None
            elif task == "connect":
                pattern = Pattern.from_name(pattern_name)
                result = connection_number(graph, pattern, k=args.k,
                                           mode=args.mode, budget=budget)
                k, mode = (None, None) if args.k == 1 else (args.k, args.mode)
            else:
                pattern = Pattern.from_name(pattern_name)
                result = disconnection_number(graph, pattern, budget=budget)
                k = mode = None
        except (ValueError, BudgetExceededError) as exc:
            _line_error(status, lineno, exc)
            continue
        if args.format == "json":
            _emit_json(result_to_dict(graph, result, pattern_name, k, mode))
        else:
            label = task if k is None else f"{task}[k={k},{mode}]"
            print(f"{write_graph6(graph)} {pattern_name} {label} "
                  f"value={result.value} "
                  f"coloring={result.optimal_coloring.to_text() or '-'} "
                  f"nodes={result.nodes_explored}")
    return status.code()


# ----------------------------------------------------------------- verify


def _verify_properties(args, graph, coloring):
    """Property name, whether it holds, and validity of the found certificate."""
    pattern_name = _parse_pattern(args.pattern)
    if pattern_name == PROPER_RAINBOW:
        if args.task != "connect" or args.k != 1:
            raise ValueError("proper-rainbow supports only --task connect with k=1")
        cert = is_proper_rainbow_connected(graph, coloring)
        prop = "connected"
    elif args.task == "disconnect":
        if args.k != 1:
            raise ValueError("disconnection does not take k")
        cert = is_pattern_disconnected(graph, coloring,
                                       Pattern.from_name(pattern_name))
        prop = "disconnected"
    elif args.k == 1:
        cert = is_pattern_connected(graph, coloring,
                                    Pattern.from_name(pattern_name))
        prop = "connected"
    else:
        cert = is_pattern_k_connected(graph, coloring,
                                      Pattern.from_name(pattern_name),
                                      args.k, args.mode)
        prop = "connected"
    holds = cert is not None
    cert_valid = verify_certificate(graph, coloring, cert) if holds else None
    return pattern_name, prop, holds, cert_valid


def _cmd_verify(args) -> int:
    status = _Status()
    if args.coloring is not None:
        # graph6 lines; test the given coloring for the requested property
        if args.pattern is None:
            print("error: --coloring requires --pattern", file=sys.stderr)
            return EXIT_INPUT
        coloring = None
        try:
            coloring = EdgeColoring.from_text(args.coloring) \
                if args.coloring else EdgeColoring((), 0)
        except ValueError as exc:
            print(f"error: bad coloring: {exc}", file=sys.stderr)
            return EXIT_INPUT
        for lineno, line in enumerate(_input_lines(args), 1):
            try:
                graph = _parse_line_graph(line)
                pattern_name, prop, holds, cert_valid = _verify_properties(
                    args, graph, coloring)
            except ValueError as exc:
                _line_error(status, lineno, exc)
                continue
            if args.format == "json":
                record = {"graph": write_graph6(graph), "pattern": pattern_name,
                          prop: holds, "certificate_valid": cert_valid}
                _emit_json(record)
            else:
                print(f"{write_graph6(graph)} {prop}: "
                      f"{'true' if holds else 'false'}")
        return status.code()
    # JSON records as produced by compute; check their certificates
    for lineno, line in enumerate(_input_lines(args), 1):
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
            coloring = EdgeColoring.from_text(record["coloring"]) \
                if record["coloring"] else EdgeColoring((), 0)
            cert = certificate_from_dict(record["certificate"])
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            _line_error(status, lineno, ValueError(f"bad record: {exc}"))
            continue
        valid = verify_certificate(graph, coloring, cert)
        if args.format == "json":
            _emit_json({"graph": record["graph"], "valid": valid})
        else:
            print(f"{record['graph']} {'valid' if valid else 'invalid'}")
    return status.code()


# ------------------------------------------------------------------ count


def _cmd_count(args) -> int:
    pattern_name = _parse_pattern(args.pattern)
    if pattern_name == PROPER_RAINBOW:
        print("error: counting supports the four path patterns only",
              file=sys.stderr)
        return EXIT_INPUT
    pattern = Pattern.from_name(pattern_name)
    prop = "connected" if args.task == "connect" else "disconnected"
    budget = _resolve_budget(args)
    status = _Status()
    for lineno, line in enumerate(_input_lines(args), 1):
        try:
            graph = _parse_line_graph(line)
            total = count_colorings(graph, pattern, args.colors, prop=prop,
                                    budget=budget)
        except (ValueError, BudgetExceededError) as exc:
            _line_error(status, lineno, exc)
            continue
        if args.format == "json":
            _emit_json({"graph": write_graph6(graph), "pattern": pattern_name,
                        "property": prop, "t": args.colors, "count": total})
        else:
            print(f"{write_graph6(graph)} {pattern_name} {prop} "
                  f"t={args.colors} count={total}")
    return status.code()


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
    status = _Status()
    rows = []
    for lineno, line in enumerate(_input_lines(args), 1):
        try:
            graph = _parse_line_graph(line)
            row, exhausted = _table_row(graph, budget)
        except ValueError as exc:
            _line_error(status, lineno, exc)
            continue
        if exhausted:
            status.budget_error = True
        g6 = write_graph6(graph)
        if args.format == "json":
            record = {"graph": g6}
            record.update(row)
            record["exhausted"] = exhausted
            _emit_json(record)
        else:
            rows.append((g6, row))
    if args.format == "text" and rows:
        _print_text_table(rows)
    return status.code()


def _print_text_table(rows):
    header = ("graph", *TABLE_COLUMNS)
    cells = [header]
    for g6, row in rows:
        cells.append((g6,) + tuple(
            "?" if v is None else str(v) for v in row.values()))
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(r[i].ljust(widths[i])
                        for i in range(len(header))).rstrip())


# --------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    if (args.family is None) == (args.all_connected is None):
        print("error: give exactly one of --family or --all-connected",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.all_connected is not None:
            graphs = connected_graphs_up_to(args.all_connected)
        else:
            params = tuple(int(p) for p in args.params.split(",")) \
                if args.params else ()
            graphs = [generate(args.family, params)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    count.set_defaults(func=_cmd_count)

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
                     help="all connected graphs up to N vertices (N <= 7)")
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
