"""Command-line front end.

Subcommands::

    compute    exact minimum distinct-rank count (default), --id-number for
               the minimum red set, --heuristic for the greedy upper bound
    verify     check a rank assignment / coloring / closed-form construction
    analyze    twin classes T, the sphere-counting lower bound (never below
               T) and the distance profile
    construct  emit a closed-form rank assignment
    sweep      family range or random batch vs expected values, as CSV

The ``lower_bound`` of ``compute`` and both the ``T`` and ``lower_bound``
columns of ``sweep`` report the twin bound T; the exact search itself
starts at the counting bound that ``analyze`` reports.

This module alone knows the JSON formats: reports are the bytes of
``json.dump(report, fh, indent=2)`` plus a newline, written one key at a
time and a string or code table one row at a time.  Lists of integers
skip the JSON encoder, other values outside a list or dict skip its
pure-Python path, and each integer's text is made once per report, in a
memo that holds at most about ``n`` texts plus one row's worth (see
:func:`_emit`).  Rank values and string
entries are decimal strings (they can exceed any fixed-width integer);
``verify --ranks`` reads
``{"ranks": [<decimal string>, ...]}`` and ``verify --coloring`` reads
``{"red": [<id>, ...]}``; both lists take JSON integers or decimal strings
``-?[0-9]+``, the grammar of family parameters, an edge list's ``# n=``,
``--budget-nodes``, ``--seed``, ``--from``, ``--to`` and ``--random``.

Exit codes: 0 success, also when the reader closes stdout early (output
stops quietly); 2 usage or input error (any other ``ValueError`` or
``OSError``; every input error the library raises is a ``ValueError``),
also ``error: stdout is closed`` when the command started with stdout
closed and has no ``--json`` or ``--csv`` file to write to; 3
search budget exhausted, with the bracket ``answer in [lower, upper]``
proved so far (a closed bracket such as ``[5, 5]`` still exits 3: the value
is known, but the search stopped before its lexicographically least
witness); 4 internal invariant violation or other internal error; 5 sweep
found a mismatch.

Output is deterministic by default; sweep --deterministic=false fills the
millis column with wall-clock numbers (the search stays deterministic).
Random sweep graphs use seeded Erdos-Renyi edge sampling with p = 1/2,
repaired to connectivity by adding uniformly random absent edges; the seed
is echoed in a CSV header comment so runs can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import random
import sys
import time
from contextlib import nullcontext

from .constructions import construct_assignment, expected_id_index
from .families import FamilySpec, generate, parse_family_spec, random_connected_graph
from .graphs import (
    Graph, _is_integer, all_pairs_distances, check_vertex_count, parse_edge_list
)
from .solvers import (
    DEFAULT_MAX_NODES,
    BudgetExceededError,
    InternalInvariantError,
    greedy_upper_bound,
    id_index_exact,
    id_number_exact,
)
from .strings_codes import code_table, first_collision, string_table
from .structure import counting_lower_bound, distance_profile, tuplet_classes


class _UsageError(ValueError):
    pass


# every input error the library raises is a ValueError
_INPUT_ERRORS = (ValueError, OSError)


def _load_graph(args) -> tuple[Graph, FamilySpec | None]:
    if getattr(args, "family", None):
        spec = parse_family_spec(args.family)
        g, _ = generate(spec)
        return g, spec
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return parse_edge_list(fh.read()), None
    raise _UsageError("need --family or --input")


def _integer(text: str) -> int:
    """argparse type for --seed, --from and --to: an integer ``-?[0-9]+``."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _node_budget(text: str) -> int:
    """argparse type for --budget-nodes: an integer ``-?[0-9]+`` of at least 1."""
    try:  # int() refuses digits past the interpreter's limit, not lifted yet
        value = int(text) if _is_integer(text) else 0
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


class _Decimal(tuple):
    """Integers a report writes as decimal strings: rank values and string
    entries can exceed any fixed-width integer.  Holds either one row of
    integers (a list of strings in the JSON) or a table of such rows."""


def _read_ints(path: str, key: str, usage: str) -> tuple[int, ...]:
    """``obj[key]`` of the JSON object in ``path``: a list of integers or
    decimal strings ``-?[0-9]+``, read as integers.

    Anything else, bools and floats included, raises ``_UsageError(usage)``;
    so does JSON nested past the interpreter's recursion limit.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except RecursionError:
        raise _UsageError(usage) from None
    items = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(items, list) or not all(
        type(x) is int or (type(x) is str and _is_integer(x)) for x in items
    ):
        raise _UsageError(usage)
    return tuple(map(int, items))


class _Texts(dict):
    """``texts[x]``: ``str(x)``, made on first use and kept until cleared."""

    __slots__ = ()

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


def _row(row, pad: str, text, quote: str) -> str:
    """One row of integers as a JSON list whose items sit at ``pad``: decimal
    strings with ``quote='"'`` (they need no escaping), numbers with
    ``quote=''``.  ``text`` turns an integer into its decimal text."""
    if not row:
        return "[]"
    return (
        f"[\n{pad}{quote}"
        + f"{quote},\n{pad}{quote}".join(map(text, row))
        + f"{quote}\n{pad[:-2]}]"
    )


def _emit(obj: dict, path: str | None) -> None:
    """Write the report ``obj`` to ``path`` or stdout, byte for byte as
    ``json.dump(obj, fh, indent=2)`` plus a newline would, with each
    :class:`_Decimal` written as decimal strings.

    The report goes out one key at a time and a table one row at a time,
    each row one join: no string list of the whole table is built.  A list
    of ``int`` is written directly, and any other value that is not a list,
    tuple or dict goes through ``json.dumps`` without ``indent``, which
    writes the same bytes for it through the C encoder; only containers of
    other shapes (nested lists, dicts, lists that mix bools with ints) take
    the encoder's pure-Python path, as it does whenever ``indent`` is set.
    Each integer's text is made once and kept in a memo, as a report's
    entries repeat: ``path:600``'s 359,400 string entries take 5 values.
    The memo is bounded: before each table row, if it holds more texts than
    the table has rows, it is cleared and refilled.  So it holds at most
    about ``n`` texts plus one row's worth.
    """
    texts = _Texts()
    text = texts.__getitem__
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        sep = "{\n  "
        for key, value in obj.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            sep = ",\n  "
            if isinstance(value, _Decimal):
                if not value or type(value[0]) is int:
                    fh.write(_row(value, "    ", text, '"'))
                    continue
                row_sep = "[\n    "
                for row in value:
                    if len(texts) > len(value):
                        texts.clear()
                    fh.write(row_sep + _row(row, "      ", text, '"'))
                    row_sep = ",\n    "
                fh.write("\n  ]")
            elif type(value) is list and all(type(x) is int for x in value):
                fh.write(_row(value, "    ", text, ""))
            elif not isinstance(value, (list, tuple, dict)):
                fh.write(json.dumps(value))  # indent only shapes containers
            else:
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n" if obj else "{}\n")


def _cmd_compute(args) -> int:
    if args.heuristic and args.budget_nodes is not None:
        raise _UsageError("--budget-nodes does not apply to --heuristic")
    if not args.heuristic and args.seed is not None:
        raise _UsageError("--seed applies only to --heuristic")
    budget = args.budget_nodes or DEFAULT_MAX_NODES
    g, _ = _load_graph(args)
    if args.id_number:
        red = id_number_exact(g, budget)
        _emit(
            {
                "is_id_graph": red is not None,
                "id_number": None if red is None else len(red),
                "red": None if red is None else sorted(red),
            },
            args.json,
        )
        return 0
    if args.heuristic:
        cert = greedy_upper_bound(g, seed=args.seed or 0)
    else:
        cert = id_index_exact(g, budget)
    obj = {
        "k_upper" if args.heuristic else "k": cert.k,
        "partition": list(cert.partition.assignment),
        "ranks": _Decimal(cert.ranks),
        "strings": _Decimal(cert.strings),
        "lower_bound": cert.lower_bound,
    }
    if not args.heuristic:
        obj["exhausted_k_minus_1"] = cert.infeasibility is not None
        obj["nodes_searched"] = cert.nodes_searched
    if cert.note is not None:
        obj["note"] = cert.note
    _emit(obj, args.json)
    return 0


def _cmd_verify(args) -> int:
    g, spec = _load_graph(args)
    # the input is read before the all-pairs distances, the costly part
    if args.coloring:
        usage = "coloring file must look like {'red': [ids]}"
        checked = frozenset(_read_ints(args.coloring, "red", usage))
        report = {}
        table_of, table_key, verdict_key = code_table, "codes", "id_coloring"
    else:
        if args.construct:
            if spec is None:
                raise _UsageError("--construct needs --family")
            checked = construct_assignment(spec)
        elif args.ranks:
            usage = "expected {'ranks': [<decimal string>, ...]}"
            checked = _read_ints(args.ranks, "ranks", usage)
        else:
            raise _UsageError("need one of --ranks, --coloring, --construct")
        report = {"ranks": _Decimal(checked)}
        table_of, table_key, verdict_key = string_table, "strings", "distinguishing"
    dm = all_pairs_distances(g)
    table = table_of(dm, checked)
    pair = first_collision(table)
    report["diameter"] = dm.diameter
    report[table_key] = _Decimal(table)
    report[verdict_key] = pair is None
    report["collision"] = list(pair) if pair else None
    _emit(report, args.json)
    return 0


def _cmd_analyze(args) -> int:
    g, _ = _load_graph(args)
    dm = all_pairs_distances(g)
    tc = tuplet_classes(g)
    profile = distance_profile(dm.spheres)
    _emit(
        {
            "n": g.n,
            "diameter": dm.diameter,
            "T": tc.max_size,
            "idi_lower_bound": counting_lower_bound(dm.spheres, tc.max_size),
            "tuplet_classes": [
                {"members": list(c.members), "kind": c.kind} for c in tc.classes
            ],
            "distance_profile": None if profile is None else list(profile),
        },
        args.json,
    )
    return 0


def _cmd_construct(args) -> int:
    spec = parse_family_spec(args.family)
    ranks = construct_assignment(spec)
    _emit({"ranks": _Decimal(ranks)}, args.json)
    return 0


_SWEEPABLE = ("path", "cycle", "complete", "prism", "grid")


def _sweep_rows(args):
    """The head of a sweep's CSV and its rows ``(family, params, graph,
    spec)``, after every argument is checked: each graph is built only when
    its row is taken."""
    if args.random:
        if args.from_ is not None or args.to is not None:
            raise _UsageError("--from and --to apply only to --family")
        params = {}
        for item in args.random.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise _UsageError(f"bad --random item {item!r}")
            if key in params:
                raise _UsageError(f"repeated --random key {key!r}")
            if not _is_integer(value):
                raise _UsageError(f"bad --random value {value!r}")
            params[key] = int(value)
        if not {"n", "count"} <= params.keys() <= {"n", "count", "seed"}:
            raise _UsageError("--random wants n=..,count=..[,seed=..]")
        n, count, seed = params["n"], params["count"], params.get("seed", 0)
        if n < 1 or count < 1:
            raise _UsageError("--random n and count must be >= 1")
        check_vertex_count(n)
        rng = random.Random(seed)
        return f"# seed={seed}\n", (
            ("random", f"n={n};i={i}", random_connected_graph(n, rng), None)
            for i in range(count)
        )
    if not args.family:
        raise _UsageError("need --family KIND with --from/--to, or --random")
    if args.family not in _SWEEPABLE:
        raise _UsageError(
            f"sweepable kinds are {', '.join(_SWEEPABLE)}; got {args.family!r}"
        )
    if args.from_ is None or args.to is None:
        raise _UsageError("family sweep needs --from and --to")
    if args.from_ > args.to:
        raise _UsageError("--from must not exceed --to")
    sizes = range(args.from_, args.to + 1)
    params = itertools.product(sizes, sizes) if args.family == "grid" else zip(sizes)
    specs = [FamilySpec(args.family, p) for p in params]
    return "", ((s.kind, s.label().partition(":")[2], generate(s)[0], s) for s in specs)


def _cmd_sweep(args) -> int:
    mismatch = False
    head, rows = _sweep_rows(args)
    timing = args.deterministic == "false"
    with open(args.csv, "w") if args.csv else nullcontext(sys.stdout) as fh:
        fh.write(
            head + "family,params,n,diameter,T,lower_bound,idi,expected,match,"
            "nodes_searched,millis\n"
        )
        for family, params, g, spec in rows:
            started = time.perf_counter()
            try:
                cert = id_index_exact(g, args.budget_nodes or DEFAULT_MAX_NODES)
            except BudgetExceededError as exc:
                # the finished rows are written; the message names this row
                raise BudgetExceededError(f"{family}:{params}: {exc}") from None
            millis = int((time.perf_counter() - started) * 1000) if timing else 0
            expected = expected_id_index(spec) if spec is not None else None
            if expected is None:
                expected = match = ""
            elif expected == cert.k:
                match = "yes"
            else:
                match = "no"
                mismatch = True
            # strings[0] has one entry per distance; T and lower_bound are
            # both the largest twin class
            diameter, t = len(cert.strings[0]), cert.lower_bound
            fh.write(
                f"{family},{params},{g.n},{diameter},{t},{t},{cert.k},{expected},"
                f"{match},{cert.nodes_searched},{millis}\n"
            )
            fh.flush()  # so a reader that left stops the sweep at the next row
    if mismatch:
        print("sweep: exact value disagreed with expected value", file=sys.stderr)
        return 5
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idindex",
        description="Distance-based vertex identification: exact solvers, "
        "constructions and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--family", help="family spec, e.g. path:7 or grid:3x4")
        source.add_argument("--input", help="edge-list file (u v per line, # comments)")
        p.add_argument("--json", help="write the JSON report here instead of stdout")

    def add_budget(p):
        # None when not given (DEFAULT_MAX_NODES), so compute can refuse it
        p.add_argument(
            "--budget-nodes",
            type=_node_budget,
            help="search node budget (>= 1)",
        )

    p = sub.add_parser("compute", help="exact search (or --id-number / --heuristic)")
    add_graph_source(p)
    search = p.add_mutually_exclusive_group()
    search.add_argument("--id-number", action="store_true", help="minimum red-set search")
    search.add_argument("--heuristic", action="store_true", help="greedy upper bound")
    p.add_argument("--seed", type=_integer, help="seed for --heuristic splits")
    add_budget(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="check an assignment or coloring")
    add_graph_source(p)
    checked = p.add_mutually_exclusive_group()
    checked.add_argument("--ranks", help="rank assignment JSON file")
    checked.add_argument("--coloring", help="coloring JSON file, {'red': [ids]}")
    checked.add_argument(
        "--construct",
        action="store_true",
        help="verify the closed-form construction for --family",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="twin classes, bounds, distance profile")
    add_graph_source(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="emit a closed-form rank assignment")
    p.add_argument("--family", required=True)
    p.add_argument("--json", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sweep", help="family range or random batch, CSV output")
    batch = p.add_mutually_exclusive_group()
    batch.add_argument("--family", help=f"one of: {', '.join(_SWEEPABLE)}")
    p.add_argument("--from", dest="from_", type=_integer, help="first parameter value")
    p.add_argument("--to", type=_integer, help="last parameter value")
    batch.add_argument("--random", help="random batch: n=..,count=..[,seed=..]")
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    add_budget(p)
    p.add_argument(
        "--deterministic",
        nargs="?",
        const="true",
        default="true",
        choices=["true", "false"],
        help="reproducible CSV with millis=0 (default true); false records "
        "wall-clock millis",
    )
    p.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first ``run`` and kept: argparse keeps
    no per-parse state on it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        return int(exc.code) if exc.code else 0
    # rank values and string entries may have more decimal digits than the
    # interpreter's int/str conversion limit; lift it for this call only
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    # no command leaves cyclic garbage that grows with its work: pause the GC
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        # Python sets stdout to None when the process starts with it closed;
        # refuse before any work, unless the output goes to a file
        json_path = vars(args).get("json")
        if sys.stdout is None and not (json_path or vars(args).get("csv")):
            raise _UsageError("stdout is closed")
        if json_path:  # an unusable path fails before any work; "a" truncates nothing
            open(json_path, "a").close()
        status = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a reader that left shows here, not at exit
        return status
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader left, as `| head` does: stop quietly, and send what stdout
        # still buffers nowhere, so the flush at exit does not fail again
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # RecursionError, MemoryError, any other defect
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(digit_limit)
        if gc_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
