"""Command-line interface.

Subcommands: verify, construct, search, bounds, graph, export, render.
Exit codes: 0 success / verified, 1 verification failure, 2 usage error,
3 search budget exhausted without a result.

Each command imports the modules it uses when it runs, so a process loads
only those: ``bounds`` reads ``bounds`` and ``geometry``, and ``export``
reads ``search`` and ``geometry``.  Tensors are summed on Python ints, so no
command loads an array library, ``dataclasses`` or ``inspect``, and only a
JSON document (``construct --format json``, or a JSON file read) loads
``json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import get_args

from .geometry import Ambient, GeometryError, Mode, Predicate, verify_cover
from .geometry import _check_cells, _check_demand

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_document(path: str):
    from .formats import parse_partition_structured, parse_partition_text

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_partition_structured(text)
    return parse_partition_text(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_ambient(spec: str) -> Ambient:
    return Ambient(tuple(int(s) for s in spec.split(",")))


def _report_lines(report) -> str:
    lines = [
        f"partition: {report.is_partition}",
        f"multiplicity: min {report.cover_multiplicity_min} "
        f"max {report.cover_multiplicity_max}",
        f"proper: {report.all_proper}  odd: {report.all_odd}  "
        f"brick: {report.all_brick}",
        f"piercing: {report.piercing_number} per-axis "
        f"{list(report.per_axis_piercing)}",
    ]
    if report.first_violation is not None:
        lines.append(f"first violation at point {report.first_violation}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    doc = _read_document(args.file)
    report = verify_cover(doc.family(), args.t, args.mode)
    sys.stdout.write(_report_lines(report))
    ok = report.multiplicity_ok
    if args.piercing is not None and report.piercing_number < args.piercing:
        sys.stdout.write(
            f"piercing {report.piercing_number} below target {args.piercing}\n"
        )
        ok = False
    return EXIT_OK if ok else EXIT_VERIFY


_CONSTRUCTIONS = {
    "trivial": lambda c, a: c.trivial_odd_partition(3 if a.n is None else a.n, a.d),
    "grid": lambda c, a: c.grid_partition(a.d, a.k, a.n),
    "p25": lambda c, a: c.partition_25(),
    "quadrant": lambda c, a: c.quadrant_construction(a.d, a.k),
    "realize": lambda c, a: c.realize(c.intermediate_library(a.fig, a.k), a.k, a.tail),
}
# the names of ``constructions._LIBRARY``, kept here so that the parser needs
# no construction module
_FIGS = ("fig3", "fig4", "fig5", "fig6", "fig8")


def _cmd_construct(args) -> int:
    from . import constructions
    from .formats import PartitionDocument, write_partition_structured, write_partition_text

    fam = _CONSTRUCTIONS[args.kind](constructions, args)
    report = verify_cover(fam)
    doc = PartitionDocument.from_family(fam)
    text = (
        write_partition_structured(doc)
        if args.format == "json"
        else write_partition_text(doc)
    )
    _emit(text, args.out)
    sys.stderr.write(
        f"{len(fam)} boxes over {list(fam.ambient.sides)}; "
        f"piercing {report.piercing_number}\n"
    )
    return EXIT_OK if report.is_partition else EXIT_VERIFY


def _make_instance(args):
    from .search import CoverInstance, enumerate_candidates

    ambient = _parse_ambient(args.ambient)
    cands = tuple(enumerate_candidates(ambient, args.candidates.replace("-", "_")))
    _check_demand(args.t, args.mode)
    # the pool was enumerated inside the ambient, so every candidate fits it
    return CoverInstance._trusted(ambient, cands, args.t, args.mode)


def _cmd_search(args) -> int:
    from .search import SearchBudget, anneal_cover, solve_cover

    instance = _make_instance(args)
    budget = SearchBudget(
        max_nodes=args.max_nodes,
        wall_seconds=args.budget_seconds,
        seed=args.seed,
    )
    engine = solve_cover if args.engine == "bb" else anneal_cover
    result = engine(instance, budget)
    sys.stderr.write(f"stopped: {result.stop_reason}\n")
    if result.best is None:
        if result.proven_optimal:
            sys.stdout.write("infeasible (proven)\n")
            return EXIT_OK
        sys.stdout.write("no solution found within budget\n")
        return EXIT_BUDGET
    sys.stdout.write(
        f"best size {int(result.best_size)} "
        f"(optimal proven: {result.proven_optimal}; nodes {result.nodes})\n"
    )
    if args.out:
        from .formats import PartitionDocument, write_partition_text

        _emit(write_partition_text(PartitionDocument.from_family(result.best)), args.out)
    return EXIT_OK


def _fmt(v) -> str:
    from fractions import Fraction  # bounds has loaded it

    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else str(v.numerator)
    return f"{v:.6g}"


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    if args.root is not None:
        coeffs = [float(c) for c in args.root.split(",")]
        sys.stdout.write(f"{bounds_mod.growth_root(coeffs):.9f}\n")
        return EXIT_OK
    sep = "," if args.csv else "  "
    header = sep.join(
        ["d", "k", "n", "odd_basic", "odd_proper",
         "brick_lo", "brick_hi", "box_lo", "box_hi"]
    )
    spans = [(args.d_min, args.d_max, 1), (args.k_min, args.k_max, 1), (args.n_min, args.n_max, 2)]
    d, k, n = (max(hi, 3) for _, hi, _ in spans)
    # its text, bounded from the arguments alone before any row: the rows
    # times ten numbers (odd_proper's two too), each below 2^(d (n + bits of k))
    counts = [max(0, (hi - lo) // step + 1) for lo, hi, step in spans]
    _check_cells([*counts, 10 * (d * (n + k.bit_length()) // 3 + 3)], "the bounds table's text")
    rows = [header]
    for d in range(args.d_min, args.d_max + 1):
        for k in range(args.k_min, args.k_max + 1):
            for n in range(args.n_min, args.n_max + 1, 2):
                brick = bounds_mod.kp_trivial_bounds(d, k, "brick")
                box = bounds_mod.kp_trivial_bounds(d, k, "box")
                odd = [bounds_mod.lower_odd_basic(d), bounds_mod.lower_odd_proper(n, d)]
                values = (b.value for b in [*odd, *brick, *box])
                try:  # only a number past the interpreter's digit limit raises
                    rows.append(sep.join([str(d), str(k), str(n), *map(_fmt, values)]))
                except ValueError:
                    limit = f"the {sys.get_int_max_str_digits()}-digit limit for printing an integer"
                    raise GeometryError(f"the bounds table's row for d={d} passes {limit}") from None
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_graph(args) -> int:
    from .graphq import clique_property_check, fig9_graph, partition_to_graph

    if args.fig9 is not None:
        g = fig9_graph(args.fig9, args.colors)
        k = args.k if args.k is not None else args.fig9
    else:
        if args.k is None:
            raise GeometryError("--k is required with --from-partition")
        k = args.k
        g = partition_to_graph(_read_document(args.from_partition).family())
    sys.stdout.write(
        f"graph: {g.vertex_count} vertices, "
        + ", ".join(
            f"{len(e)} edges color {c}" for c, e in enumerate(g.colored_edges)
        )
        + "\n"
    )
    if args.check or args.from_partition:
        report = clique_property_check(g, k)
        if report.holds:
            sys.stdout.write(f"clique property holds for k={k}\n")
            return EXIT_OK
        sys.stdout.write(
            f"clique property fails for k={k} at vertex "
            f"{report.failing_vertex} color {report.failing_color}\n"
        )
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_export(args) -> int:
    from .search import _model_lines

    # the model is written as it is spelled, never held as one string; every
    # refusal comes before the first line, so a refused model opens no file
    lines = _model_lines(_make_instance(args), args.format)
    if not args.out:
        sys.stdout.writelines(lines)
        return EXIT_OK
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return EXIT_OK


def _cmd_render(args) -> int:
    from .render import render as render_doc

    doc = _read_document(args.file)
    _emit(render_doc(doc, args.format), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boxkit",
        description="partitions and covers of discrete cubes by sub-boxes",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # the cover demand that verify, search and export share
    demand = argparse.ArgumentParser(add_help=False)
    demand.add_argument("--t", type=int, default=1)
    demand.add_argument("--mode", choices=get_args(Mode), default="exact")
    # the cover-instance arguments that search and export share
    instance = argparse.ArgumentParser(add_help=False, parents=[demand])
    instance.add_argument("--ambient", required=True, help="comma-separated sides")
    instance.add_argument("--candidates", required=True,
                          choices=[n.replace("_", "-") for n in get_args(Predicate)])
    instance.add_argument("--out", default=None)

    v = sub.add_parser("verify", parents=[demand], help="verify a partition/cover file")
    v.add_argument("file")
    v.add_argument("--piercing", type=int, default=None,
                   help="also require this piercing number")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("construct", help="emit a library construction")
    c.add_argument("kind", choices=list(_CONSTRUCTIONS))
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--k", type=int, default=3)
    c.add_argument("--fig", default="fig3", choices=_FIGS)
    c.add_argument("--tail", type=int, default=0)
    c.add_argument("--format", choices=["text", "json"], default="text")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_construct)

    s = sub.add_parser("search", parents=[instance], help="search for a small cover")
    s.add_argument("--engine", choices=["bb", "anneal"], default="bb")
    s.add_argument("--budget-seconds", type=float, default=60.0)
    s.add_argument("--max-nodes", type=int, default=10_000_000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_search)

    b = sub.add_parser("bounds", help="bound table / growth roots")
    b.add_argument("--d-min", type=int, default=1)
    b.add_argument("--d-max", type=int, default=4)
    b.add_argument("--k-min", type=int, default=2)
    b.add_argument("--k-max", type=int, default=4)
    b.add_argument("--n-min", type=int, default=3)
    b.add_argument("--n-max", type=int, default=7)
    b.add_argument("--csv", action="store_true")
    b.add_argument("--root", default=None,
                   help="recurrence coefficients, e.g. 0,13,9")
    b.set_defaults(func=_cmd_bounds)

    g = sub.add_parser("graph", help="two-colored graph reduction")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-partition", default=None)
    source.add_argument("--fig9", type=int, default=None, metavar="K")
    g.add_argument("--colors", type=int, default=2)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--check", action="store_true")
    g.set_defaults(func=_cmd_graph)

    e = sub.add_parser(
        "export", parents=[instance], help="emit LP/CNF model of a cover instance"
    )
    e.add_argument("--format", choices=["lp", "cnf"], default="lp")
    e.set_defaults(func=_cmd_export)

    r = sub.add_parser("render", help="ascii/svg picture of a partition")
    r.add_argument("file")
    r.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_render)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # GeometryError and ParseError too
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
