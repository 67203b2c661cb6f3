"""Command-line front end.

Commands: check, certify, colourings, density, smax, falsify, tournament,
reproduce.  Machine-readable JSON goes to --out when given, --pretty prints
a human summary, and with neither the JSON goes to stdout.  ``reproduce``
writes its rows to --out the same way, and prints its table with --pretty or
without --out.  Exit codes: 0 verdict produced, 1 usage or parse error, 2 a
cap stopped a decisive stage, 3 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice

from .config import RunConfig
from .errors import CapExceeded, GnormError, ParseError, VerificationFailed
from . import graphs as G
from . import symmetry
from .cycles import classify_4cycles, four_cycles_generate_cycle_space
from .certify import certify_family, certify_not_norming
from .constructions import (
    clockwise_tournament,
    colouring_from_tournament,
    count_directed_cycles,
    quadratic_residue_tournament,
)
from .density import _dims, _resolve, s_max, t_density
from .falsify import hatami_random_scan, hatami_violation_search, triangle_falsifier
from .kernels import load_kernel
from .verification import ROWS, run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


def _write(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _emit(payload: dict, args) -> None:
    """Write the JSON to --out and print the summary with --pretty; with
    neither, print the JSON to stdout."""
    if args.out:
        _write(payload, args.out)
    if args.pretty:
        _pretty(payload)
    elif not args.out:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")


def _pretty(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, val in payload.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _pretty(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _pretty(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {val}")


# the RunConfig caps with a flag each, --cap-edges for cap_edges and so on
_CAP_FLAGS = ("cap_edges", "cap_assignments", "cap_vertices", "cap_colourings", "cap_cycles")


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    over = {}
    for field in _CAP_FLAGS:
        val = getattr(args, field, None)
        if val is not None:
            over[field] = val
    if getattr(args, "side_swap", None) is not None:
        over["side_swap"] = args.side_swap == "on"
    return cfg.with_(**over) if over else cfg


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pretty", action="store_true", help="human-readable output")
    sub.add_argument("--out", help="write JSON to this path instead of stdout")


def _add_common(sub: argparse.ArgumentParser, settings: tuple[str, ...]) -> None:
    """The output flags, and a flag for each RunConfig setting in ``settings``:
    the ones that something the command runs reads."""
    _add_output(sub)
    for field in settings:
        if field == "side_swap":
            sub.add_argument("--side-swap", dest=field, choices=("on", "off"),
                             help="allow side-exchanging automorphisms (default on)")
        else:
            sub.add_argument("--" + field.replace("_", "-"), dest=field, type=_at_least(0))


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _unless_capped(report: dict, key: str, compute) -> None:
    """``report[key] = compute()``, or a note naming the cap that stopped it."""
    try:
        report[key] = compute()
    except CapExceeded as exc:
        report[key] = f"skipped ({exc})"


def cmd_check(args) -> int:
    cfg = _config_from(args)
    g = G.load_graph(args.graph)
    girth = G.girth(g)
    report: dict = {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "eulerian": G.is_eulerian(g),
        "biregular": G.is_biregular(g),
        "girth": None if girth == math.inf else int(girth),
    }
    a = balanced = None
    if args.colouring:
        a = G.load_colouring(args.colouring)
        G.check_aligned(g, a)
        balanced = G.is_balanced(g, a)
    # one group search serves the report and both colouring checks
    sym = skipped = None
    try:
        sym = symmetry.automorphisms(g, cfg, a.colours if balanced else None)
    except CapExceeded as exc:
        skipped = report["edge_transitive"] = f"skipped ({exc})"
    else:
        report["edge_transitive"] = sym.edge_transitive
        report["vertex_transitive"] = sym.vertex_transitive
        report["automorphism_group_order"] = sym.group_order
    if args.colouring:
        if report["girth"] == 4:
            _unless_capped(report, "four_cycle_profile",
                           lambda: classify_4cycles(g, a, cfg).to_json())
        report["balanced"] = balanced
        if not balanced:
            report["self_conjugate"] = report["transitive"] = False
        elif skipped:
            report["self_conjugate"] = report["transitive"] = skipped
        else:
            report["self_conjugate"], report["transitive"] = sym.self_conjugate, sym.transitive
        _unless_capped(report, "four_cycles_generate_cycle_space",
                       lambda: four_cycles_generate_cycle_space(g, cfg))
    _emit(report, args)
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_certify(args) -> int:
    cfg = _config_from(args)
    if args.target == "graph":
        if len(args.params) != 1:
            return _usage_error(f"certify graph takes one graph file, got {len(args.params)}")
        g = G.load_graph(args.params[0])
        hint = args.hint.split(":") if args.hint else None
        cert = certify_not_norming(g, hint, cfg)
    elif args.hint:
        return _usage_error("--hint applies only to certify graph")
    else:
        cert = certify_family(args.target, args.params, cfg)
    _emit(cert.to_json(), args)
    return EXIT_CAP if cert.cap_hit else EXIT_OK


def cmd_colourings(args) -> int:
    if not args.transitive and (args.cap_vertices is not None or args.side_swap is not None):
        return _usage_error("--cap-vertices and --side-swap apply only with --transitive")
    cfg = _config_from(args)
    g = G.load_graph(args.graph)
    if args.transitive and g.n_edges:
        # the filter reads every balanced colouring and checks one per orbit;
        # the group is searched only when there is a colouring to check
        rows = G._balanced_rows(g, cfg)
        colourings = rows[symmetry._orbit_mask(g, rows, cfg)[0]]
        out = colourings[:args.limit or None].tolist()
    else:
        # streamed, so --limit stops the enumeration early
        out = [list(c) for c in islice(G.iter_balanced_colourings(g, cfg), args.limit or None)]
    _emit({"graph": args.graph, "balanced": not args.transitive,
           "transitive_only": args.transitive, "count": len(out),
           "colourings": out}, args)
    return EXIT_OK


def cmd_density(args) -> int:
    cfg = _config_from(args)
    g = G.load_graph(args.graph)
    a = G.load_colouring(args.colouring)
    f = load_kernel(args.kernel)
    mode = {"t": "conjugate", "r": "transpose"}[args.variant]
    val = t_density(g, a, f, mode, args.mode, cfg)
    payload = {
        "value": _complex_json(val),
        "variant": args.variant,
        "evaluation": args.mode,
    }
    if args.mode == "auto":
        # compare with the route that auto did not take, decided from the
        # assignment count, so the elimination is planned only once
        taken = _resolve("auto", _dims(g, f.shape, mode))
        other = "eliminate" if taken == "direct" else "direct"
        _unless_capped(payload, "cross_check_abs_diff",
                       lambda: abs(val - t_density(g, a, f, mode, other, cfg)))
    _emit(payload, args)
    return EXIT_OK


def cmd_smax(args) -> int:
    cfg = _config_from(args)
    g = G.load_graph(args.graph)
    f = load_kernel(args.kernel)
    mode = {"t": "conjugate", "r": "transpose"}[args.variant]
    res = s_max(g, f, mode, "auto", cfg)
    _emit({"value": res.value, "argmax": list(res.argmax.colours),
           "variant": args.variant}, args)
    return EXIT_OK


def cmd_falsify(args) -> int:
    cfg = _config_from(args)
    if args.seed is None:
        return _usage_error("--seed is required for randomized search")
    g = G.load_graph(args.graph)
    a = G.load_colouring(args.colouring)
    payload: dict = {"seed": args.seed, "trials": args.trials,
                     "resolution": args.resolution, "kind": args.kind}
    if args.kind == "triangle":
        res = triangle_falsifier(g, a, args.seed, args.trials, args.resolution, cfg)
        payload["witness"] = res.witness.to_json() if res.witness else None
        payload["trials_run"] = res.trials
    else:
        witness = hatami_violation_search(g, a, args.seed, args.trials,
                                          args.resolution, config=cfg)
        if witness is None:
            scan = hatami_random_scan(g, a, args.seed, args.trials,
                                      args.resolution, config=cfg)
            witness = scan.witness
            # JSON has no inf: the margin of no trials, or of vanishing densities
            payload["worst_margin"] = (scan.worst_margin if math.isfinite(scan.worst_margin)
                                       else None)
        payload["witness"] = witness.to_json() if witness else None
    _emit(payload, args)
    return EXIT_OK


def cmd_tournament(args) -> int:
    if args.kind == "clockwise":
        t = clockwise_tournament(args.n)
    else:
        t = quadratic_residue_tournament(args.n)
    payload = t.to_json()
    if args.cycles:
        payload["directed_3_cycles"] = count_directed_cycles(t, 3)
        payload["directed_4_cycles"] = count_directed_cycles(t, 4)
    if args.colouring:
        g, col = colouring_from_tournament(t)
        payload["subdivision"] = G.graph_to_json(g)
        payload["subdivision_colouring"] = list(col.colours)
    _emit(payload, args)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg = _config_from(args)
    results = run_all(cfg, args.rows)
    if args.out:
        _write({"rows": results}, args.out)
    if args.pretty or not args.out:
        width = max(len(r["id"]) for r in results)
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"{mark}  {r['id']:<{width}}  {r['elapsed_s']:9.2f}s  {r['title']}")
    failed = [r for r in results if not r["ok"]]
    if failed:
        print(f"{len(failed)} of {len(results)} rows failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1 (``EXIT_USAGE``), so it reads apart
    from a cap hit (2).  Subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gnorm",
        description="Density functionals, colouring symmetry tests, and "
                    "non-norming certificates for bipartite graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural report for a graph (+ colouring)")
    p.add_argument("graph")
    p.add_argument("colouring", nargs="?")
    _add_common(p, ("cap_vertices", "cap_cycles", "side_swap"))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("certify", help="produce a norming-obstruction certificate")
    p.add_argument("target",
                   choices=("graph", "hypercube", "kneser", "inclusion",
                            "subdivided-complete"))
    p.add_argument("params", nargs="+",
                   help="family parameters, or the graph file for 'graph'")
    p.add_argument("--hint", help="family hint for a graph file, e.g. kneser:7:3")
    _add_common(p, ("cap_edges", "cap_vertices", "cap_cycles", "side_swap"))
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("colourings", help="enumerate balanced colourings")
    p.add_argument("graph")
    p.add_argument("--transitive", action="store_true",
                   help="keep only transitive colourings")
    p.add_argument("--limit", type=_at_least(0), default=0,
                   help="list at most this many (0: all)")
    _add_common(p, ("cap_edges", "cap_vertices", "side_swap"))
    p.set_defaults(fn=cmd_colourings)

    p = sub.add_parser("density", help="evaluate a density on a step kernel")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("kernel")
    p.add_argument("--variant", choices=("t", "r"), default="t",
                   help="t conjugates colour-0 edges, r transposes them")
    p.add_argument("--mode", choices=("auto", "direct", "eliminate"),
                   default="auto")
    _add_common(p, ("cap_assignments",))
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("smax", help="maximise |density| over all colourings")
    p.add_argument("graph")
    p.add_argument("kernel")
    p.add_argument("--variant", choices=("t", "r"), default="t")
    _add_common(p, ("cap_assignments", "cap_colourings"))
    p.set_defaults(fn=cmd_smax)

    p = sub.add_parser("falsify", help="seeded norm-axiom falsifier")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("--kind", choices=("triangle", "decoration"),
                   default="triangle")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=_at_least(0), default=10_000)
    p.add_argument("--resolution", type=_at_least(1), default=2)
    _add_common(p, ("cap_assignments",))
    p.set_defaults(fn=cmd_falsify)

    p = sub.add_parser("tournament", help="generate a tournament and its counts")
    p.add_argument("kind", choices=("clockwise", "qr"))
    p.add_argument("n", type=int)
    p.add_argument("--cycles", action="store_true",
                   help="count directed 3- and 4-cycles")
    p.add_argument("--colouring", action="store_true",
                   help="emit the subdivided complete graph and its colouring")
    _add_output(p)
    p.set_defaults(fn=cmd_tournament)

    p = sub.add_parser("reproduce", help="run the verification table")
    p.add_argument("--rows", nargs="+", choices=[row.rid for row in ROWS],
                   metavar="ROW", help="subset of row ids (one or more)")
    _add_common(p, ("cap_edges", "cap_assignments", "cap_vertices", "cap_cycles", "side_swap"))
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationFailed as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GnormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
