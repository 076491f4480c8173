"""Command-line front end: analyze, verify, fuzz, gen.

Exit codes: 0 success / no violations, 1 violations found, 2 an
``InputError`` (input that cannot be read or parsed), 3 any other error:
another ``SpectoolError`` with its message, or a defect with its
traceback. ``main`` is the one place that maps an error to its code; the
commands only raise. All randomness flows from --seed; worker count comes
from --jobs or the SPECTOOL_JOBS environment variable.
"""

import argparse
import json
import math
import os
import sys
import traceback

from .bounds import evaluate_all, spectral_mantel_classify
from .cycles import DEFAULT_BUDGET, cycle_spectrum
from .errors import (
    ConfigurationError,
    InputError,
    RedrawLimitError,
    SearchBudgetExceededError,
    SpectoolError,
)
from .families import complete, complete_bipartite, cycle, path, petersen, star
from .graph import Graph, basic_stats, connectivity, count_triangles_brute
from .graph6 import HEADER_LINE, MAX_GRAPH6_N, from_graph6, to_graph6
from .spectrum import eigendecompose, triangle_count_spectral
from .verify import ALL_THEOREMS, SweepConfig, fuzz, sweep
from .walks import walk_counts

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3

# The largest --walks K whose totals can be printed: the densest graph6
# input, K_62, has w_K = 62 * 61^K, which stays within Python's 4,300-digit
# limit on int-to-str conversion up to K = 2407.
MAX_WALKS = 2407


def _default_jobs() -> int:
    env = os.environ.get("SPECTOOL_JOBS") or "1"
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigurationError(
            f"SPECTOOL_JOBS must be a positive integer, got {env!r}")
    return int(env)


def _read_graphs(source: str | None) -> list[Graph]:
    try:
        if source is None or source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="ascii") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source or 'stdin'}: {exc}") from exc
    graphs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(HEADER_LINE):
            line = line[len(HEADER_LINE):].strip()
            if not line:
                continue
        try:
            g = from_graph6(line)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        if g.n == 0:
            raise InputError(f"line {lineno}: graph has no vertices")
        graphs.append(g)
    return graphs


def _analyze_one(g: Graph, args) -> dict:
    stats = basic_stats(g)
    conn = connectivity(g)
    spec = eigendecompose(g)
    report = {
        "graph6": to_graph6(g),
        "n": g.n,
        "m": stats.m,
        "min_degree": stats.min_degree,
        "max_degree": stats.max_degree,
        "average_degree": float(stats.average_degree),
        "degrees": list(stats.degrees),
        "connected": conn.is_connected,
        "diameter": (conn.diameter if math.isfinite(conn.diameter) else None),
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "lambda1": spec.lambda1,
        "residual": spec.residual,
        "triangles": {
            "brute": count_triangles_brute(g),
            "spectral": triangle_count_spectral(spec),
        },
        "bounds": [r.to_dict() for r in evaluate_all(g, spec)],
        "spectral_mantel": spectral_mantel_classify(g, spec).to_dict(),
    }
    if args.walks:
        table = walk_counts(g, args.walks)
        report["walks"] = {"K": args.walks,
                           "totals": [str(w) for w in table.totals]}
    if args.cycles:
        try:
            spectrum = cycle_spectrum(g, min(args.cycles, g.n))
        except SearchBudgetExceededError as exc:
            raise SearchBudgetExceededError(
                f"--cycles {args.cycles}: the cycle search on "
                f"{report['graph6']} exceeded its budget of {DEFAULT_BUDGET} "
                f"node expansions ({exc})") from exc
        report["cycles"] = {"l_max": spectrum.l_max,
                            "present": spectrum.lengths()}
    return report


def _print_analysis_table(report: dict) -> None:
    print(f"graph {report['graph6']}: "
          f"n={report['n']} m={report['m']} "
          f"degrees [{report['min_degree']}..{report['max_degree']}] "
          f"connected={report['connected']}")
    print(f"  lambda1 = {report['lambda1']:.6f}; "
          f"triangles = {report['triangles']['brute']}; "
          f"spectral mantel: {report['spectral_mantel']['kind']}")
    for entry in report["bounds"]:
        if entry["skipped"]:
            print(f"  bound {entry['bound']:>8}: skipped ({entry['skipped']})")
        else:
            flag = " tight" if entry["tight"] else ""
            print(f"  bound {entry['bound']:>8}: {entry['value']:.6f} "
                  f"slack {entry['slack']:+.2e}{flag}")
    if "walks" in report:
        print(f"  walks w_0..w_{report['walks']['K']}: "
              + " ".join(report["walks"]["totals"]))
    if "cycles" in report:
        print(f"  cycle lengths <= {report['cycles']['l_max']}: "
              f"{report['cycles']['present']}")


def cmd_analyze(args) -> int:
    for flag, value in (("--walks", args.walks), ("--cycles", args.cycles)):
        if value < 0:
            raise ConfigurationError(f"{flag} must be nonnegative")
    if args.walks > MAX_WALKS:
        raise ConfigurationError(f"--walks must be at most {MAX_WALKS}")
    graphs = _read_graphs(args.input)
    reports = [_analyze_one(g, args) for g in graphs]
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for report in reports:
            _print_analysis_table(report)
    return EXIT_OK


def _theorems(value: str) -> tuple:
    """The ids a --theorem value lists; ``SweepConfig`` and ``fuzz`` check
    them."""
    return ALL_THEOREMS if value == "all" else tuple(value.split(","))


def _emit_sweep(report, args) -> int:
    if args.json:
        print(report.to_json(include_runtime=args.timing))
    else:
        for tid, counts in sorted(report.totals.items()):
            print(f"{tid}: holds={counts['holds']} vacuous={counts['vacuous']} "
                  f"violated={counts['violated']} "
                  f"inconclusive={counts['inconclusive']}")
        for bound, graphs in sorted(report.tight.items()):
            print(f"tight[{bound}]: {len(graphs)} graphs")
        for ce in report.counterexamples:
            print(f"counterexample {ce.theorem}: {ce.graph}")
        if args.timing:
            print(f"runtime_ms: {report.runtime_ms:.1f}")
    return EXIT_VIOLATIONS if report.violated_count() else EXIT_OK


def cmd_verify(args) -> int:
    config = SweepConfig(
        n_min=args.min_n,
        n_max=args.max_n,
        connected_only=args.connected,
        dedup=args.dedup,
        theorems=_theorems(args.theorem),
        jobs=args.jobs,
        long_run=args.long_run,
    )
    return _emit_sweep(sweep(config), args)


def cmd_fuzz(args) -> int:
    try:
        report = fuzz(args.dist, args.count, args.seed,
                      _theorems(args.theorem), jobs=args.jobs)
    except RedrawLimitError as exc:
        raise RedrawLimitError(f"--dist {args.dist}: {exc}") from exc
    return _emit_sweep(report, args)


GEN_FAMILIES = {"complete": complete, "bipartite": complete_bipartite,
                "cycle": cycle, "path": path, "star": star,
                "petersen": petersen}


def cmd_gen(args) -> int:
    build = GEN_FAMILIES[args.family]
    params = [p for p in args.params.split(",") if p] if args.params else []
    try:
        values = [int(p) for p in params]
        # The order is the sum of the parameters (Petersen's is 10); it is
        # checked before any row is built.
        order = 10 if build is petersen else sum(values)
        if order > MAX_GRAPH6_N:
            raise ConfigurationError(f"order {order} exceeds the graph6 "
                                     f"short-form cap {MAX_GRAPH6_N}")
        g = build(*values)
    except (TypeError, ValueError, SpectoolError) as exc:
        raise ConfigurationError(
            f"bad params for {args.family}: {exc}") from exc
    print(to_graph6(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectool",
        description="Spectral extremal graph theory toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="per-graph spectral and combinatorial report")
    p_analyze.add_argument("input", nargs="?", default=None,
                           help="graph6 file (default: stdin)")
    p_analyze.add_argument("--walks", type=int, default=0, metavar="K",
                           help="include walk totals up to length K")
    p_analyze.add_argument("--cycles", type=int, default=0, metavar="L",
                           help="include cycle spectrum up to length L")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser(
        "verify", help="exhaustive sweep over small graphs")
    p_verify.add_argument("--theorem", default="all",
                          help="comma-separated theorem ids, or 'all'")
    p_verify.add_argument("--min-n", type=int, default=1)
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--connected", action="store_true")
    p_verify.add_argument("--dedup", choices=("labeled", "canonical"),
                          default="labeled")
    p_verify.add_argument("--jobs", type=int, default=_default_jobs())
    p_verify.add_argument("--long-run", action="store_true",
                          help="allow the labeled n=8 sweep (268M graphs)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--timing", action="store_true",
                          help="include runtime_ms in the report")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="randomized seeded sweep")
    p_fuzz.add_argument("--dist", required=True,
                        help="gnp:n,p | bipartite:a,b,p | regular:n,k")
    p_fuzz.add_argument("--count", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--theorem", default="all")
    p_fuzz.add_argument("--jobs", type=int, default=_default_jobs())
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.add_argument("--timing", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_gen = sub.add_parser("gen", help="emit a named family as graph6")
    p_gen.add_argument("--family", required=True,
                       choices=tuple(GEN_FAMILIES))
    p_gen.add_argument("--params", default="",
                       help="comma-separated integer parameters")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, which the type of any
    error it raises decides (see the module docstring). The parser is built
    inside the ``try``, since a bad SPECTOOL_JOBS fails there."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except SpectoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, InputError) else EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
