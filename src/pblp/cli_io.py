"""Problem files, result documents, plot data, and the command line.

Problem format, line oriented, '#' starts a comment anywhere:

    case: 1
    vars: 3
    row: >= 2 3 5 40        # coeffs then rhs
    row: <= 2 -1 -15 0
    c1: 1 0 0
    c2: 0 1 0
    d1: 0 0 1

Coefficients are integers, p/q fractions, or finite decimals.  Result
documents are JSON with every number exact (strings like "5/2"; "inf"
for unbounded ends) and are byte-identical across runs of the same
input.  Plot data is a comma-separated text format with one polygon or
segment per record; approximate decimal mirrors of each record ride
along as comment lines for quick plotting, marked lossy.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from fractions import Fraction

from . import lp_core
from .breakpoints import (
    Method,
    ParametricSolution,
    enumerate_breakpoints,
    solve_on_decomposition,
)
from .errors import (
    BadCase,
    DimensionMismatch,
    ParseError,
    PblpError,
    TooLarge,
)
from .lp_core import Sense
from .numerics import rat_parse
from .oracle import (
    SweepReport,
    extreme_nondominated_bruteforce,
    lambda_grid,
    sweep_lambda,
)
from .problem_model import Case, Pblp, segment_for_lambda
from .weight_geometry import intersect_polygons
from .wsd import Decomposition, decompose

USAGE_ERROR = 1
PARSE_ERROR = 2
COMPUTE_ERROR = 3
MISMATCH = 4


# -- problem files -----------------------------------------------------------


def parse_problem(text: str) -> Pblp:
    """Parse problem text; raises ParseError / DimensionMismatch / BadCase."""
    fields: dict[str, str] = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip()
        rest = rest.strip()
        if key == "row":
            rows.append((lineno, rest))
        elif key in ("case", "vars", "c1", "c2", "d1"):
            if key in fields:
                raise ParseError(f"line {lineno}: duplicate '{key}'")
            fields[key] = rest
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    for required in ("case", "vars", "c1", "c2", "d1"):
        if required not in fields:
            raise ParseError(f"missing '{required}' line")
    if not rows:
        raise ParseError("no 'row' lines")

    case = Case.from_text(fields["case"])
    try:
        n = int(fields["vars"])
    except ValueError:
        raise ParseError(f"vars must be an integer, got {fields['vars']!r}")
    if n <= 0:
        raise ParseError(f"vars must be positive, got {n}")

    def cost_row(key: str) -> tuple[Fraction, ...]:
        tokens = fields[key].split()
        if len(tokens) != n:
            raise DimensionMismatch(
                f"'{key}' has {len(tokens)} entries, expected {n}"
            )
        return tuple(rat_parse(tok) for tok in tokens)

    parsed_rows = []
    rhs = []
    senses = []
    for lineno, rest in rows:
        tokens = rest.split()
        if not tokens or tokens[0] not in (">=", "<=", "="):
            raise ParseError(f"line {lineno}: row needs a sense (<=, =, >=)")
        if len(tokens) != n + 2:
            raise DimensionMismatch(
                f"line {lineno}: row has {len(tokens) - 1} numbers, expected {n + 1}"
            )
        senses.append(Sense(tokens[0]))
        parsed_rows.append(tuple(rat_parse(tok) for tok in tokens[1:-1]))
        rhs.append(rat_parse(tokens[-1]))

    c1, c2, d1 = cost_row("c1"), cost_row("c2"), cost_row("d1")
    if all(v == 0 for v in d1):
        raise ParseError("d1 must have a nonzero entry")
    return Pblp(
        case=case, n=n,
        rows=tuple(parsed_rows), rhs=tuple(rhs), senses=tuple(senses),
        c1=c1, c2=c2, d1=d1,
    )


def emit_problem(p: Pblp) -> str:
    """Canonical problem text; parse_problem inverts it exactly."""
    lines = [f"case: {p.case.value}", f"vars: {p.n}"]
    for row, b, sense in zip(p.rows, p.rhs, p.senses):
        coeffs = " ".join(map(str, row))
        lines.append(f"row: {sense.value} {coeffs} {b}")
    for key, cost in (("c1", p.c1), ("c2", p.c2), ("d1", p.d1)):
        lines.append(f"{key}: " + " ".join(map(str, cost)))
    return "\n".join(lines) + "\n"


# -- result documents --------------------------------------------------------


def _rat_list(values) -> list[str]:
    return [str(v) for v in values]


def _images_and_components(dec: Decomposition) -> dict:
    """The "images" and "components" entries of a result document."""
    return {
        "images": [
            {"image": _rat_list(e.image), "witness": _rat_list(e.witness)}
            for e in dec.images
        ],
        "components": [[_rat_list(v) for v in poly.vertices] for poly in dec.components],
    }


def emit_solution(p: Pblp, sol: ParametricSolution) -> str:
    """Deterministic JSON document for a full parametric solve."""
    dec = sol.decomposition
    doc = {
        "case": p.case.value,
        "method": sol.method.value,
        "problem": emit_problem(p),
        **_images_and_components(dec),
        "intervals": [
            {"lower": str(iv.lower), "upper": str(iv.upper)}
            for iv in sol.intervals
        ],
        "breakpoints": _rat_list(sol.breakpoints),
        "axis": [
            {
                "lower": str(seg.lower),
                "upper": str(seg.upper),
                "lower_closed": seg.lower_closed,
                "upper_closed": seg.upper_closed,
                "witnesses": list(seg.witnesses),
            }
            for seg in sol.axis
        ],
        "stats": {
            "lp_solves": dec.lp_solves + sol.interval_lp_solves,
            "interval_lp_solves": sol.interval_lp_solves,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_decomposition(p: Pblp, dec: Decomposition) -> str:
    doc = {
        "case": p.case.value,
        "problem": emit_problem(p),
        **_images_and_components(dec),
        "stats": {"lp_solves": dec.lp_solves},
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_sweep(p: Pblp, report: SweepReport) -> str:
    doc = {
        "case": p.case.value,
        "lambda_max": str(report.lambda_max),
        "steps": report.steps,
        "grid": _rat_list(report.grid),
        "witness_images": [
            [_rat_list(y) for y in entry] for entry in report.witness_images
        ],
        "bolp_images": [
            [_rat_list(y) for y in entry] for entry in report.bolp_images
        ],
        "changes": [
            {"from": str(lo), "to": str(hi)}
            for lo, hi in report.changes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_plot_data(dec: Decomposition, case: Case, lambdas=()) -> str:
    """Text records for plotting: components and lambda segments.

    polygon,<image>,<v1x>,<v1y>,...   one per component
    segment,<lambda>,<px>,<py>,<qx>,<qy>

    Exact rationals only in records; each record is mirrored by a
    '# approx' comment line with lossy decimals for tools that cannot
    divide fractions; a value past the float range reads inf there.
    """

    def lossy(v: Fraction) -> float:
        try:
            return float(v)
        except OverflowError:
            return float("inf") if v > 0 else float("-inf")

    out = ["# weight-set components in the projected simplex"]
    for entry, poly in zip(dec.images, dec.components):
        image = " ".join(map(str, entry.image))
        flat = [str(c) for vertex in poly.vertices for c in vertex]
        out.append(",".join(["polygon", image] + flat))
        approx = " ".join(
            f"{lossy(a):.6g},{lossy(b):.6g}" for a, b in poly.vertices
        )
        out.append(f"# approx polygon {image}: {approx} (lossy)")
    for lam in lambdas:
        seg = segment_for_lambda(case, lam)
        record = [
            "segment",
            str(lam),
            str(seg.p.w1), str(seg.p.w2),
            str(seg.q.w1), str(seg.q.w2),
        ]
        out.append(",".join(record))
        out.append(
            "# approx segment {}: {:.6g},{:.6g} -> {:.6g},{:.6g} (lossy)".format(
                lossy(lam), lossy(seg.p.w1), lossy(seg.p.w2),
                lossy(seg.q.w1), lossy(seg.q.w2),
            )
        )
    return "\n".join(out) + "\n"


# -- consistency check -------------------------------------------------------


def run_check(p: Pblp, out=None) -> list[str]:
    """Cross-validate every route on one instance; returns mismatches.

    Both interval routes run on one decomposition, which the brute-force
    image oracle checks independently."""
    if out is None:
        out = sys.stderr
    problems: list[str] = []
    by_lp = enumerate_breakpoints(p, Method.LP)
    by_vertex = solve_on_decomposition(p, by_lp.decomposition, Method.ADAPTED)

    if by_lp.intervals != by_vertex.intervals:
        problems.append(
            f"interval mismatch: lp={by_lp.intervals} vertex={by_vertex.intervals}"
        )
    if by_lp.breakpoints != by_vertex.breakpoints:
        problems.append(
            f"breakpoint mismatch: lp={by_lp.breakpoints} "
            f"vertex={by_vertex.breakpoints}"
        )
    if by_lp.axis != by_vertex.axis:
        problems.append("axis segmentation mismatch between methods")

    dec = by_lp.decomposition
    try:
        expected = extreme_nondominated_bruteforce(p)
    except TooLarge as exc:
        # The enumeration oracle only covers desk-sized feasible sets.
        print(f"note: vertex oracle skipped ({exc})", file=out)
    else:
        if dec.image_points() != expected:
            problems.append(
                f"image mismatch: decomposition={dec.image_points()} "
                f"brute-force={expected}"
            )

    total = sum(poly.area() for poly in dec.components)
    if total != Fraction(1, 2):
        problems.append(f"component areas sum to {total}, not 1/2")
    for i in range(len(dec.components)):
        for j in range(i + 1, len(dec.components)):
            overlap = intersect_polygons(dec.components[i], dec.components[j])
            if overlap.area() != 0:
                problems.append(
                    f"components {i} and {j} overlap with area {overlap.area()}"
                )
    budget = 2 * len(dec.images)
    if by_lp.interval_lp_solves > budget:
        problems.append(
            f"interval LP solves {by_lp.interval_lp_solves} exceed 2*|images|={budget}"
        )
    return problems


# -- command line -------------------------------------------------------------


def _read_problem(path: str) -> Pblp:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # a bad byte is a ValueError
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_problem(text)


def _write(path: str, content: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def _lambda_max(text: str) -> Fraction:
    """A malformed --lambda-max is a usage error, not a bad problem file."""
    try:
        return rat_parse(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblp",
        description="Exact parametric biobjective linear programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd):
        cmd.add_argument("file", help="problem file")
        cmd.add_argument("--quiet", action="store_true", help="no stderr chatter")

    solve = sub.add_parser("solve", help="intervals, breakpoints, axis")
    common(solve)
    solve.add_argument(
        "--method", choices=["lp", "adapted"], default="lp",
        help="interval computation route (default: lp)",
    )
    solve.add_argument("--plot-out", metavar="PATH", help="write plot data here")

    dec = sub.add_parser("decompose", help="weight set decomposition only")
    common(dec)
    dec.add_argument("--plot-out", metavar="PATH", help="write plot data here")
    dec.add_argument(
        "--lambda-max", type=_lambda_max, metavar="R", help="segments up to this lambda"
    )
    dec.add_argument("--steps", type=int, metavar="N", help="segment count")

    sweep = sub.add_parser("sweep", help="grid sweep oracle")
    common(sweep)
    sweep.add_argument("--lambda-max", type=_lambda_max, metavar="R", required=True)
    sweep.add_argument("--steps", type=int, metavar="N", required=True)

    check = sub.add_parser("check", help="cross-validate all routes")
    common(check)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return USAGE_ERROR if exc.code not in (0, None) else 0

    started = time.monotonic()
    solves_before = lp_core.solve_calls()
    try:
        problem = _read_problem(args.file)
        if args.command == "solve":
            sol = enumerate_breakpoints(problem, Method(args.method))
            # the plot file goes first: a path it cannot write leaves
            # nothing on stdout
            if args.plot_out:
                _write(
                    args.plot_out,
                    emit_plot_data(sol.decomposition, problem.case, sol.breakpoints),
                )
            sys.stdout.write(emit_solution(problem, sol))
        elif args.command == "decompose":
            if (args.lambda_max is None) != (args.steps is None):
                raise ValueError("--lambda-max and --steps go together")
            lambdas = ()
            if args.steps is not None:
                lambdas = lambda_grid(args.lambda_max, args.steps)
            result = decompose(problem)
            if args.plot_out:
                _write(args.plot_out, emit_plot_data(result, problem.case, lambdas))
            sys.stdout.write(emit_decomposition(problem, result))
        elif args.command == "sweep":
            report = sweep_lambda(problem, args.lambda_max, args.steps)
            sys.stdout.write(emit_sweep(problem, report))
        elif args.command == "check":
            # notes go to stderr unless --quiet, which swallows them
            problems = run_check(problem, io.StringIO() if args.quiet else None)
            if problems:
                for line in problems:
                    print(f"MISMATCH: {line}", file=sys.stderr)
                return MISMATCH
            if not args.quiet:
                print(f"check ok: {args.file}", file=sys.stderr)
    except (ParseError, DimensionMismatch, BadCase) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ValueError as exc:
        # bad argument values (negative lambda-max, zero steps, ...)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except PblpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR

    if not args.quiet:
        elapsed = time.monotonic() - started
        solves = lp_core.solve_calls() - solves_before
        print(
            f"done in {elapsed:.3f}s, {solves} LP solves", file=sys.stderr
        )
    return 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
