"""Command-line surface.

Subcommands: `gen` (emit a graph as an edge list or DOT), `spectrum`
(eigenvalues and Fiedler basis as JSON), `classify` (case A/B by either or
both methods), and `verify` (run a checker on one instance or over a
parameter sweep).  Each prints its one document on stdout; redirect it to
keep it.

Exit codes: 0 success / all assertions pass, 1 usage or input error,
2 assertion failure or classifier disagreement, 3 numerical breakdown (any
ConvergenceError).  JSON output is stable-ordered (sorted keys) so runs can
be diffed.
"""

import argparse
import sys
from collections import Counter

import numpy as np

from . import __version__
from .blocks import is_block_graph
from .fileio import format_dot, format_edge_list, format_json, parse_edge_list
from .generators import (
    block_path,
    block_starlike,
    broom_tree,
    complete_graph,
    path_graph,
    star_graph,
)
from .linalg import QL_DEFLATION_TOL, ConvergenceError
from .spectral import (
    TIE_REL_TOL,
    ZERO_REL_TOL,
    ClassificationError,
    classify_perron,
    classify_structural,
    spectral_summary,
)
from .verify import (
    THEOREM_RUNNERS,
    parse_arms,
    parse_grid,
    reports_to_csv,
    reports_to_json,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NONCONVERGENCE = 3


class CheckFailed(Exception):
    """An assertion-level failure that should exit with code 2."""


def _envelope(command: str, instance: str, tolerances: dict, payload_kind: str,
              payload) -> str:
    doc = {
        "tool": "blockspectra",
        "version": __version__,
        "command": f"blockspectra {command}",
        "instance": instance,
        "tolerances": tolerances,
        payload_kind: payload,
    }
    return format_json(doc)


def _emit(text: str) -> None:
    # flushed, so it precedes any later stderr line in a shared pipe
    print(text, end="", flush=True)


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_edge_list(text)


# gen families: (help, options as (flag, type, help), builder).  The builders
# look the generators up when called, so a patched module global is honoured.
_FAMILIES = {
    "block-path": (
        "Chain of p+1 cliques of size k.",
        (("-k", int, "Clique size (>= 2)."), ("-p", int, "Articulation count (>= 0).")),
        lambda a: block_path(a.k, a.p),
    ),
    "block-starlike": (
        "r clique chains joined at a shared hub vertex.",
        (("-r", int, "Arm count (>= 2)."), ("-k", int, "Clique size (>= 2)."),
         ("--arms", str, "Comma-separated arm lengths, sorted non-increasing.")),
        lambda a: block_starlike(a.r, a.k, parse_arms(a.arms)),
    ),
    "path": (
        "Path graph on n vertices.",
        (("-n", int, "Vertex count (>= 1)."),),
        lambda a: path_graph(a.n),
    ),
    "star": (
        "Star with q leaves (q+1 vertices).",
        (("-q", int, "Leaf count (>= 1)."),),
        lambda a: star_graph(a.q),
    ),
    "complete": (
        "Complete graph on k vertices.",
        (("-k", int, "Vertex count (>= 1)."),),
        lambda a: complete_graph(a.k),
    ),
    "broom": (
        "Path with pendant vertices attached to its last vertex.",
        (("--handle", int, "Handle path length (>= 1 vertices)."),
         ("--bristles", int, "Pendant count (>= 1).")),
        lambda a: broom_tree(a.handle, a.bristles),
    ),
}


def gen(args) -> None:
    g = args.build(args)
    _emit(format_dot(g) if args.format == "dot" else format_edge_list(g))


def spectrum(args) -> None:
    """Eigenvalues, multiplicity, and Fiedler basis of a graph file."""
    g = _read_graph(args.input)
    summary = spectral_summary(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "connected": summary.connected,
        "lambda2": summary.lambda2,
        "multiplicity": summary.multiplicity,
        "spectrum": [float(v) for v in summary.spectrum],
        "fiedler_basis": [
            [float(x) for x in summary.fiedler_basis[:, j]]
            for j in range(summary.fiedler_basis.shape[1])
        ],
    }
    tolerances = {"eig_tol": QL_DEFLATION_TOL}
    _emit(_envelope("spectrum", f"graph from {args.input}", tolerances, "spectrum",
                    payload))


def classify(args) -> None:
    """Case A/B classification of a connected block graph with a cut vertex."""
    method, zero_tol, tie_tol = args.method, args.zero_tol, args.tie_tol
    g = _read_graph(args.input)
    # the library rejects a disconnected graph or one without a cut vertex
    if not is_block_graph(g):
        raise ValueError("classification requires a block graph (every block a clique)")
    payload: dict = {}
    tolerances: dict = {}  # those of the routes that run

    if method in ("perron", "both"):
        classification, by_vertex = classify_perron(g, tie_rel_tol=tie_tol)
        tolerances["tie_tol"] = tie_tol
        perron_verdict = (classification.verdict, classification.zero_vertex)
        payload["perron"] = {
            "verdict": classification.verdict,
            "zero_vertex": classification.zero_vertex,
            "perron_components": (
                [list(c) for c in classification.perron_components]
                if classification.perron_components else None
            ),
            "predicted_multiplicity": classification.predicted_multiplicity,
            "by_vertex": {
                str(v): {
                    "components": [list(c) for c in data.components],
                    "perron_values": list(data.values),
                    "maximizers": list(data.maximizers),
                    "tie_margin": data.tie_margin,
                }
                for v, data in sorted(by_vertex.items())
            },
        }

    if method in ("structural", "both"):
        results = classify_structural(g, zero_tol=zero_tol)
        tolerances["zero_tol"] = zero_tol
        structural_verdicts = [(result.verdict, result.zero_vertex) for result in results]
        payload["structural"] = {"per_vector": [
            {
                "vector": j,
                "verdict": result.verdict,
                "zero_vertex": result.zero_vertex,
                "mixed_block": list(result.mixed_block) if result.mixed_block else None,
            }
            for j, result in enumerate(results)
        ]}

    if method == "both":
        verdicts = set(structural_verdicts) | {perron_verdict}
        payload["agreement"] = len(verdicts) == 1

    _emit(_envelope("classify", f"graph from {args.input}", tolerances,
                    "classification", payload))
    if payload.get("agreement") is False:
        raise CheckFailed(f"classifiers disagree: {sorted(verdicts)}")


def verify(args) -> None:
    """Check one identity on an instance or over a sweep; exit 0 only if every
    evaluated assertion passed."""
    if args.sweep_grid is not None:
        grid = parse_grid(args.sweep_grid)
    else:  # the one-point grid of the instance options given
        grid = {key: [getattr(args, key)] for key in ("k", "p", "r", "arms")
                if getattr(args, key) is not None}
    if not grid:
        raise ValueError("provide instance parameters or a --sweep term, such as k=2..6")
    reports = sweep(grid, args.theorem)

    _emit(reports_to_csv(reports) if args.csv else reports_to_json(reports))

    counts = Counter(report.status for report in reports)
    print(
        f"# {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skip']} skip, {counts['error']} error",
        file=sys.stderr,
    )
    if counts["error"]:
        convergence = any(
            "ConvergenceError" in f for rep in reports for f in rep.failures
        )
        if convergence:
            raise ConvergenceError("a checker failed to converge; see report")
        raise CheckFailed("a checker raised an unexpected error; see report")
    if counts["fail"]:
        raise CheckFailed(f"{counts['fail']} instance(s) failed; see report")


class _Parser(argparse.ArgumentParser):
    """Takes options only as spelled in full, offers `--help` (no `-h`), and
    raises each usage error as ValueError, which `main` reports with exit 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _command(commands, name: str, summary: str, run) -> _Parser:
    sub = commands.add_parser(name, help=summary, description=summary)
    sub.set_defaults(run=run)
    return sub


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="blockspectra",
        description="Clique-chain graph families, their algebraic connectivity, "
                    "and case A/B classification of their Fiedler vectors.",
    )
    parser.add_argument("--version", action="version",
                        version=f"blockspectra, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(dest="command", required=True)

    gen_parser = _command(commands, "gen", "Generate a graph family member.", None)
    families = gen_parser.add_subparsers(dest="family", required=True)
    for family, (summary, options, build) in _FAMILIES.items():
        sub = _command(families, family, summary, gen)
        sub.set_defaults(build=build)
        for flag, kind, text in options:
            sub.add_argument(flag, type=kind, required=True, help=text)
        sub.add_argument("--format", choices=["edgelist", "dot"], default="edgelist",
                         help="Output format. [default: edgelist]")

    sub = _command(commands, "spectrum", spectrum.__doc__, spectrum)
    sub.add_argument("input", nargs="?", default="-")

    sub = _command(commands, "classify", classify.__doc__, classify)
    sub.add_argument("input", nargs="?", default="-")
    sub.add_argument("--method", choices=["structural", "perron", "both"], default="both",
                     help="[default: both]")
    sub.add_argument("--zero-tol", type=float, default=ZERO_REL_TOL,
                     help="Relative threshold below which an entry counts as zero. "
                          "[default: %(default)s]")
    sub.add_argument("--tie-tol", type=float, default=TIE_REL_TOL,
                     help="Relative tolerance for tied Perron values. [default: %(default)s]")

    sub = _command(commands, "verify", verify.__doc__, verify)
    sub.add_argument("--theorem", required=True, choices=sorted(THEOREM_RUNNERS),
                     help="Which identity to check.")
    sub.add_argument("-k", type=int, help="Clique size.")
    sub.add_argument("-p", type=int, help="Articulation count / arm length.")
    sub.add_argument("-r", type=int, help="Arm count.")
    sub.add_argument("--arms", help="Comma-separated arm lengths.")
    sub.add_argument("--sweep", dest="sweep_grid",
                     help='Parameter grid such as "k=2..6,p=1..8"; overrides '
                          "single-instance options.")
    sub.add_argument("--csv", action="store_true",
                     help="Print the report as CSV instead of JSON.")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit:  # --help or --version has written its text
            return EXIT_OK
        # every non-finite value is caught and named by a finiteness check,
        # so numpy's own warnings would only repeat it, with source lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckFailed, ClassificationError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
