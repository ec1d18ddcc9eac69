"""Command-line surface.

Subcommands: `gen` (emit a graph as an edge list or DOT), `spectrum`
(eigenvalues and Fiedler basis as JSON), `classify` (case A/B by either or
both methods), and `verify` (run a checker on one instance or over a
parameter sweep).

Exit codes: 0 success / all assertions pass, 1 usage or input error,
2 assertion failure or classifier disagreement, 3 numerical non-convergence.
JSON output is stable-ordered (sorted keys) so runs can be diffed.

Every echo names its stream (`file=sys.stdout` or `file=sys.stderr`).
Without one, click caches each stream object it sees in a weak-key map whose
value refers back to the key, so a buffer that an in-process caller swapped
in for stdout or stderr would never be freed.  click's own `--version` and
`--help` callbacks echo without one, so both are replaced here.
"""

import sys

import click

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
    run_theorem,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NONCONVERGENCE = 3


class CheckFailed(Exception):
    """An assertion-level failure that should exit with code 2."""


def _envelope(instance: str, tolerances: dict, payload_kind: str, payload) -> str:
    ctx = click.get_current_context(silent=True)
    command = ctx.command_path if ctx is not None else "blockspectra"
    doc = {
        "tool": "blockspectra",
        "version": __version__,
        "command": command,
        "instance": instance,
        "tolerances": tolerances,
        payload_kind: payload,
    }
    return format_json(doc)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


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


def _show_version(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(f"blockspectra, version {__version__}", color=ctx.color, file=sys.stdout)
        ctx.exit()


def _show_help(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _Command(click.Command):
    """A command whose `--help` echoes to the current sys.stdout."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


@click.group(cls=_Group)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_show_version, help="Show the version and exit.")
def cli():
    """Clique-chain graph families, their algebraic connectivity, and
    case A/B classification of their Fiedler vectors."""


@cli.group()
def gen():
    """Generate a graph family member."""


def _emit_graph(g, fmt: str, out: str | None) -> None:
    text = format_dot(g) if fmt == "dot" else format_edge_list(g)
    _emit(text, out)


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["edgelist", "dot"]), default="edgelist",
    show_default=True, help="Output format.",
)
_OUT = click.option("--out", default=None, help="Write to a file instead of stdout.")


@gen.command("block-path")
@click.option("-k", type=int, required=True, help="Clique size (>= 2).")
@click.option("-p", type=int, required=True, help="Articulation count (>= 0).")
@_FORMAT
@_OUT
def gen_block_path(k, p, fmt, out):
    """Chain of p+1 cliques of size k."""
    _emit_graph(block_path(k, p), fmt, out)


@gen.command("block-starlike")
@click.option("-r", type=int, required=True, help="Arm count (>= 2).")
@click.option("-k", type=int, required=True, help="Clique size (>= 2).")
@click.option("--arms", required=True,
              help="Comma-separated arm lengths, sorted non-increasing.")
@_FORMAT
@_OUT
def gen_block_starlike(r, k, arms, fmt, out):
    """r clique chains joined at a shared hub vertex."""
    _emit_graph(block_starlike(r, k, parse_arms(arms)), fmt, out)


@gen.command("path")
@click.option("-n", type=int, required=True, help="Vertex count (>= 1).")
@_FORMAT
@_OUT
def gen_path(n, fmt, out):
    """Path graph on n vertices."""
    _emit_graph(path_graph(n), fmt, out)


@gen.command("star")
@click.option("-q", type=int, required=True, help="Leaf count (>= 1).")
@_FORMAT
@_OUT
def gen_star(q, fmt, out):
    """Star with q leaves (q+1 vertices)."""
    _emit_graph(star_graph(q), fmt, out)


@gen.command("complete")
@click.option("-k", type=int, required=True, help="Vertex count (>= 1).")
@_FORMAT
@_OUT
def gen_complete(k, fmt, out):
    """Complete graph on k vertices."""
    _emit_graph(complete_graph(k), fmt, out)


@gen.command("broom")
@click.option("--handle", type=int, required=True, help="Handle path length (>= 1 vertices).")
@click.option("--bristles", type=int, required=True, help="Pendant count (>= 1).")
@_FORMAT
@_OUT
def gen_broom(handle, bristles, fmt, out):
    """Path with pendant vertices attached to its last vertex."""
    _emit_graph(broom_tree(handle, bristles), fmt, out)


@cli.command()
@click.argument("input", default="-")
@click.option("--out", default=None, help="Write JSON to a file instead of stdout.")
def spectrum(input, out):
    """Eigenvalues, multiplicity, and Fiedler basis of a graph file."""
    g = _read_graph(input)
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
    _emit(_envelope(f"graph from {input}", tolerances, "spectrum", payload), out)


@cli.command()
@click.argument("input", default="-")
@click.option("--method", type=click.Choice(["structural", "perron", "both"]),
              default="both", show_default=True)
@click.option("--zero-tol", type=float, default=ZERO_REL_TOL, show_default=True,
              help="Relative threshold below which an entry counts as zero.")
@click.option("--tie-tol", type=float, default=TIE_REL_TOL, show_default=True,
              help="Relative tolerance for tied Perron values.")
@click.option("--out", default=None, help="Write JSON to a file instead of stdout.")
def classify(input, method, zero_tol, tie_tol, out):
    """Case A/B classification of a connected block graph with a cut vertex."""
    g = _read_graph(input)
    # the library rejects a disconnected graph or one without a cut vertex
    if not is_block_graph(g):
        raise ValueError("classification requires a block graph (every block a clique)")
    payload: dict = {}
    tolerances: dict = {}  # those of the routes that run

    if method in ("perron", "both"):
        classification, report = classify_perron(g, tie_rel_tol=tie_tol)
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
                for v, data in sorted(report.by_vertex.items())
            },
        }

    if method in ("structural", "both"):
        summary = spectral_summary(g)
        results = classify_structural(g, summary.fiedler_basis, summary.lambda2,
                                      zero_tol=zero_tol)
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

    _emit(_envelope(f"graph from {input}", tolerances, "classification", payload), out)
    if payload.get("agreement") is False:
        raise CheckFailed(f"classifiers disagree: {sorted(verdicts)}")


@cli.command()
@click.option("--theorem", "theorem", required=True,
              type=click.Choice(sorted(THEOREM_RUNNERS)),
              help="Which identity to check.")
@click.option("-k", type=int, default=None, help="Clique size.")
@click.option("-p", type=int, default=None, help="Articulation count / arm length.")
@click.option("-r", type=int, default=None, help="Arm count.")
@click.option("--arms", default=None, help="Comma-separated arm lengths.")
@click.option("--sweep", "sweep_grid", default=None,
              help='Parameter grid such as "k=2..6,p=1..8"; overrides single-instance options.')
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for sweeps; report order is unaffected.")
@click.option("--json", "json_out", default=None, help="Write the JSON report to a file.")
@click.option("--csv", "csv_out", default=None, help="Write the CSV report to a file.")
def verify(theorem, k, p, r, arms, sweep_grid, jobs, json_out, csv_out):
    """Check one identity on an instance or over a sweep; exit 0 only if every
    evaluated assertion passed."""
    if sweep_grid is not None:
        grid = parse_grid(sweep_grid)
        reports = sweep(grid, [theorem], jobs=max(1, jobs))
    else:
        instance = {}
        if k is not None:
            instance["k"] = k
        if p is not None:
            instance["p"] = p
        if r is not None:
            instance["r"] = r
        if arms is not None:
            instance["arms"] = arms
        if not instance:
            raise ValueError("provide instance parameters or --sweep")
        reports = [run_theorem(theorem, instance)]

    text = reports_to_json(reports)
    if json_out:
        with open(json_out, "w", encoding="ascii") as fh:
            fh.write(text)
    if csv_out:
        with open(csv_out, "w", encoding="ascii") as fh:
            fh.write(reports_to_csv(reports))
    click.echo(text, nl=False, file=sys.stdout)

    counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
    for report in reports:
        counts[report.status] += 1
    click.echo(
        f"# {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skip']} skip, {counts['error']} error",
        file=sys.stderr,
    )
    if any(rep.status == "error" for rep in reports):
        convergence = any(
            "ConvergenceError" in f for rep in reports for f in rep.failures
        )
        if convergence:
            raise ConvergenceError("a checker failed to converge; see report")
        raise CheckFailed("a checker raised an unexpected error; see report")
    if counts["fail"]:
        raise CheckFailed(f"{counts['fail']} instance(s) failed; see report")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="blockspectra", standalone_mode=False)
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailed as exc:
        click.echo(f"failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ClassificationError as exc:
        click.echo(f"failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ConvergenceError as exc:
        click.echo(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
