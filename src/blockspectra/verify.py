"""Checkers for the structural identities the library is built around.

Each checker runs one family instance, evaluates every relevant assertion at
a fixed tolerance, and returns a TheoremReport carrying the measured
quantities whether or not the assertions passed.  Reports never pass by
vacuity: a run that evaluated zero assertions is marked "skip".

The sweep driver evaluates a checker over a cartesian parameter grid in
deterministic order, recording per-instance skips and errors without
aborting the rest of the grid.
"""

import csv
import dataclasses
import io
import itertools
import json
import time

import numpy as np

from .blocks import starlike_profile
from .fileio import format_json
from .generators import (
    block_path,
    block_starlike,
    center_label,
    complete_graph,
)
from .graph import Graph, center, coalesce
from .linalg import eig_sym, laplacian
from .spectral import _fiedler_cluster, classify_perron, spectral_summary

IDENTITY_REL_TOL = 1e-8  # of lambda2 for the two lambda2 identities, else of the vector


@dataclasses.dataclass(frozen=True, eq=False)
class TheoremReport:
    theorem: str
    instance: dict
    status: str            # pass | fail | skip | error
    assertions: int
    measurements: dict
    failures: tuple[str, ...]
    elapsed_s: float


class _Recorder:
    """Accumulates assertion outcomes and measurements for one report."""

    def __init__(self, theorem: str, instance: dict):
        self.theorem = theorem
        self.instance = dict(instance)
        self.assertions = 0
        self.measurements: dict = {}
        self.failures: list[str] = []
        self._start = time.perf_counter()

    def holds(self, name: str, ok: bool) -> None:
        self.assertions += 1
        if not ok:
            self.failures.append(name)

    def equal(self, name: str, got, expected) -> None:
        self.assertions += 1
        if got != expected:
            self.failures.append(f"{name}: got {got!r}, expected {expected!r}")

    def at_most(self, name: str, value, bound: float) -> float:
        """Check value <= bound (a NaN fails) and return value as a float."""
        value = float(value)
        self.assertions += 1
        if not value <= bound:
            self.failures.append(f"{name}: got {value!r} (tolerance {bound!r})")
        return value

    def measure(self, name: str, value) -> None:
        self.measurements[name] = value

    def report(self, status: str | None = None) -> TheoremReport:
        if status is None:
            if self.assertions == 0:
                status = "skip"
            else:
                status = "fail" if self.failures else "pass"
        return TheoremReport(
            theorem=self.theorem,
            instance=self.instance,
            status=status,
            assertions=self.assertions,
            measurements=self.measurements,
            failures=tuple(self.failures),
            elapsed_s=time.perf_counter() - self._start,
        )


def check_twins_lemma(g: Graph) -> TheoremReport:
    """Every eigenspace basis vector at lambda2 is constant on every class of
    true twins.  Requires a block graph with at least one articulation point.

    In a block graph the true-twin classes are the non-cut vertices of each
    block: a cut vertex's closed neighborhood reaches beyond every block it
    lies in.  The basis comes from `eig_sym` on the whole Laplacian, not
    from `spectral_summary`, whose twin quotient makes every vector it
    lifts constant on those classes by construction."""
    dec = g.decomposition
    if not dec.all_cliques:
        raise ValueError("twin identity applies to block graphs only")
    if not dec.articulation_points:
        raise ValueError("twin identity requires an articulation point")
    rec = _Recorder("twins", {"n": g.n})
    basis = eig_sym(laplacian(g), select=_fiedler_cluster)
    cuts = set(dec.articulation_points)
    non_cut = (tuple(v for v in block if v not in cuts) for block in dec.blocks)
    twins = sorted(cls for cls in non_cut if len(cls) >= 2)
    worst = 0.0
    for col in range(basis.vectors.shape[1]):
        y = basis.vectors[:, col]
        scale = float(np.abs(y).max())
        for cls in twins:
            entries = [float(y[v - 1]) for v in cls]
            gap = (max(entries) - min(entries)) / scale
            worst = max(worst, rec.at_most(f"vector {col} constant on twin class {cls}",
                                           gap, IDENTITY_REL_TOL))
    rec.measure("lambda2", float(basis.values[1]))
    rec.measure("multiplicity", basis.vectors.shape[1])
    rec.measure("max_twin_gap_rel", worst)
    return rec.report()


def check_path_parity(k: int, p: int) -> TheoremReport:
    """A clique chain is case B exactly when its articulation count is odd,
    and then the tied vertex is the chain's center."""
    if p < 1:
        raise ValueError(f"parity check needs p >= 1, got {p}")
    rec = _Recorder("path-parity", {"k": k, "p": p})
    g = block_path(k, p)
    classification, by_vertex = classify_perron(g)
    expected = "B" if p % 2 == 1 else "A"
    rec.measure("verdict", classification.verdict)
    rec.equal("verdict matches parity", classification.verdict, expected)
    margins = [d.tie_margin for d in by_vertex.values() if d.tie_margin is not None]
    if margins:
        rec.measure("min_distinct_margin_rel", min(margins))
    if classification.verdict == "B":
        z = classification.zero_vertex
        rec.measure("zero_vertex", z)
        rec.equal("tied vertex is the chain center", z, center_label(k, p))
        data = by_vertex[z]
        best = max(data.values)
        tie_gap = max(abs(best - data.values[i]) / best for i in data.maximizers)
        rec.measure("tie_gap_rel", tie_gap)
        rec.measure("lambda2_from_perron", 1.0 / best)
    return rec.report()


def check_starlike_equal_arms(r: int, k: int, p: int) -> TheoremReport:
    """Equal-length arms force case B at the hub, eigenvalue multiplicity
    r - 1, and make the hub the graph's unique center vertex."""
    rec = _Recorder("equal-arms", {"r": r, "k": k, "p": p})
    g = block_starlike(r, k, [p] * r)
    classification, by_vertex = classify_perron(g)
    rec.measure("verdict", classification.verdict)
    rec.equal("verdict", classification.verdict, "B")
    if classification.verdict == "B":
        z = classification.zero_vertex
        rec.equal("tied vertex is the hub", z, 1)
        m = len(classification.perron_components)
        rec.measure("perron_component_count", m)
        rec.equal("all arms tie", m, r)
        rec.measure("lambda2_from_perron", 1.0 / max(by_vertex[z].values))
    summary = spectral_summary(g)
    rec.measure("lambda2", summary.lambda2)
    rec.measure("multiplicity", summary.multiplicity)
    rec.equal("multiplicity is r-1", summary.multiplicity, r - 1)
    ctr = center(g)
    rec.measure("center", ",".join(map(str, ctr)))
    rec.equal("center is the hub alone", ctr, (1,))
    return rec.report()


def check_starlike_case_a(r: int, k: int, arms) -> TheoremReport:
    """A strictly longest arm no longer than the second plus third plus one
    forces case A, with the longest arm the unique maximizer at the hub.

    Instances outside the hypothesis are skipped, with the classification
    still computed and recorded for exploration.
    """
    arms = list(arms)
    rec = _Recorder("starlike-A", {"r": r, "k": k, "arms": ",".join(map(str, arms))})
    g = block_starlike(r, k, arms)
    classification, by_vertex = classify_perron(g)
    rec.measure("verdict", classification.verdict)
    hypothesis = r >= 3 and arms[0] > arms[1] and arms[1] + arms[2] + 1 >= arms[0]
    rec.measure("hypothesis_satisfied", int(hypothesis))
    if not hypothesis:
        return rec.report(status="skip")
    rec.equal("verdict", classification.verdict, "A")
    hub = by_vertex[1]
    rec.equal("maximizers at the hub", len(hub.maximizers), 1)
    # the longest arm is the first, whose vertices are labeled from 2 on
    rec.holds("longest arm is the hub maximizer", 2 in hub.components[hub.maximizers[0]])
    if hub.tie_margin is not None:
        rec.measure("hub_margin_rel", hub.tie_margin)
    return rec.report()


def check_coalescence(k: int, p: int) -> TheoremReport:
    """Attaching a fresh clique at the center of an odd chain preserves
    lambda2, keeps the zero-extended Fiedler vector an eigenvector, pins the
    new-block values through (1 - lambda2) y_new = y_center, and produces a
    starlike graph (arm profile recorded)."""
    if p < 1 or p % 2 == 0:
        raise ValueError(f"coalescence check needs odd p >= 1, got {p}")
    rec = _Recorder("coalescence", {"k": k, "p": p})
    g = block_path(k, p)
    u = center_label(k, p)
    merged = coalesce(g, u, complete_graph(k), 1)
    new_vertices = tuple(range(g.n + 1, merged.n + 1))

    base = spectral_summary(g)
    grown = spectral_summary(merged)
    rec.measure("lambda2_original", base.lambda2)
    rec.measure("lambda2_coalesced", grown.lambda2)
    gap = abs(grown.lambda2 - base.lambda2)
    rec.measure("lambda2_gap", gap)
    rec.at_most("lambda2 preserved", gap, IDENTITY_REL_TOL * base.lambda2)

    lap_merged = laplacian(merged)
    worst_residual = 0.0
    for col in range(base.fiedler_basis.shape[1]):
        extended = np.concatenate([base.fiedler_basis[:, col], np.zeros(k - 1)])
        residual = float(np.linalg.norm(lap_merged @ extended - base.lambda2 * extended))
        residual /= float(np.linalg.norm(extended))
        worst_residual = max(worst_residual, rec.at_most(
            f"zero-extended vector {col} stays an eigenvector", residual, IDENTITY_REL_TOL))
    rec.measure("max_extension_residual_rel", worst_residual)

    hub_data = classify_perron(merged)[1][u]
    new_block_comp_idx = next(
        i for i, comp in enumerate(hub_data.components) if comp == new_vertices
    )
    new_block_tied = new_block_comp_idx in hub_data.maximizers
    rec.measure("new_block_joins_tie", int(new_block_tied))
    for col in range(grown.fiedler_basis.shape[1]):
        y = grown.fiedler_basis[:, col]
        scale = float(np.abs(y).max())
        spread = (max(y[v - 1] for v in new_vertices) - min(y[v - 1] for v in new_vertices)) / scale
        # holds by construction: the new block's vertices are twins, and
        # spectral_summary lifts every vector of this cluster from its quotient
        rec.at_most(f"new-block twins equal in vector {col}", spread, IDENTITY_REL_TOL)
        pin = max(
            abs((1.0 - grown.lambda2) * y[v - 1] - y[u - 1]) for v in new_vertices
        ) / scale
        rec.at_most(f"new-block pinning identity in vector {col}", pin, IDENTITY_REL_TOL)
        if not new_block_tied:
            flat = max(abs(y[v - 1]) for v in new_vertices) / scale
            rec.at_most(f"new-block entries vanish in vector {col}", flat, IDENTITY_REL_TOL)

    profile = starlike_profile(merged)
    rec.holds("coalesced graph is starlike", profile is not None)
    if profile is not None:
        rec.equal("hub is the coalescence vertex", profile.hub, u)
        rec.measure("arm_profile", ",".join(map(str, profile.arms)))
    return rec.report()


def check_kirkland_identities(g: Graph) -> TheoremReport:
    """For a case-B graph: lambda2 is the reciprocal of every tied Perron
    value at z, the eigenspace dimension is one less than the number of tied
    components, eigenvectors vanish on z and on the untied components, and at
    every other cut vertex the maximizer is the component holding z."""
    classification, by_vertex = classify_perron(g)
    if classification.verdict != "B":
        raise ValueError("identities apply to case-B graphs; classification returned A")
    rec = _Recorder("kirkland", {"n": g.n})
    z = classification.zero_vertex
    data = by_vertex[z]
    m = len(data.maximizers)
    rec.measure("zero_vertex", z)
    rec.measure("perron_component_count", m)

    summary = spectral_summary(g)
    rec.measure("lambda2", summary.lambda2)
    tol = IDENTITY_REL_TOL * summary.lambda2
    worst_gap = 0.0
    for i in data.maximizers:
        gap = abs(summary.lambda2 - 1.0 / data.values[i])
        worst_gap = max(worst_gap, rec.at_most(
            f"lambda2 equals reciprocal Perron value of component {i}", gap, tol))
    rec.measure("max_reciprocal_gap", worst_gap)
    rec.equal("multiplicity is m-1", summary.multiplicity, m - 1)

    non_perron = [
        comp for i, comp in enumerate(data.components) if i not in data.maximizers
    ]
    worst_entry = 0.0
    for col in range(summary.fiedler_basis.shape[1]):
        y = summary.fiedler_basis[:, col]
        scale = float(np.abs(y).max())
        at_z = abs(float(y[z - 1])) / scale
        worst_entry = max(worst_entry, rec.at_most(
            f"vector {col} vanishes at z", at_z, IDENTITY_REL_TOL))
        for comp in non_perron:
            flat = max(abs(float(y[v - 1])) for v in comp) / scale
            worst_entry = max(worst_entry, rec.at_most(
                f"vector {col} vanishes on untied component {comp[:3]}...",
                flat, IDENTITY_REL_TOL))
    rec.measure("max_zero_entry_rel", worst_entry)

    others = [v for v in by_vertex if v != z]
    rec.measure("sampled_vertices", len(others))
    for v in others:
        # classify_perron refuses a second tie, so each v has one maximizer
        vdata = by_vertex[v]
        best_comp = vdata.components[vdata.maximizers[0]]
        rec.holds(f"maximizer at vertex {v} holds z", z in best_comp)
    return rec.report()


def _instance_graph(inst) -> Graph:
    """The starlike graph of `r`, `k`, `arms` if arms are given, else the
    chain of `k`, `p`."""
    if "arms" in inst:
        return block_starlike(inst["r"], inst["k"], parse_arms(inst["arms"]))
    return block_path(inst["k"], inst["p"])


def _run_starlike_a(inst):
    if "arms" in inst:
        arms = parse_arms(inst["arms"])
    else:
        arms = [inst["p1"], inst["p2"], inst["p3"]]
    return check_starlike_case_a(inst.get("r", len(arms)), inst["k"], arms)


THEOREM_RUNNERS = {
    "twins": lambda inst: check_twins_lemma(_instance_graph(inst)),
    "path-parity": lambda inst: check_path_parity(inst["k"], inst["p"]),
    "equal-arms": lambda inst: check_starlike_equal_arms(inst["r"], inst["k"], inst["p"]),
    "starlike-A": _run_starlike_a,
    "coalescence": lambda inst: check_coalescence(inst["k"], inst["p"]),
    "kirkland": lambda inst: check_kirkland_identities(_instance_graph(inst)),
}


def _require_theorem(theorem: str) -> None:
    if theorem not in THEOREM_RUNNERS:
        raise ValueError(
            f"unknown theorem id {theorem!r}; expected one of {sorted(THEOREM_RUNNERS)}"
        )


def run_theorem(theorem: str, instance: dict) -> TheoremReport:
    """Run one checker on one instance, translating precondition mismatches
    into skip reports and unexpected failures into error reports.  Every
    report carries `instance` as given, keys the checker does not read
    included.  A parameter the checker needs but the instance lacks raises
    ValueError."""
    _require_theorem(theorem)
    start = time.perf_counter()
    try:
        return dataclasses.replace(THEOREM_RUNNERS[theorem](instance), instance=dict(instance))
    except KeyError as exc:
        # raised from the handler, so the ValueError clause below, which
        # sees only the try body, cannot turn it into a skip
        if exc.args and exc.args[0] not in instance:
            raise ValueError(f"theorem {theorem!r} needs parameter {exc}") from None
        status, failure = "error", f"KeyError: {exc}"
    except ValueError as exc:
        status, failure = "skip", str(exc)
    except Exception as exc:  # convergence or classification pathology
        status, failure = "error", f"{type(exc).__name__}: {exc}"
    return TheoremReport(
        theorem=theorem, instance=dict(instance), status=status, assertions=0,
        measurements={}, failures=(failure,), elapsed_s=time.perf_counter() - start,
    )


def sweep(grid: dict, theorem: str) -> list[TheoremReport]:
    """Run one checker on every point of the cartesian grid, in grid order,
    collecting one report per point; the empty grid has no points."""
    _require_theorem(theorem)
    keys = list(grid)
    combos = itertools.product(*grid.values()) if keys else ()
    return [run_theorem(theorem, dict(zip(keys, combo))) for combo in combos]


def parse_grid(text: str) -> dict:
    """Parse a grid such as "k=2..6,p=1..8" into {"k": [2..6], "p": [1..8]};
    a blank text is the empty grid.  Raises ValueError for a malformed term
    and for a name given twice."""
    grid: dict[str, list[int]] = {}
    if not text.strip():
        return grid
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"grid term {part!r} is not of the form name=lo..hi")
        name, _, span = part.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"grid term {part!r} has an empty name")
        if name in grid:
            raise ValueError(f"grid names {name!r} twice")
        span = span.strip()
        if ".." in span:
            lo_text, _, hi_text = span.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ValueError(f"grid bounds in {part!r} must be integers") from None
            if hi < lo:
                raise ValueError(f"grid term {part!r} has an empty range")
            grid[name] = list(range(lo, hi + 1))
        else:
            try:
                grid[name] = [int(span)]
            except ValueError:
                raise ValueError(f"grid value in {part!r} must be an integer") from None
    return grid


def parse_arms(arms) -> list[int]:
    """Arm lengths from a comma-separated string such as "3,2,1" (empty
    terms ignored), from one integer, which is one arm as "2" is, or from
    any iterable of lengths."""
    if isinstance(arms, str):
        return [int(a) for a in arms.split(",") if a != ""]
    if isinstance(arms, int):
        return [arms]
    return list(arms)


def reports_to_json(reports) -> str:
    """Each report's fields as a JSON object; `vars` reads them without the
    deep copy of every measurement that `dataclasses.asdict` makes."""
    return format_json([vars(r) for r in reports])


def reports_to_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["theorem", "instance", "status", "assertions", "elapsed_s", "measurements", "failures"]
    )
    for r in reports:
        writer.writerow([
            r.theorem,
            ",".join(f"{k}={r.instance[k]}" for k in sorted(r.instance)),
            r.status,
            r.assertions,
            f"{r.elapsed_s:.6f}",
            json.dumps(r.measurements, sort_keys=True),
            " | ".join(r.failures),
        ])
    return buffer.getvalue()
