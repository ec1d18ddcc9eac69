"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line, ACCEPTANCE <nn> <name>: PASS/FAIL, so a verbose
run doubles as the acceptance report.
"""

import itertools
import time

import numpy as np
import pytest

from blockspectra import (
    block_path,
    block_starlike,
    center,
    center_label,
    check_kirkland_identities,
    check_starlike_case_a,
    check_starlike_equal_arms,
    check_twins_lemma,
    classify_perron,
    classify_structural,
    coalesce,
    complete_graph,
    eig_sym,
    laplacian,
    path_graph,
    spectral_summary,
    star_graph,
    broom_tree,
    build_graph,
)
from _util import clique_tree, delete_vertex_components, prufer_tree

PARITY_GRID = [(k, p) for k in range(2, 7) for p in range(1, 9)]

CASE_A_TRIPLES = [
    (p1, p2, p3)
    for p1 in range(0, 5)
    for p2 in range(0, p1 + 1)
    for p3 in range(0, p2 + 1)
    if p2 + p3 + 1 >= p1 and p1 > p2
]
CASE_A_GRID = [(k, arms) for k in (3, 4) for arms in CASE_A_TRIPLES]

EQUAL_ARM_GRID = [
    (r, k, p) for r in (2, 3, 4) for k in (2, 3, 4) for p in (0, 1, 2)
]


def _conclude(number, name, failures, detail=""):
    ok = not failures
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(failures)


def test_c01_center_coalescence_reference_value():
    started = time.perf_counter()
    g = block_path(4, 3)
    merged = coalesce(g, 7, complete_graph(4), 1)
    lam = spectral_summary(g).lambda2
    lam_merged = spectral_summary(merged).lambda2
    elapsed = time.perf_counter() - started
    failures = []
    for label, value in (("chain", lam), ("coalesced", lam_merged)):
        if abs(value - 0.32938) > 5e-6:
            failures.append(f"lambda2({label}) = {value!r} vs 0.32938")
    if abs(lam - lam_merged) > 5e-6:
        failures.append(f"lambda2 mismatch {lam!r} vs {lam_merged!r}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _conclude(1, "reference value 0.32938 reproduced", failures,
              f"(lambda2={lam:.6f}, elapsed {elapsed*1e3:.0f} ms)")


def test_c02_complete_graph_spectrum():
    failures = []
    for n in range(2, 13):
        lam = spectral_summary(complete_graph(n)).lambda2
        if abs(lam - n) > 1e-9:
            failures.append(f"lambda2(K_{n}) = {lam!r}")
    _conclude(2, "complete graphs have lambda2 = n", failures, "(n = 2..12)")


def test_c03_parity_sweep():
    started = time.perf_counter()
    failures = []
    for k, p in PARITY_GRID:
        classification, _ = classify_perron(block_path(k, p))
        expected = "B" if p % 2 == 1 else "A"
        if classification.verdict != expected:
            failures.append(f"(k={k},p={p}): verdict {classification.verdict}")
        elif expected == "B" and classification.zero_vertex != center_label(k, p):
            failures.append(
                f"(k={k},p={p}): z = {classification.zero_vertex}, "
                f"expected {center_label(k, p)}"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _conclude(3, "odd chains are case B at their center", failures,
              f"({len(PARITY_GRID)} instances, {elapsed:.2f}s)")


def test_c04_twin_constancy_suite():
    failures = []
    evaluated = 0
    vacuous = 0
    reports = [
        (f"chain (k={k},p={p})", check_twins_lemma(block_path(k, p)))
        for k, p in PARITY_GRID
    ]
    reports += [
        (f"starlike (k={k},arms={arms})",
         check_twins_lemma(block_starlike(3, k, list(arms))))
        for k, arms in CASE_A_GRID
    ]
    for label, report in reports:
        if report.assertions == 0:
            vacuous += 1  # k = 2 chains are twin-free; nothing to evaluate
            continue
        evaluated += 1
        if report.status != "pass":
            failures.append(f"{label}: {report.failures[:1]}")
    if evaluated == 0:
        failures.append("no instance had a twin class to evaluate")
    _conclude(4, "eigenvectors constant on true-twin classes", failures,
              f"({evaluated} instances evaluated, {vacuous} twin-free)")


def test_c05_perron_component_identities():
    failures = []
    count = 0
    for k, p in PARITY_GRID:
        if p % 2 == 0:
            continue
        report = check_kirkland_identities(block_path(k, p))
        count += 1
        if report.status != "pass":
            failures.append(f"chain (k={k},p={p}): {report.failures[:1]}")
    for r, k, p in EQUAL_ARM_GRID:
        report = check_kirkland_identities(block_starlike(r, k, [p] * r))
        count += 1
        if report.status != "pass":
            failures.append(f"starlike (r={r},k={k},p={p}): {report.failures[:1]}")
    _conclude(5, "reciprocal Perron value, multiplicity, and zero-support identities",
              failures, f"({count} case-B instances)")


def test_c06_starlike_case_a_grid():
    failures = []
    for k, arms in CASE_A_GRID:
        report = check_starlike_case_a(3, k, list(arms))
        if report.status != "pass":
            failures.append(f"(k={k},arms={arms}): {report.status} {report.failures[:1]}")
    _conclude(6, "dominant-arm condition forces case A", failures,
              f"({len(CASE_A_GRID)} instances)")


def test_c07_equal_arm_grid():
    failures = []
    for r, k, p in EQUAL_ARM_GRID:
        report = check_starlike_equal_arms(r, k, p)
        if report.status != "pass":
            failures.append(f"(r={r},k={k},p={p}): {report.failures[:1]}")
    _conclude(7, "equal arms give case B at the hub with multiplicity r-1",
              failures, f"({len(EQUAL_ARM_GRID)} instances)")


def test_c08_dual_classifier_agreement():
    failures = []
    graphs = [("chain", k, p, block_path(k, p)) for k, p in PARITY_GRID]
    graphs += [
        ("starlike", k, arms, block_starlike(3, k, list(arms)))
        for k, arms in CASE_A_GRID
    ]
    graphs += [
        ("equal-arms", k, (r, p), block_starlike(r, k, [p] * r))
        for r, k, p in EQUAL_ARM_GRID
    ]
    disagreements = 0
    for label, k, params, g in graphs:
        perron_result, _ = classify_perron(g)
        structurals = classify_structural(g)
        for j, structural in enumerate(structurals):
            if (structural.verdict, structural.zero_vertex) != (
                perron_result.verdict, perron_result.zero_vertex
            ):
                disagreements += 1
                failures.append(
                    f"{label} k={k} {params} vector {j}: "
                    f"{structural.verdict}@{structural.zero_vertex} vs "
                    f"{perron_result.verdict}@{perron_result.zero_vertex}"
                )
    _conclude(8, "structural and Perron classifiers agree", failures,
              f"({len(graphs)} instances, {disagreements} disagreements)")


def _micro_scale_block_graphs():
    """Connected block graphs on <= 7 vertices with a cut vertex: every
    labeled tree on 3..5 vertices plus clique chains and mixed clique glues."""
    graphs = []
    for n in (3, 4, 5):
        for seq in itertools.product(range(1, n + 1), repeat=n - 2):
            graphs.append(prufer_tree(n, list(seq)))
    graphs += [block_path(2, p) for p in range(1, 6)]
    graphs += [block_path(3, 1), block_path(3, 2), block_path(4, 1)]
    graphs += [
        clique_tree([2, 4], [0]),
        clique_tree([3, 3], [1]),
        clique_tree([4, 3], [2]),
        clique_tree([2, 2, 4], [0, 1]),
        clique_tree([3, 2, 3], [1, 3]),
        clique_tree([2, 3, 3], [1, 2]),
    ]
    return [g for g in graphs if g.n <= 7]


def test_c09_power_iteration_matches_eigensolver():
    instances = 0
    checks = 0
    worst = 0.0
    failures = []
    for g in _micro_scale_block_graphs():
        lap = laplacian(g)
        _, by_vertex = classify_perron(g)
        had_cut = False
        for v in g.vertices():
            comps = delete_vertex_components(g, v)
            if len(comps) < 2:
                continue
            had_cut = True
            data = by_vertex[v]
            if data.components != tuple(comps):
                failures.append(f"n={g.n} v={v}: components {data.components} != {comps}")
                continue
            for comp, rho in zip(data.components, data.values):
                idx = [u - 1 for u in comp]
                smallest = float(eig_sym(lap[np.ix_(idx, idx)]).values[0])
                gap = abs(rho - 1.0 / smallest)
                worst = max(worst, gap)
                checks += 1
                if gap > 1e-10:
                    failures.append(f"n={g.n} v={v}: |rho - 1/min| = {gap!r}")
        if had_cut:
            instances += 1
    if instances < 50:
        failures.append(f"only {instances} instances enumerated, need >= 50")
    _conclude(9, "power iteration matches the eigensolver on bottleneck matrices",
              failures, f"({instances} graphs, {checks} matrices, worst gap {worst:.2e})")


def _hygiene_matrices():
    graphs = [complete_graph(n) for n in range(2, 13)]
    graphs += [path_graph(n) for n in (10, 25, 40, 60)]
    graphs += [star_graph(59), broom_tree(30, 30)]
    graphs += [block_path(4, 3), block_path(6, 8), block_path(3, 10), block_path(2, 29)]
    graphs += [block_starlike(4, 4, [3, 3, 3, 3]), block_starlike(3, 5, [2, 2, 1])]
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = 60
        seq = [int(rng.integers(1, n + 1)) for _ in range(n - 2)]
        graphs.append(prufer_tree(n, seq))
    # one weighted instance to exercise non-unit weights
    weighted = build_graph(
        5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        {(1, 2): 0.25, (3, 4): 4.0},
    )
    graphs.append(weighted)
    return [laplacian(g) for g in graphs]


def test_c10_eigensolver_hygiene():
    failures = []
    count = 0
    worst_recon = 0.0
    worst_orth = 0.0
    for lap in _hygiene_matrices():
        n = lap.shape[0]
        assert n <= 60
        dec = eig_sym(lap)
        norm = float(np.linalg.norm(lap))
        recon = float(np.linalg.norm(lap - dec.vectors @ np.diag(dec.values) @ dec.vectors.T))
        orth = float(np.abs(dec.vectors.T @ dec.vectors - np.eye(n)).max())
        worst_recon = max(worst_recon, recon / norm)
        worst_orth = max(worst_orth, orth)
        count += 1
        if recon > 1e-10 * norm:
            failures.append(f"n={n}: reconstruction {recon / norm!r}")
        if orth > 1e-10:
            failures.append(f"n={n}: orthonormality {orth!r}")
    _conclude(10, "eigensolver reconstruction and orthonormality", failures,
              f"({count} matrices, worst recon {worst_recon:.2e}, worst orth {worst_orth:.2e})")
