"""Known defects, one test per witness, each asserting the right outcome.

A pair of (route, input) that fails today is marked xfail(strict=True) with
a reason naming the ROADMAP item that would fix it.  A fix makes its test
pass, and the strict marker then fails the suite, so the fixing change
removes the marker.  Every other pair passes today and guards the fix from
coming undone.
"""

import io
import json
import math
import random

import pytest

from blockspectra import block_path, build_graph, format_edge_list, spectral
from blockspectra.cli import main
from _util import random_weighted_clique_tree


def _classify(capsys, monkeypatch, text, method):
    """`classify - --method method` on text: the exit code, the stderr lines
    and, on exit 0, one (verdict, zero vertex, mixed block) per Fiedler
    vector through the structural route, one through the Perron route."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["classify", "-", "--method", method])
    out, err = capsys.readouterr()
    if code:
        return code, err.splitlines(), None
    doc = json.loads(out)["classification"][method]
    found = doc["per_vector"] if method == "structural" else [doc]
    return code, err.splitlines(), [
        (c["verdict"], c.get("zero_vertex"), c.get("mixed_block")) for c in found]


def _xfail(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


def _tree(s, index):
    """Tree `index`, counted from 0, of the stress family at span s."""
    rng = random.Random(1000 + s)
    for _ in range(index):
        random_weighted_clique_tree(rng, s)
    return random_weighted_clique_tree(rng, s)


# case A with mixed block (1, 2, 3, 4): numpy's eigh and the structural route
# agree.  At cut vertex 1 the two largest Perron values, 10000.19 and
# 10000.50, are 3e-5 apart relative, and the power iteration, whose
# convergence rate is their ratio, stops at its 50 000-step cap.
_CLOSE_PERRON_VALUES = "7 9\n1 2 3\n1 3\n1 4\n2 3\n2 4\n3 4\n2 5 1e-4\n3 6 1e-4\n1 7\n"


@pytest.mark.parametrize("method", [
    "structural",
    pytest.param("perron", marks=_xfail(
        "ROADMAP B: two Perron values 3e-5 apart take the power "
        "iteration past its cap, exit 3")),
])
def test_close_perron_values_at_a_cut_vertex(capsys, monkeypatch, method):
    code, _, outcomes = _classify(capsys, monkeypatch, _CLOSE_PERRON_VALUES, method)
    assert code == 0
    assert outcomes == [("A", None, [1, 2, 3, 4] if method == "structural" else None)]


# the path 1-2-3-4-5 with its two end edges of weight w is case B at 3 for
# every w > 0 (its mirror symmetry fixes 3); the Fiedler vector's entries at
# 2 and 4 shrink with w
@pytest.mark.parametrize("method, w", [
    *(pytest.param("structural", w, marks=_xfail(
        "ROADMAP J: the entries at 2 and 4 fall inside the zero tolerance, "
        "so the zero vertex is not unique, exit 2"))
      for w in ("1e-8", "1e-10", "1e-12", "1e-16", "1e-50")),
    ("perron", "1e-8"),
    *(pytest.param("perron", w, marks=_xfail(
        "ROADMAP B: the Perron values at 2 and 4 tie within the tie "
        "tolerance as well as those at 3, exit 2"))
      for w in ("1e-10", "1e-12", "1e-16", "1e-50")),
])
def test_path_with_two_weak_end_edges(capsys, monkeypatch, method, w):
    text = f"5 4\n1 2 {w}\n2 3\n3 4\n4 5 {w}\n"
    code, _, outcomes = _classify(capsys, monkeypatch, text, method)
    assert code == 0
    assert {(verdict, z) for verdict, z, _ in outcomes} == {("B", 3)}


# every weight of block_path(4, 3) equal: the unit-weight verdict, case B at 7
@pytest.mark.parametrize("method, w", [
    ("structural", 1e-200),
    ("structural", 1e300),
    ("perron", 1e-200),
    ("perron", 1e300),
])
def test_block_path_at_uniform_extreme_weight(capsys, monkeypatch, method, w):
    g = block_path(4, 3)
    text = format_edge_list(build_graph(g.n, g.edges, {e: w for e in g.edges}))
    code, _, outcomes = _classify(capsys, monkeypatch, text, method)
    assert code == 0
    assert {(verdict, z) for verdict, z, _ in outcomes} == {("B", 7)}


@pytest.mark.parametrize("method", [
    pytest.param("structural", marks=_xfail(
        "ROADMAP J: inverse iteration meets its cap, exit 3")),
    pytest.param("perron", marks=_xfail(
        "ROADMAP J: the power iteration reaches nan, exit 3")),
])
def test_weights_at_both_ends_of_the_exponent_range(capsys, monkeypatch, method):
    # case A with mixed block (2, 3); once the weights are scaled exactly by
    # the largest one, 1e-308 underflows, and refusing the edge is right too
    code, err, outcomes = _classify(
        capsys, monkeypatch, "3 2\n1 2 1e308\n2 3 1e-308\n", method)
    if code == 1:
        assert len(err) == 1 and "(2,3)" in err[0]
    else:
        assert code == 0
        assert outcomes == [("A", None, [2, 3] if method == "structural" else None)]


def _case_a_or_exit_3(code, err, outcomes, method, mixed_block=None):
    if code == 3:
        assert len(err) == 1
    else:
        assert code == 0
        assert {verdict for verdict, _, _ in outcomes} == {"A"}
        if mixed_block and method == "structural":
            assert {tuple(m) for _, _, m in outcomes} == {mixed_block}


@pytest.mark.parametrize("method", [
    pytest.param("structural", marks=_xfail(
        "ROADMAP J: lambda2 = 3.4e-12 beside |L| = 1.3e16 is rounding, and "
        "the sign test prints case B at 2 with exit 0")),
    "perron",
])
def test_stress_tree_286_at_span_16(capsys, monkeypatch, method):
    # 7 vertices; the Fiedler vector makes it case A with mixed block (2, 4)
    text = format_edge_list(_tree(16, 286))
    code, err, outcomes = _classify(capsys, monkeypatch, text, method)
    _case_a_or_exit_3(code, err, outcomes, method, mixed_block=(2, 4))


# two weights 1e300 apart, each case A; the Perron route answers both.  mpmath
# at 700 digits: the first has lambda2 = 1.5e-300 and y ~ (-0.816, 0.408,
# 0.408), mixed block (1, 2); the second lambda2 = 0.7192 and y ~ (-0.726,
# -0.204, 0.465, 0.465), mixed block (2, 3).  Beside eps |L| either lambda2
# is rounding, which the structural route should report with exit 3.
@pytest.mark.parametrize("method", [
    pytest.param("structural", marks=_xfail(
        "ROADMAP J: lambda2 = 1.5e-300 is below the rounding of the zero "
        "eigenvalue, and rounding exits 3 only once J lands; today exit 2, "
        "the zero vertex not unique: candidates []")),
    "perron",
])
def test_weak_edge_1e300_times_below_the_other(capsys, monkeypatch, method):
    code, err, outcomes = _classify(capsys, monkeypatch, "3 2\n1 2 1e-300\n2 3\n", method)
    _case_a_or_exit_3(code, err, outcomes, method, mixed_block=(1, 2))


@pytest.mark.parametrize("method", [
    pytest.param("structural", marks=_xfail(
        "ROADMAP J: lambda2 = 0.72 beside |L| = 2e300 is rounding, and "
        "rounding exits 3 only once J lands; today exit 2, block (2, 3) "
        "neither sign-pure nor all-zero")),
    "perron",
])
def test_strong_edge_1e300_times_above_the_others(capsys, monkeypatch, method):
    text = "4 3\n1 2\n2 3\n3 4 1e300\n"
    code, err, outcomes = _classify(capsys, monkeypatch, text, method)
    _case_a_or_exit_3(code, err, outcomes, method, mixed_block=(2, 3))


@pytest.mark.parametrize("index", [40, 65])
@pytest.mark.parametrize("method", ["structural", "perron"])
def test_stress_tree_at_span_4_scaled_by_two_to_the_500(capsys, monkeypatch, method, index):
    # case A unscaled through both routes; scaling every weight by a power of
    # two leaves the verdict alone
    g = _tree(4, index)
    text = format_edge_list(build_graph(
        g.n, g.edges, {e: math.ldexp(w, 500) for e, w in zip(g.edges, g.weights)}))
    code, err, outcomes = _classify(capsys, monkeypatch, text, method)
    _case_a_or_exit_3(code, err, outcomes, method)


@_xfail("ROADMAP L: R inside a block is formed by a subtraction that "
        "cancels, and R_23 comes out 0")
def test_resistance_inside_a_weakly_grounded_triangle():
    # edge 2-3 of weight 1 in parallel with the path 2-1-3 of resistance 2e20
    g = build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)], {(1, 2): 1e-20, (1, 3): 1e-20})
    res = spectral._resistances(g, g.decomposition)
    assert res[1, 2] == pytest.approx(1 / (1 + 5e-21), rel=1e-12)
