import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockspectra
from blockspectra import (
    ClassificationError,
    ConvergenceError,
    block_decomposition,
    block_path,
    block_starlike,
    broom_tree,
    build_graph,
    center_label,
    classify_perron,
    classify_structural,
    coalesce,
    complete_graph,
    eig_sym,
    format_edge_list,
    laplacian,
    path_graph,
    spectral_summary,
    star_graph,
)
from blockspectra import spectral
from blockspectra.linalg import grounded_inverse, perron_pairs
from blockspectra.cli import main
from blockspectra.verify import IDENTITY_REL_TOL
from _util import (
    bottlenecks,
    clique_tree,
    delete_vertex_components,
    prufer_tree,
    random_weighted_clique_tree,
    reference_items,
    reference_resistances,
    reference_summary,
    reference_twin_labels,
)


class TestSpectralSummary:
    def test_complete_graph(self):
        s = spectral_summary(complete_graph(4))
        assert s.lambda2 == pytest.approx(4.0, abs=1e-10)
        assert s.multiplicity == 3
        assert s.connected

    def test_disconnected_flagged(self):
        s = spectral_summary(build_graph(4, [(1, 2), (3, 4)]))
        assert abs(s.lambda2) <= 1e-10
        assert not s.connected

    def test_chain_4_3(self):
        s = spectral_summary(block_path(4, 3))
        assert round(s.lambda2, 5) == 0.32938
        assert s.multiplicity == 1

    def test_lambda2_is_second_spectrum_entry(self):
        s = spectral_summary(block_path(3, 2))
        assert s.lambda2 == s.spectrum[1]

    def test_basis_orthogonal_to_ones_and_orthonormal(self):
        s = spectral_summary(block_starlike(3, 4, [1, 1, 1]))
        assert s.multiplicity == 2
        basis = s.fiedler_basis
        ones = np.ones(basis.shape[0])
        assert np.abs(ones @ basis).max() <= 1e-10
        assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-10

    def test_single_vertex(self):
        s = spectral_summary(build_graph(1, []))
        assert s.lambda2 == 0.0
        assert s.multiplicity == 0


class TestClassifyPerron:
    def test_odd_chain(self):
        c, _ = classify_perron(block_path(4, 3))
        assert c.verdict == "B"
        assert c.zero_vertex == 7
        assert len(c.perron_components) == 2
        assert c.predicted_multiplicity == 1

    def test_even_chain(self):
        c, _ = classify_perron(block_path(4, 2))
        assert c.verdict == "A"
        assert c.zero_vertex is None

    def test_equal_arm_starlike(self):
        c, _ = classify_perron(block_starlike(3, 4, [1, 1, 1]))
        assert c.verdict == "B"
        assert c.zero_vertex == 1
        assert len(c.perron_components) == 3
        assert c.predicted_multiplicity == 2

    def test_clique_rejected(self):
        with pytest.raises(ValueError, match="articulation"):
            classify_perron(complete_graph(4))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            classify_perron(build_graph(4, [(1, 2), (3, 4)]))

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tie_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tie_rel_tol must be finite and >= 0"):
            classify_perron(block_path(4, 3), tie_rel_tol=tol)

    def test_pathological_tie_tolerance_raises(self):
        # a tolerance of 100% ties every component at every cut vertex
        with pytest.raises(ClassificationError, match="tie"):
            classify_perron(block_path(4, 2), tie_rel_tol=1.0)

    def test_report_values_positive_and_maximizers_nonempty(self):
        _, by_vertex = classify_perron(block_path(3, 4))
        for v, data in by_vertex.items():
            assert all(val > 0 for val in data.values)
            assert data.maximizers
            assert data.components == tuple(delete_vertex_components(block_path(3, 4), v))

    def test_case_b_other_vertices_point_to_z(self):
        c, by_vertex = classify_perron(block_path(4, 3))
        z = c.zero_vertex
        for v, data in by_vertex.items():
            if v == z:
                continue
            assert len(data.maximizers) == 1
            assert z in data.components[data.maximizers[0]]


class TestClassifyStructural:
    def test_short_path_by_symmetry(self):
        (c,) = classify_structural(path_graph(3))
        assert c.verdict == "B"
        assert c.zero_vertex == 2

    def test_even_chain_mixed_middle_block(self):
        (c,) = classify_structural(block_path(4, 2))
        assert c.verdict == "A"
        assert c.mixed_block == (4, 5, 6, 7)

    def test_odd_chain_zero_at_center(self):
        for c in classify_structural(block_path(4, 3)):
            assert c.verdict == "B"
            assert c.zero_vertex == 7

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equal_arm_eigenspace(self, r, k, p):
        # lambda2 has multiplicity r - 1, so the basis columns are one choice
        # among many: compare the projector onto the eigenspace, not columns
        g = block_starlike(r, k, [p] * r)
        s = spectral_summary(g)
        assert s.multiplicity == r - 1
        reference = np.linalg.eigh(laplacian(g))[1][:, 1:r]
        projector = s.fiedler_basis @ s.fiedler_basis.T
        assert np.abs(projector - reference @ reference.T).max() <= 1e-10
        cs = classify_structural(g)
        assert [(c.verdict, c.zero_vertex) for c in cs] == [("B", 1)] * (r - 1)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_zero_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="zero_tol must be finite and >= 0"):
            classify_structural(block_path(4, 3), zero_tol=tol)

    def test_pathological_zero_tolerance_raises(self):
        # a threshold above max|y| blanks the vector: neither case matches
        with pytest.raises(ClassificationError):
            classify_structural(block_path(4, 3), zero_tol=10.0)

    # block_path(3, 2) has blocks (1, 2, 3), (3, 4, 5), (5, 6, 7) and cut
    # vertices 3 and 5; each vector reaches one outcome of the sign tests
    @pytest.mark.parametrize("y,message", [
        ((1, -1, .5, 1, -1, .5, .5), "blocks carry both signs"),
        ((1, -1, .5, .5, .5, 0, 0), "neither sign-pure"),
        ((-1, -1, 1, 1, .5, .5, .5), r"along \[3, 5\] are not monotone"),
        ((0, 1, 1, 1, 1, 1, 1), "zero vertex 1 is not a cut vertex"),
    ])
    def test_sign_pattern_rejected(self, monkeypatch, y, message):
        self._fix_fiedler_vector(monkeypatch, y)
        with pytest.raises(ClassificationError, match=message):
            classify_structural(block_path(3, 2))

    @pytest.mark.parametrize("y,expected", [
        ((-1, -1, .5, 1, 1, 1, 1), ("A", None, (1, 2, 3))),
        ((1, 1, 0, -1, -1, -1, -1), ("B", 3, None)),
    ])
    def test_sign_pattern_classified(self, monkeypatch, y, expected):
        self._fix_fiedler_vector(monkeypatch, y)
        (c,) = classify_structural(block_path(3, 2))
        assert (c.verdict, c.zero_vertex, c.mixed_block) == expected

    @staticmethod
    def _fix_fiedler_vector(monkeypatch, y):
        basis = np.array(y, dtype=float)[:, None]
        summary = spectral.SpectralSummary(
            lambda2=1.0, multiplicity=1, fiedler_basis=basis,
            spectrum=np.zeros(len(y)), connected=True,
        )
        monkeypatch.setattr(spectral, "spectral_summary", lambda g: summary)

    @pytest.mark.parametrize("k,p", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 4), (5, 3)])
    def test_agrees_with_perron_route(self, k, p):
        g = block_path(k, p)
        perron_c, _ = classify_perron(g)
        for structural_c in classify_structural(g):
            assert structural_c.verdict == perron_c.verdict
            assert structural_c.zero_vertex == perron_c.zero_vertex


class TestTreeType:
    """Trees are the block graphs whose blocks are single edges.  A Fiedler
    vector of kind 1 (a zero vertex adjacent to support, the characteristic
    vertex) is structural case B at that vertex; one of kind 2 (an edge whose
    ends have opposite signs, the characteristic edge) is case A with that
    edge as the mixed block."""

    def test_odd_path(self):
        (c,) = classify_structural(path_graph(3))
        assert (c.verdict, c.zero_vertex) == ("B", 2)

    def test_even_path(self):
        (c,) = classify_structural(path_graph(4))
        assert (c.verdict, c.mixed_block) == ("A", (2, 3))

    def test_broom(self):
        assert [c.verdict for c in classify_structural(broom_tree(3, 3))] == ["A"]

    def test_star_has_zero_hub(self):
        # lambda2 = 1 with multiplicity 3; every basis vector vanishes at the hub
        cs = classify_structural(star_graph(4))
        assert [(c.verdict, c.zero_vertex) for c in cs] == [("B", 1)] * 3

    @pytest.mark.parametrize("n", range(3, 10))
    def test_path_kind_follows_parity(self, n):
        # odd paths have a center vertex, even paths a center edge
        (c,) = classify_structural(path_graph(n))
        if n % 2 == 1:
            assert (c.verdict, c.zero_vertex) == ("B", (n + 1) // 2)
        else:
            assert (c.verdict, c.mixed_block) == ("A", (n // 2, n // 2 + 1))

    def test_single_edge_rejected(self):
        # the one tree without a cut vertex
        with pytest.raises(ValueError, match="articulation point"):
            classify_structural(path_graph(2))

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="articulation point"):
            classify_structural(build_graph(1, []))


def _sorted_tuples(values, length):
    combos = itertools.combinations_with_replacement(values, length)
    return sorted({tuple(sorted(c, reverse=True)) for c in combos}, reverse=True)


class TestClassifierAgreementGrid:
    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("k", [3, 4])
    def test_starlike_grid(self, r, k):
        for arms in _sorted_tuples(range(0, 4), r):
            g = block_starlike(r, k, list(arms))
            perron_c, _ = classify_perron(g)
            structural = classify_structural(g)
            for j, structural_c in enumerate(structural):
                assert structural_c.verdict == perron_c.verdict, (r, k, arms, j)
                assert structural_c.zero_vertex == perron_c.zero_vertex, (r, k, arms, j)


class TestSpectralBounds:
    @pytest.mark.parametrize("g", [
        block_path(3, 1), block_path(4, 2), block_path(2, 5),
        block_starlike(3, 3, [2, 1, 1]), star_graph(5),
    ])
    def test_lambda2_at_most_vertex_connectivity(self, g):
        # a cut vertex makes the vertex connectivity exactly 1
        assert block_decomposition(g).articulation_points
        assert spectral_summary(g).lambda2 <= 1.0 + 1e-10

    def test_multiplicity_matches_perron_count(self):
        for g in (block_path(3, 3), block_starlike(4, 3, [1, 1, 1, 1]), star_graph(3)):
            c, _ = classify_perron(g)
            assert c.verdict == "B"
            s = spectral_summary(g)
            assert s.multiplicity == len(c.perron_components) - 1


def _assert_routes_agree_on(g, expected):
    perron_c, _ = classify_perron(g)
    assert (perron_c.verdict, perron_c.zero_vertex) == expected
    for structural_c in classify_structural(g):
        assert (structural_c.verdict, structural_c.zero_vertex) == expected


class TestLargePerronValues:
    """Perron values grow with the component (and with 1/weight), so the
    power iteration must stop on a relative change in the Rayleigh quotient;
    an absolute threshold falls below one ulp and runs to the iteration cap."""

    @pytest.mark.parametrize("k,p", [(2, 40), (3, 40), (4, 31), (6, 39)])
    def test_parity_verdict_and_center(self, k, p):
        expected = ("B", center_label(k, p)) if p % 2 else ("A", None)
        _assert_routes_agree_on(block_path(k, p), expected)

    def test_small_weights(self):
        g = block_path(4, 3)
        light = build_graph(g.n, g.edges, {e: 1e-3 for e in g.edges})
        _assert_routes_agree_on(light, ("B", 7))


def test_perron_route_memory_at_the_cap():
    # the 400-vertex path has 796 (cut vertex, component) rows of 400 entries
    # each; a Perron vector kept per row would add an items x n array and its
    # copies, past the bound.  The cached decomposition is built untraced.
    g = path_graph(400)
    g.decomposition
    tracemalloc.start()
    try:
        classify_perron(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6


def test_routes_agree_where_two_paths_tie_beside_a_triangle():
    # at 3 the paths (1, 2) and (6, 7) tie above the triangle's (4, 5) and
    # the leaf 8; its Perron vectors are accurate only to about 1e-8
    g = build_graph(8, [(1, 2), (1, 3), (3, 4), (3, 5), (3, 6), (3, 8), (4, 5), (6, 7)])
    _assert_routes_agree_on(g, ("B", 3))


_SCALED_GRAPHS = {
    "block_path(4,3)": block_path(4, 3),
    "path_graph(3)": path_graph(3),
    "block_starlike(3,3,[2,1,1])": block_starlike(3, 3, [2, 1, 1]),
}


def _assert_fiedler_eigen_equation(g, s):
    """Every basis column y satisfies |L y - lambda2 y| <= IDENTITY_REL_TOL *
    |y| * the largest edge weight, a bound relative to the Laplacian's scale:
    `classify_structural` classifies this basis without checking it."""
    y = s.fiedler_basis
    residual = np.linalg.norm(laplacian(g) @ y - s.lambda2 * y, axis=0)
    assert (residual <= IDENTITY_REL_TOL * np.linalg.norm(y, axis=0) * max(g.weights)).all()


def _perron_steps(g):
    """The PerronData of every item the Perron route iterates on."""
    _, support, ground = g.decomposition.cut_components()
    return perron_pairs(spectral._resistances(g, g.decomposition), ground, support)


def _verdicts(g):
    s = spectral_summary(g)
    _assert_fiedler_eigen_equation(g, s)
    perron_c, _ = classify_perron(g)
    structural = [(c.verdict, c.zero_vertex) for c in classify_structural(g)]
    return s, ((perron_c.verdict, perron_c.zero_vertex), structural,
               perron_c.predicted_multiplicity, s.multiplicity, s.connected)


class TestScaleFree:
    """Scaling every edge weight by c scales the Laplacian by c, so no
    verdict, multiplicity or connectivity flag may change, and lambda2 / c
    must stay put; every tolerance of the structural route is relative."""

    @pytest.mark.parametrize("exponent", range(-300, 301, 20))
    def test_perron_route_at_every_uniform_weight(self, exponent):
        # the power iteration scales R exactly by a power of two near its
        # entries: unscaled, a row's sum of squares was subnormal at 1e160,
        # so the iteration ran to its 50 000-step cap, and overflowed to nan
        # at 1e-200
        g = block_path(4, 3)
        base = [pair.iterations for pair in _perron_steps(g)]
        scaled = build_graph(g.n, g.edges, {e: 10.0 ** exponent for e in g.edges})
        classification, _ = classify_perron(scaled)
        assert (classification.verdict, classification.zero_vertex) == ("B", 7)
        assert max(pair.iterations for pair in _perron_steps(scaled)) <= max(base) + 2

    def test_perron_route_on_weights_200_orders_apart(self):
        # the scale is midway between R's largest and least positive entry:
        # scaled by the largest alone, R_12 = 1e-100 would sit 200 orders
        # below 1, and its component's sum of squares would underflow to 0
        g = build_graph(3, [(1, 2), (2, 3)], {(1, 2): 1e100, (2, 3): 1e-100})
        _, by_vertex = classify_perron(g)
        assert by_vertex[2].values == pytest.approx((1e-100, 1e100), rel=1e-12)

    @pytest.mark.parametrize("exponent", range(-100, 101, 10))
    @pytest.mark.parametrize("name", sorted(_SCALED_GRAPHS))
    def test_uniform_weight_scale(self, name, exponent):
        g = _SCALED_GRAPHS[name]
        c = 10.0 ** exponent
        scaled = build_graph(g.n, g.edges, {e: c for e in g.edges})
        base, expected = _verdicts(g)
        s, found = _verdicts(scaled)
        assert found == expected
        assert s.lambda2 / c == pytest.approx(base.lambda2, rel=1e-9)


@pytest.mark.parametrize("s", [0, 2, 4, 8, 16])
def test_perron_route_answers_seeded_weighted_clique_trees(s):
    # weights 10**U(-s, s): the Perron route answers every tree, and up to
    # s = 8 the structural route agrees wherever it answers (past that its
    # sign test prints wrong verdicts, ROADMAP J)
    rng = random.Random(1000 + s)
    for _ in range(40):
        g = random_weighted_clique_tree(rng, s)
        perron_c, _ = classify_perron(g)
        if s > 8:
            continue
        try:
            structural = classify_structural(g)
        except (ClassificationError, ConvergenceError):
            continue
        for c in structural:
            assert (c.verdict, c.zero_vertex) == (perron_c.verdict, perron_c.zero_vertex)


def _outcomes(g, back):
    """Each route's outcome on g with every vertex x read as back[x]: the
    Perron route's verdict, zero vertex and tied components, and the set of
    (verdict, zero vertex, mixed block) over the structural route's Fiedler
    vectors.  A route that raises has the exception's type as outcome."""
    def read(vertices):
        return tuple(sorted(back[x] for x in vertices))

    try:
        c, _ = classify_perron(g)
        perron = (c.verdict, back.get(c.zero_vertex),
                  sorted(map(read, c.perron_components or ())))
    except (ClassificationError, ConvergenceError) as exc:
        perron = type(exc)
    try:
        structural = {(c.verdict, back.get(c.zero_vertex), read(c.mixed_block or ()))
                      for c in classify_structural(g)}
    except (ClassificationError, ConvergenceError) as exc:
        structural = type(exc)
    return perron, structural


@pytest.mark.parametrize("s", [0, 2, 4, 8])
def test_outcomes_survive_relabeling_and_power_of_two_scaling(s):
    # ROADMAP Q: a verdict belongs to the weighted graph, not to its labels
    # or to a scaling of every weight by 2**k that stays in the exponent
    # range.  The structural route's numerics follow the vertex order, so
    # until ROADMAP J one labeling may raise where another gives a verdict;
    # two labelings must never give two different verdicts.
    trees, perms = random.Random(1000 + s), random.Random(7)
    for _ in range(40):
        g = random_weighted_clique_tree(trees, s)
        identity = {x: x for x in g.vertices()}
        perron, structural = _outcomes(g, identity)
        for k in (200, -200):
            scaled = build_graph(g.n, g.edges, {
                e: math.ldexp(w, k) for e, w in zip(g.edges, g.weights)})
            assert _outcomes(scaled, identity) == (perron, structural)
        structurals = [structural]
        for _ in range(3):
            new = dict(zip(g.vertices(), perms.sample(range(1, g.n + 1), g.n)))
            relabeled = build_graph(g.n, [(new[u], new[v]) for u, v in g.edges], {
                (new[u], new[v]): w for (u, v), w in zip(g.edges, g.weights)})
            moved_perron, moved = _outcomes(relabeled, {y: x for x, y in new.items()})
            assert moved_perron == perron
            structurals.append(moved)
        assert len({frozenset(o) for o in structurals if isinstance(o, set)}) <= 1


@st.composite
def weighted_clique_trees(draw):
    """Random clique trees, half of them with random positive edge weights."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=6))
    attach = draw(st.lists(st.integers(0, 60), min_size=len(sizes) - 1,
                           max_size=len(sizes) - 1))
    g = clique_tree(sizes, attach)
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(1e-2, 1e2), min_size=g.m, max_size=g.m))
        g = build_graph(g.n, g.edges, dict(zip(g.edges, weights)))
    return g


class TestBottleneckMatrices:
    """The Perron route builds each bottleneck matrix from effective
    resistances; numpy's inverse of the Laplacian submatrix is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_clique_trees())
    def test_match_inverse_of_laplacian_submatrix(self, g):
        _assert_fiedler_eigen_equation(g, spectral_summary(g))
        dec = block_decomposition(g)
        res = spectral._resistances(g, dec)
        lap = laplacian(g)
        pinv = np.linalg.pinv(lap)
        d = pinv.diagonal()
        oracle = d[:, None] + d[None, :] - 2 * pinv
        assert np.array_equal(res, res.T)
        assert np.abs(res - oracle).max() <= 1e-10 * np.abs(oracle).max()
        for v, comps in zip(dec.articulation_points, dec.cut_components()[0]):
            assert comps == tuple(delete_vertex_components(g, v))
            for comp, b in bottlenecks(g, v):
                idx = [u - 1 for u in comp]
                inverse = np.linalg.inv(lap[np.ix_(idx, idx)])
                assert np.array_equal(b, b.T)
                assert np.abs(b - inverse).max() <= 1e-10 * np.abs(inverse).max()

    @pytest.mark.parametrize("s", [2, 3, 4, 7])
    def test_unit_clique_resistance_is_two_over_size(self, s):
        g = complete_graph(s)
        res = spectral._resistances(g, block_decomposition(g))
        off = ~np.eye(s, dtype=bool)
        assert np.allclose(res[off], 2.0 / s, rtol=1e-14, atol=0.0)
        assert not res.diagonal().any()


class TestDistinctBlockSolves:
    """`_resistances` inverts each distinct grounded block Laplacian once per
    call."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 5), min_size=2, max_size=8),
        st.lists(st.integers(0, 60), min_size=7, max_size=7),
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=80, max_size=80),
    )
    def test_shared_solves_match_the_pseudoinverse(self, sizes, attach, weights):
        # few weights and sizes, so equal blocks, weighted ones included, recur
        g = clique_tree(sizes, attach)
        g = build_graph(g.n, g.edges, dict(zip(g.edges, weights)))
        dec = block_decomposition(g)
        res = spectral._resistances(g, dec)
        pinv = np.linalg.pinv(laplacian(g))
        d = pinv.diagonal()
        oracle = d[:, None] + d[None, :] - 2 * pinv
        assert np.abs(res - oracle).max() <= 1e-12 * np.abs(oracle).max()
        for block in dec.blocks:
            # within a block, R is exactly a fresh solve of the block's own
            # Laplacian, grounded at its first vertex
            s = len(block)
            cond = np.zeros((s, s))
            for (u, v), w in zip(g.edges, g.weights):
                if u in block and v in block:
                    i, j = block.index(u), block.index(v)
                    cond[i, j] = cond[j, i] = w
            green = grounded_inverse(cond)
            d = green.diagonal()
            fresh = (d[:, None] + d) - (green + green.T)
            idx = np.array(block) - 1
            assert np.array_equal(res[np.ix_(idx, idx)], fresh)

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(cond, _original=spectral.grounded_inverse):
            calls.append(cond.shape)
            return _original(cond)

        monkeypatch.setattr(spectral, "grounded_inverse", counted)
        return calls

    def test_equal_blocks_factor_once(self, solves):
        classify_perron(block_path(4, 20))
        assert solves == [(4, 4)]

    def test_one_reweighted_block_factors_twice(self, solves):
        g = block_path(4, 20)
        # block 6 spans labels 16..19; its weights double, the other 20 stay 1
        heavy = {(u, v): 2.0 for u, v in g.edges if 16 <= u and v <= 19}
        assert len(heavy) == 6
        classify_perron(build_graph(g.n, g.edges, heavy))
        assert solves == [(4, 4), (4, 4)]


def _case_a_starlike():
    # three arms, p1 > p2 and p2 + p3 + 1 >= p1: the starlike case-A profiles
    triples = [(p1, p2, p3) for p1 in range(1, 6) for p2 in range(p1)
               for p3 in range(p2 + 1) if p2 + p3 + 1 >= p1]
    return [block_starlike(3, k, list(arms)) for k in range(2, 7) for arms in triples]


def _weighted_trees(s, count=40):
    rng = random.Random(1000 + s)
    return [random_weighted_clique_tree(rng, s) for _ in range(count)]


def _cap_instances():
    rng = random.Random(1)
    return [
        block_path(2, 398), block_path(3, 198), block_path(20, 20),
        block_starlike(4, 6, [15] * 4),
        prufer_tree(400, [rng.randrange(1, 401) for _ in range(398)]),
        star_graph(399), block_starlike(199, 2, [1] * 199),
    ]


_DIFFERENTIAL = {
    "block_path": lambda: [block_path(k, p) for k in range(2, 7) for p in range(1, 26)],
    "starlike_a": _case_a_starlike,
    **{f"trees_s{s}": (lambda s=s: _weighted_trees(s)) for s in (0, 4, 8, 16)},
    "cap": _cap_instances,
}


class TestPlacementOrderAssembly:
    """R assembled in placement order, every cut vertex's components listed
    in one pass, and the Perron values read from them are bit for bit the
    block-by-block references in _util: same entries, same items, same
    rows, so the same floats at every step."""

    @pytest.mark.parametrize("family", sorted(_DIFFERENTIAL))
    def test_matches_the_references_bit_for_bit(self, family):
        for g in _DIFFERENTIAL[family]():
            dec = g.decomposition
            res, ref = spectral._resistances(g, dec), reference_resistances(g, dec)
            # a Fortran-ordered R or support would take another BLAS path
            assert res.flags.c_contiguous and res.tobytes() == ref.tobytes()
            components, support, ground = dec.cut_components()
            ref_components, ref_support, ref_ground = reference_items(g, dec)
            assert components == ref_components
            assert support.flags.c_contiguous and support.dtype == bool
            assert support.shape == ref_support.shape
            assert support.tobytes() == ref_support.tobytes()
            assert ground.tolist() == ref_ground.tolist()
            _, by_vertex = classify_perron(g)
            reported = [val for v in dec.articulation_points for val in by_vertex[v].values]
            assert reported == [pair.value for pair in perron_pairs(ref, ref_ground, ref_support)]


class TestRouteIsolation:
    """One eigendecomposition per request; the Perron route never calls the
    eigensolver and the structural route never computes Perron values."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"eig_sym": 0, "grounded_inverse": 0, "perron_pairs": 0, "perron_rows": 0}

        def counted_eig(*args, _original=spectral.eig_sym, **kwargs):
            counts["eig_sym"] += 1
            return _original(*args, **kwargs)

        def counted_perron(res, ground, support, _original=spectral.perron_pairs):
            counts["perron_pairs"] += 1
            counts["perron_rows"] += len(support)
            return _original(res, ground, support)

        def counted_solve(cond, _original=spectral.grounded_inverse):
            counts["grounded_inverse"] += 1
            return _original(cond)

        monkeypatch.setattr(spectral, "eig_sym", counted_eig)
        monkeypatch.setattr(spectral, "grounded_inverse", counted_solve)
        monkeypatch.setattr(spectral, "perron_pairs", counted_perron)
        return counts

    def test_classify_both_runs_one_eigendecomposition(self, calls, tmp_path, capsys):
        path = tmp_path / "starlike.edges"
        path.write_text(format_edge_list(block_starlike(3, 4, [1, 1, 1])))
        assert main(["classify", str(path), "--method", "both"]) == 0
        capsys.readouterr()
        assert calls["eig_sym"] == 1
        assert calls["perron_pairs"] == 1

    def test_perron_route_never_calls_eigensolver(self, calls):
        # one batched power iteration for every component of every cut vertex
        classify_perron(block_starlike(3, 4, [1, 1, 1]))
        assert calls["eig_sym"] == 0
        assert calls["grounded_inverse"] == 1  # six unit K4 blocks, one solve
        assert calls["perron_pairs"] == 1
        # hub 1 leaves 3 arms; each of the 3 other cut vertices leaves 2 parts
        assert calls["perron_rows"] == 9

    def test_equal_blocks_share_one_solve_whatever_their_entry(self, calls):
        # the unit K2 {1, 3} is entered through 1, its first vertex, and the
        # unit K2 {2, 3} through 3, its second
        classify_perron(build_graph(3, [(1, 3), (2, 3)]))
        assert calls["grounded_inverse"] == 1

    def test_structural_route_never_computes_perron_values(self, calls):
        classify_structural(block_starlike(3, 4, [1, 1, 1]))
        assert calls["perron_pairs"] == 0
        assert calls["grounded_inverse"] == 0
        assert calls["eig_sym"] == 1

    def test_coalesced_chain_runs_one_power_iteration_for_every_component(self, calls):
        # the fresh K4 at the chain's center is a third, untied component
        # there; cut vertices 4 and 10 leave two parts each, and one batched
        # call iterates on all seven
        g = coalesce(block_path(4, 3), 7, complete_graph(4), 1)
        _, by_vertex = classify_perron(g)
        assert len(by_vertex[7].maximizers) == 2
        # every block is a unit K4, so one grounded inverse serves them all
        assert calls == {"eig_sym": 0, "grounded_inverse": 1, "perron_pairs": 1, "perron_rows": 7}

    @pytest.mark.parametrize("argv", [
        ["classify", "{graph}", "--method", "both"],
        ["verify", "--theorem", "kirkland", "-k", "6", "-p", "9"],
    ])
    def test_components_come_from_the_block_decomposition(
        self, argv, monkeypatch, tmp_path, capsys,
    ):
        # one block decomposition per request, cached on the graph: the
        # CLI's block-graph check, both classifiers and the kirkland checks
        # all take their cut vertices and components from it
        path = tmp_path / "chain.edges"
        path.write_text(format_edge_list(block_path(4, 3)))
        calls = []

        def counted(g, _original=block_decomposition):
            calls.append(g)
            return _original(g)

        for module in (blockspectra.blocks, spectral, blockspectra.verify, blockspectra.cli):
            if getattr(module, "block_decomposition", None) is block_decomposition:
                monkeypatch.setattr(module, "block_decomposition", counted)
        assert main([a.format(graph=path) for a in argv]) == 0
        capsys.readouterr()
        assert len(calls) == 1


def _quotient_matches_unreduced(g):
    """spectral_summary(g) against eig_sym on all of L, with the same lambda2
    cluster: the same sign-test outcome for each vector, and the same
    spectrum and eigenspace up to rounding."""
    s = spectral_summary(g)
    dec = eig_sym(laplacian(g), select=spectral._fiedler_cluster)

    def outcomes(basis):
        return [spectral._classify_vector(g, g.decomposition, y, spectral.ZERO_REL_TOL)
                for y in basis.T]

    assert outcomes(s.fiedler_basis) == outcomes(dec.vectors)
    assert s.multiplicity == dec.vectors.shape[1]
    scale = float(dec.values[-1])
    assert abs(s.lambda2 - dec.values[1]) <= 1e-14 * scale
    assert np.abs(s.spectrum - dec.values).max() <= 1e-14 * scale
    projector = s.fiedler_basis @ s.fiedler_basis.T
    assert np.abs(projector - dec.vectors @ dec.vectors.T).max() <= 1e-12


class TestTwinQuotient:
    """`spectral_summary` solves the twin quotient VᵀLV and merges in the twin
    eigenvalues; `eig_sym` on all of L is the reference."""

    @pytest.fixture
    def eig_rows(self, monkeypatch):
        rows = []

        def counted(m, *args, _original=spectral.eig_sym, **kwargs):
            rows.append(len(m))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(spectral, "eig_sym", counted)
        return rows

    @pytest.mark.parametrize("k", range(2, 7))
    def test_parity_grid(self, k):
        for p in range(1, 42):
            _quotient_matches_unreduced(block_path(k, p))

    def test_equal_arms(self):
        for r, k, p in itertools.product(range(3, 7), range(2, 5), range(1, 4)):
            _quotient_matches_unreduced(block_starlike(r, k, [p] * r))

    def test_unit_weight_clique_trees(self):
        rng = random.Random(1000)
        for _ in range(300):
            _quotient_matches_unreduced(random_weighted_clique_tree(rng, 0))

    def test_twin_free_graph_is_solved_bit_for_bit(self, eig_rows):
        # random weights leave no two twins equal: V is the identity, and the
        # quotient is laplacian(g) itself
        rng = random.Random(1004)
        for _ in range(20):
            g = random_weighted_clique_tree(rng, 4)
            s = spectral_summary(g)
            assert eig_rows.pop() == g.n
            dec = eig_sym(laplacian(g), select=spectral._fiedler_cluster)
            assert np.array_equal(s.spectrum, dec.values)
            assert np.array_equal(s.fiedler_basis, dec.vectors)

    def test_chain_quotient_size(self, eig_rows):
        # classes {1,2,3} {4} {5,6} {7} {8,9} {10} {11,12,13}
        s = spectral_summary(block_path(4, 3))
        assert eig_rows == [7]
        assert round(s.lambda2, 5) == 0.32938
        assert list(s.spectrum).count(4.0) == 6  # (3 - 1) + (2 - 1) * 2 + (3 - 1) twin copies

    @pytest.mark.parametrize("edge, rows", [
        ((1, 2), 9),  # between two twins of the first block
        ((1, 4), 9),  # from a twin to the block's cut vertex
        ((4, 5), 8),  # from the cut vertex 4 to a twin of the second block
        ((4, 7), 7),  # between two cut vertices: every class stands
    ])
    def test_one_unequal_weight_forms_no_class(self, eig_rows, edge, rows):
        g = block_path(4, 3)
        g = build_graph(g.n, g.edges, {edge: 2.0})
        s = spectral_summary(g)
        assert eig_rows == [rows]
        reference = np.linalg.eigh(laplacian(g))
        assert abs(s.lambda2 - reference[0][1]) <= 1e-14 * reference[0][-1]
        projector = reference[1][:, 1:2] @ reference[1][:, 1:2].T
        assert np.abs(s.fiedler_basis @ s.fiedler_basis.T - projector).max() <= 1e-12

    def test_leaves_group_by_weight(self, eig_rows):
        # the hub, leaves 2..4 at weight 1, leaves 5 and 6 at weight 3
        g = build_graph(6, [(1, v) for v in range(2, 7)], {(1, 5): 3.0, (1, 6): 3.0})
        s = spectral_summary(g)
        assert eig_rows == [3]
        reference = np.linalg.eigvalsh(laplacian(g))
        assert np.abs(s.spectrum - reference).max() <= 1e-14 * reference[-1]
        assert s.multiplicity == 2  # lambda2 = 1, leaves 2..4's twin eigenvalue

    def test_star_basis_is_helmert(self, eig_rows):
        g = star_graph(399)
        s = spectral_summary(g)
        assert eig_rows == [2]
        assert s.multiplicity == 398
        reference = np.linalg.eigh(laplacian(g))[1][:, 1:399]
        projector = s.fiedler_basis @ s.fiedler_basis.T
        assert np.abs(projector - reference @ reference.T).max() <= 1e-12
        # vector r is (1, ..., 1, -r) / sqrt(r (r + 1)) on leaves 2..r + 2,
        # negated so that its largest entry is positive
        r = 3
        expected = np.zeros(400)
        expected[1:r + 1] = -1.0
        expected[r + 1] = r
        assert np.abs(s.fiedler_basis[:, r - 1] - expected / math.sqrt(r * (r + 1))).max() <= 1e-16

    def test_complete_graph_is_one_class(self, eig_rows):
        s = spectral_summary(complete_graph(6))
        assert eig_rows == [1]
        assert s.spectrum.tolist() == [0.0] + [6.0] * 5
        assert np.abs(s.fiedler_basis.T @ s.fiedler_basis - np.eye(5)).max() <= 1e-15

    def test_disconnected_graph_has_no_classes(self, eig_rows):
        # a forest of two stars: every class is a singleton
        spectral_summary(build_graph(7, [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7)]))
        assert eig_rows == [7]

    def test_classify_both_solves_the_quotient_once(self, eig_rows, tmp_path, capsys):
        path = tmp_path / "starlike.edges"
        path.write_text(format_edge_list(block_starlike(3, 4, [1, 1, 1])))
        assert main(["classify", str(path), "--method", "both"]) == 0
        capsys.readouterr()
        assert eig_rows == [10]  # 19 vertices


_TWIN_FAMILIES = {
    "parity_grid": lambda: [block_path(k, p) for k in range(2, 7) for p in range(1, 42)],
    "equal_arms": lambda: [block_starlike(r, k, [p] * r) for r, k, p in
                           itertools.product(range(3, 7), range(2, 5), range(1, 4))],
    "unit_trees": lambda: _weighted_trees(0, 300),
    "leaves_by_weight": lambda: [
        build_graph(6, [(1, v) for v in range(2, 7)], {(1, 5): 3.0, (1, 6): 3.0})],
    "star": lambda: [star_graph(399)],
    # hubs 1 and 2 bound by weight 1e10, two unit leaves each: lambda2 = 1 - 1e-10
    # from the quotient shares its cluster with both leaf classes' twin copies
    "two_classes_in_one_cluster": lambda: [
        build_graph(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)], {(1, 2): 1e10})],
    "complete": lambda: [complete_graph(6)],
    "twin_free_trees": lambda: _weighted_trees(4, 20),
}


class TestTwinClassList:
    """The class list of `_twin_classes` gives the labels, the twin copies
    and the Helmert columns of the index-array lift kept in _util, bit for
    bit.  `array_equal` takes -0.0 for 0.0, so the signs are compared too;
    a Helmert column swapped between two classes spans the same eigenspace
    and passes every projector test, but not this one."""

    @pytest.mark.parametrize("family", sorted(_TWIN_FAMILIES))
    def test_lift_matches_the_reference_bit_for_bit(self, family):
        for g in _TWIN_FAMILIES[family]():
            s = spectral_summary(g)
            spectrum, basis = reference_summary(g)
            assert np.array_equal(s.spectrum, spectrum)
            assert np.array_equal(np.signbit(s.spectrum), np.signbit(spectrum))
            assert np.array_equal(s.fiedler_basis, basis)
            assert np.array_equal(np.signbit(s.fiedler_basis), np.signbit(basis))

    @pytest.mark.parametrize("family", sorted(_TWIN_FAMILIES))
    def test_classes_are_the_reference_labels(self, family):
        for g in _TWIN_FAMILIES[family]():
            label, value = reference_twin_labels(g)
            sizes = np.bincount(label)
            expected = [(np.flatnonzero(label == t).tolist(), value[t])
                        for t in np.flatnonzero(sizes > 1)]
            classes = spectral._twin_classes(g)
            assert [(m.tolist(), v) for m, v in classes] == expected
            assert all(m.dtype.kind == "i" for m, _ in classes)
