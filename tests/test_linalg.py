import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockspectra import (
    ConvergenceError,
    block_decomposition,
    block_path,
    block_starlike,
    build_graph,
    classify_perron,
    coalesce,
    complete_graph,
    eig_sym,
    laplacian,
    path_graph,
    star_graph,
)
from blockspectra import linalg, spectral
from blockspectra.linalg import grounded_inverse, perron_pairs
from _util import clique_tree, components_without

RNG = np.random.default_rng(20240817)

small_clique_trees = st.builds(
    clique_tree,
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
    st.lists(st.integers(0, 100), min_size=2, max_size=2),
)
# at most 3 cliques of at most 4 vertices: 18 edges
weighted_clique_trees = st.builds(
    lambda g, ws: build_graph(g.n, g.edges, dict(zip(g.edges, ws))),
    small_clique_trees,
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=18, max_size=18),
)


def random_symmetric(n, scale=5.0):
    m = RNG.normal(size=(n, n)) * scale
    return m + m.T


def assert_sign_rule(vectors):
    """The largest-magnitude entry of each column is positive."""
    for col in vectors.T:
        assert col[int(np.argmax(np.abs(col)))] > 0


class TestLaplacian:
    def test_single_edge(self):
        assert np.array_equal(laplacian(complete_graph(2)), [[1, -1], [-1, 1]])

    def test_short_path(self):
        expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert np.array_equal(laplacian(path_graph(3)), expected)

    def test_weighted_entries(self):
        g = build_graph(3, [(1, 2), (2, 3)], {(1, 2): 2.0, (2, 3): 0.5})
        lap = laplacian(g)
        assert lap[0, 1] == -2.0
        assert lap[1, 1] == 2.5

    @pytest.mark.parametrize("g", [
        block_path(4, 3), star_graph(6), complete_graph(7),
        build_graph(4, [(1, 2), (2, 3), (3, 4)], {(1, 2): 0.3, (3, 4): 7.25}),
    ])
    def test_row_sums_vanish(self, g):
        assert np.abs(laplacian(g).sum(axis=1)).max() <= 1e-12

    def test_exactly_symmetric(self):
        lap = laplacian(block_path(5, 4))
        assert np.array_equal(lap, lap.T)

    @pytest.mark.parametrize("g", [
        build_graph(1, []), build_graph(3, []), complete_graph(2),
        clique_tree([3, 4, 2, 5], [2, 0, 7]), block_starlike(3, 5, [2, 1, 1]),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_an_edge_by_edge_build(self, g, seed):
        weights = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, g.m)
        g = build_graph(g.n, g.edges, dict(zip(g.edges, weights)))
        reference = np.zeros((g.n, g.n))
        for (u, v), w in zip(g.edges, g.weights):
            reference[u - 1, v - 1] = -w
            reference[v - 1, u - 1] = -w
        np.fill_diagonal(reference, -reference.sum(axis=1))
        lap = laplacian(g)
        assert lap.shape == reference.shape
        assert lap.tobytes() == reference.tobytes()


class TestEigSym:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_spectrum(self, n):
        values = eig_sym(laplacian(complete_graph(n))).values
        assert abs(values[0]) <= 1e-9
        assert np.abs(values[1:] - n).max() <= 1e-9

    def test_short_path_spectrum(self):
        values = eig_sym(laplacian(path_graph(3))).values
        assert np.allclose(values, [0.0, 1.0, 3.0], atol=1e-10)

    def test_zero_matrix(self):
        # any orthonormal basis will do; T = 0, so the first solve of inverse
        # iteration meets only zero pivots, and each is replaced
        dec = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(dec.values, np.zeros(4))
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(4)).max() <= 1e-15
        assert_sign_rule(dec.vectors)

    def test_empty_matrix(self):
        dec = eig_sym(np.zeros((0, 0)))
        assert dec.values.shape == (0,)
        assert dec.vectors.shape == (0, 0)

    def test_one_by_one(self):
        dec = eig_sym(np.array([[3.5]]))
        assert dec.values[0] == 3.5

    def test_reconstruction_and_orthonormality(self):
        for n in (2, 5, 12, 30):
            m = random_symmetric(n)
            dec = eig_sym(m)
            norm = np.linalg.norm(m)
            recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
            assert np.linalg.norm(m - recon) <= 1e-10 * norm
            gram = dec.vectors.T @ dec.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10

    def test_reconstruction_and_orthonormality_at_the_size_cap(self):
        # the star's and K_400's clusters of 398 and 399 vectors are the
        # largest that inverse iteration must separate
        for g in (block_path(2, 398), star_graph(399), complete_graph(400)):
            lap = laplacian(g)
            dec = eig_sym(lap)
            recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
            assert np.linalg.norm(lap - recon) <= 1e-10 * np.linalg.norm(lap)
            assert np.abs(dec.vectors.T @ dec.vectors - np.eye(400)).max() <= 1e-10

    def test_matches_reference_eigensolver(self):
        for n in (3, 6, 11, 25):
            m = random_symmetric(n)
            ours = eig_sym(m).values
            reference = np.linalg.eigvalsh(m)
            assert np.abs(ours - reference).max() <= 1e-9 * max(np.abs(reference).max(), 1.0)

    def test_eigenvalues_ascending(self):
        values = eig_sym(random_symmetric(15)).values
        assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("g", [
        path_graph(7), star_graph(5), block_path(4, 3), complete_graph(6),
    ])
    def test_connected_laplacian_kernel_is_constant_vector(self, g):
        dec = eig_sym(laplacian(g))
        assert abs(dec.values[0]) <= 1e-10
        expected = np.ones(g.n) / math.sqrt(g.n)
        assert np.abs(dec.vectors[:, 0] - expected).max() <= 1e-10

    def test_sign_convention(self):
        assert_sign_rule(eig_sym(random_symmetric(9)).vectors)

    def test_deterministic(self):
        m = random_symmetric(10)
        a = eig_sym(m)
        b = eig_sym(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.ones((2, 3)))

    @pytest.mark.parametrize("w", [1e-160, 1e-200, 1e-250, 1e160, 1e300])
    def test_column_norms_neither_underflow_nor_overflow(self, w):
        # a Householder column's squares summed to 0 below a uniform weight of
        # about 1e-160, and the column was taken as reduced (lambda2 of this
        # chain came out 1.499e-200 at w = 1e-200, not 3.294e-201); above
        # about 1e154 they summed to inf
        lap = laplacian(block_path(4, 3))
        reference = np.linalg.eigvalsh(lap)
        values = eig_sym(lap * w, select=lambda values: []).values
        assert np.abs(values / w - reference).max() <= 1e-14 * reference[-1]

    def test_ql_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "QL_MAX_ITER", 0)
        with pytest.raises(ConvergenceError):
            eig_sym(laplacian(path_graph(5)))


class TestEigSymSelect:
    """eig_sym(m, select): the full spectrum, vectors for the chosen indices."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_clique_trees, weighted_clique_trees))
    @example(block_path(4, 3))  # larger than either strategy draws
    def test_fiedler_cluster_matches_full_decomposition(self, g):
        lap = laplacian(g)
        values = eig_sym(lap).values
        dec = eig_sym(lap, select=spectral._fiedler_cluster)
        assert np.array_equal(dec.values, values)
        reference = np.linalg.eigh(lap)[1][:, spectral._fiedler_cluster(values)]
        projector = dec.vectors @ dec.vectors.T
        assert np.abs(projector - reference @ reference.T).max() <= 1e-12

    def test_double_eigenvalue_across_a_split(self):
        # lambda2 = 1 twice, on either side of a split of T that rounding
        # leaves at 3.6e-16; solving both vectors at the one shift 1.0 made the
        # second one noise (residual 0.24)
        g = clique_tree([2, 4, 2], [75, 6])
        lap = laplacian(g)
        dec = eig_sym(lap, select=spectral._fiedler_cluster)
        assert dec.vectors.shape == (6, 2)
        assert np.abs(lap @ dec.vectors - dec.vectors).max() <= 1e-14
        reference = np.linalg.eigh(lap)[1][:, 1:3]
        projector = dec.vectors @ dec.vectors.T
        assert np.abs(projector - reference @ reference.T).max() <= 1e-12

    def test_columns_follow_the_selection(self):
        m = random_symmetric(9)
        full = eig_sym(m)
        dec = eig_sym(m, select=lambda values: [3, 1, 7])
        assert np.abs(dec.vectors - full.vectors[:, [3, 1, 7]]).max() <= 1e-12

    @pytest.mark.parametrize("m", [np.zeros((0, 0)), np.array([[3.5]]), laplacian(path_graph(2))])
    def test_empty_selection(self, m):
        dec = eig_sym(m, select=lambda values: [])
        assert np.array_equal(dec.values, eig_sym(m).values)
        assert dec.vectors.shape == (m.shape[0], 0)

    @pytest.mark.parametrize("m", [np.array([[3.5]]), laplacian(path_graph(2))])
    def test_tiny_matrices(self, m):
        vectors = np.linalg.eigh(m)[1]
        lead = np.abs(vectors).argmax(axis=0)
        vectors *= np.sign(vectors[lead, np.arange(len(m))])
        assert np.abs(eig_sym(m).vectors - vectors).max() <= 1e-15

    def test_zero_matrix_pivots(self):
        # T = 0: the first solve meets only zero pivots, and each is replaced
        dec = eig_sym(np.zeros((4, 4)), select=lambda values: [0, 1, 2, 3])
        assert np.array_equal(dec.values, np.zeros(4))
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(4)).max() <= 1e-15

    def test_multiple_eigenvalue_at_the_size_cap(self):
        lap = laplacian(block_starlike(4, 6, [15] * 4))
        dec = eig_sym(lap, select=spectral._fiedler_cluster)
        assert dec.vectors.shape == (321, 3)
        residual = lap @ dec.vectors - dec.values[1] * dec.vectors
        assert np.abs(residual).max() <= 1e-14 * np.abs(lap).sum(axis=0).max()
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(3)).max() <= 1e-13

    def test_iterate_norms_cannot_overflow(self):
        # the twin quotient of block_path(4, 3) at uniform weight 1e-140, with
        # classes {1,2,3} {4} {5,6} {7} {8,9} {10} {11,12,13}: an iterate of
        # inverse iteration grew past 1e154, its squares summed to inf, and
        # normalizing it gave the zero vector, whose residual passed
        g = block_path(4, 3)
        label = np.array([0, 0, 0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 6])
        v = np.zeros((13, 7))
        v[np.arange(13), label] = 1.0 / np.sqrt(np.bincount(label)[label])
        q = v.T @ (laplacian(g) * 1e-140) @ v
        q = np.triu(q) + np.triu(q, 1).T
        dec = eig_sym(q, select=lambda values: [1])
        x = dec.vectors[:, 0]
        assert abs(x @ x - 1.0) <= 1e-15
        assert np.abs(q @ x - dec.values[1] * x).max() <= 1e-14 * dec.values[-1]
        assert dec.values[1] == pytest.approx(0.3293784923643793e-140, rel=1e-14)

    def test_inverse_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "INVERSE_MAX_ITER", 0)
        lap = laplacian(path_graph(5))
        with pytest.raises(ConvergenceError, match="inverse iteration cap 0"):
            eig_sym(lap, select=lambda values: [1])
        with pytest.raises(ConvergenceError, match="inverse iteration cap 0"):
            eig_sym(lap)  # every vector comes from inverse iteration


def random_conductances(n, span):
    """Symmetric conductances 10**U(-span, span) between every pair, zero
    diagonal: a complete block."""
    c = np.triu(10.0 ** RNG.uniform(-span, span, size=(n, n)), 1)
    return c + c.T


class TestGroundedInverse:
    def test_single_edge(self):
        assert np.array_equal(grounded_inverse(np.array([[0.0, 4.0], [4.0, 0.0]])),
                              [[0.0, 0.0], [0.0, 0.25]])

    @pytest.mark.parametrize("n,span", [(2, 0), (5, 0), (5, 2), (17, 2), (17, 4)])
    def test_matches_reference_inverse(self, n, span):
        cond = random_conductances(n, span)
        lap = np.diag(cond.sum(axis=1)) - cond
        inv = grounded_inverse(cond)
        assert not inv[0].any() and not inv[:, 0].any()
        ref = np.linalg.inv(lap[1:, 1:])
        assert np.abs(inv[1:, 1:] - ref).max() <= 1e-12 * 10.0 ** span * np.abs(ref).max()

    def test_diagonal_is_not_read(self):
        cond = random_conductances(6, 1)
        noisy = cond + np.diag(RNG.normal(size=6))
        assert np.array_equal(grounded_inverse(noisy), grounded_inverse(cond))

    def test_weak_ground_keeps_its_pivot(self):
        # the triangle joined to its ground by 1e-20 twice: a Cholesky pivot
        # of its grounded Laplacian, 1 + 1e-20 - 1 / (1 + 1e-20), rounds to
        # 0, while GTH's second pivot is the sum 1e-20 + 1e-20
        cond = np.array([[0.0, 1e-20, 1e-20], [1e-20, 0.0, 1.0], [1e-20, 1.0, 0.0]])
        assert np.allclose(grounded_inverse(cond)[1:, 1:], 5e19, rtol=1e-15, atol=0.0)


def perron_items(g, vertices):
    """(vertex, component, PerronData) for each component of g minus each
    of `vertices`, from one `perron_pairs` call, as the Perron route makes
    it."""
    dec = block_decomposition(g)
    items = [(v, c) for v in vertices for c in components_without(dec, v)]
    support = np.zeros((len(items), g.n), dtype=bool)
    for row, (_, c) in zip(support, items):
        row[[u - 1 for u in c]] = True
    pairs = perron_pairs(spectral._resistances(g, dec), [v - 1 for v, _ in items], support)
    return [(v, c, data) for (v, c), data in zip(items, pairs)]


def submatrix(lap, comp):
    idx = [u - 1 for u in comp]
    return lap[np.ix_(idx, idx)]


class TestPerronOfInverse:
    """Perron pairs of bottleneck matrices, the inverses of the Laplacian
    submatrices of the components left by deleting a vertex."""

    def test_pendant_block(self):
        # both components of the path 1-2-3 minus 2 are pendant vertices: [[1.0]]
        for _, _, data in perron_items(path_graph(3), [2]):
            assert data.value == pytest.approx(1.0, abs=1e-12)
            assert data.iterations == 2

    def test_two_vertex_block(self):
        # the inverse of L[{1, 2}] for the path 1-2-3 is [[2, 1], [1, 1]]
        ((_, comp, data),) = perron_items(path_graph(3), [3])
        assert comp == (1, 2)
        assert data.value == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-10)

    def test_chain_center_components_tie_at_reciprocal_lambda2(self):
        rhos = classify_perron(block_path(4, 3))[1][7].values
        assert abs(rhos[0] - rhos[1]) <= 1e-9 * rhos[0]
        assert round(1.0 / rhos[0], 5) == 0.32938

    @settings(max_examples=40, deadline=None)
    @given(small_clique_trees, st.integers(0, 100))
    def test_matches_reciprocal_smallest_eigenvalue(self, g, pick):
        v = 1 + pick % g.n
        lap = laplacian(g)
        for _, comp, data in perron_items(g, [v]):
            smallest = eig_sym(submatrix(lap, comp)).values[0]
            assert abs(data.value - 1.0 / smallest) <= 1e-10

    def test_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 1)
        monkeypatch.setattr(linalg, "POWER_RQ_TOL", 0.0)
        with pytest.raises(ConvergenceError):
            perron_items(path_graph(3), [3])


class TestPerronPairs:
    """One batched power iteration serves every (vertex, component) item."""

    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        lambda g, ws: build_graph(g.n, g.edges, dict(zip(g.edges, ws))),
        st.builds(clique_tree, st.lists(st.integers(2, 5), min_size=1, max_size=6),
                  st.lists(st.integers(0, 60), min_size=5, max_size=5)),
        # at most 6 cliques of at most 5 vertices: 60 edges
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e-3]), min_size=60, max_size=60),
    ))
    def test_every_item_matches_the_reference_eigensolver(self, g):
        lap = laplacian(g)
        for _, comp, data in perron_items(g, g.vertices()):
            m = submatrix(lap, comp)
            lam = np.linalg.eigvalsh(m)
            assert abs(data.value - 1.0 / lam[0]) <= 1e-9 * data.value

    def test_small_component_keeps_its_own_value(self):
        # vertex 1 of a 3-clique chain carries a 3-vertex path of weight 3
        # beside a component whose Perron value is over 100 times larger; the
        # path's iterate is zero on that component only up to rounding, so
        # without the mask its noise would take over
        chain = block_path(3, 20)
        g = coalesce(chain, 1, path_graph(4), 1)
        g = build_graph(g.n, g.edges, {e: 3.0 for e in g.edges if chain.n < e[1]})
        data = classify_perron(g)[1][1]
        assert data.components[1] == (g.n - 2, g.n - 1, g.n)
        assert data.values[0] >= 100 * data.values[1]
        # the path grounded at one end: L[C] = 3 tridiag(-1, 2, -1) with a
        # last diagonal entry of 1, smallest eigenvalue 12 sin^2(pi / 14)
        assert data.values[1] == pytest.approx(1 / (12 * math.sin(math.pi / 14) ** 2), rel=1e-14)

    def test_negative_bottleneck_entry_rejected(self):
        # R_12 = 10 > R_10 + R_02 = 3 breaks the triangle inequality, so the
        # matrix grounded at vertex 0 on {1, 2} is [[1, -3.5], [-3.5, 2]],
        # whose dominant eigenvector has both signs
        res = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 10.0], [2.0, 10.0, 0.0]])
        with pytest.raises(ConvergenceError, match="not strictly positive"):
            perron_pairs(res, [0], np.array([[False, True, True]]))

    def test_first_item_that_is_not_positive_is_named(self):
        # item 0, {0} grounded at 1, is [[R_01]] = [[1]]: positive; item 1 is
        # the matrix above, and the error names it, not the first item
        res = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 10.0], [2.0, 10.0, 0.0]])
        support = np.array([[True, False, False], [False, True, True]])
        with pytest.raises(ConvergenceError, match="component of 2 vertices at cut vertex 1 "
                           "is not strictly positive"):
            perron_pairs(res, [1, 0], support)

    def test_non_finite_value_fails_at_once(self):
        # 2 R_34 overflows in the second item's B x, while the first item
        # stays finite; on inf or nan the cap would take 50 000 steps.  R_12
        # sits below 2**-1024, so the scaling's midpoint exponent is 0 and R
        # is used as given
        tiny = 5e-309
        res = np.array([[0.0, tiny, 2.0, 3.0], [tiny, 0.0, 1.0, 2.0],
                        [2.0, 1.0, 0.0, 1e308], [3.0, 2.0, 1e308, 0.0]])
        support = np.array([[False, True, False, False], [False, False, False, True]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ConvergenceError, match="non-finite value inf at step 1 at "
                               "cut vertex 3 for its component of 1 vertices"):
                perron_pairs(res, [0, 2], support)

    def test_resistances_308_orders_apart(self):
        # R is scaled by the power of two midway between the exponents of
        # R_34 = 1e308 and R_12 = 1; unscaled, 2 R_34 overflowed at step 1
        res = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                        [2.0, 1.0, 0.0, 1e308], [3.0, 2.0, 1e308, 0.0]])
        support = np.array([[False, True, False, False], [False, False, False, True]])
        assert [pair.value for pair in perron_pairs(res, [0, 2], support)] == [1.0, 1e308]

    def test_cap_names_the_vertex_and_component(self, monkeypatch):
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 3)
        # the pendant {1} stops after two steps; the first item still running
        # is {3, 4, 5} at vertex 2
        with pytest.raises(ConvergenceError, match="cut vertex 2 for its component of 3 vertices"):
            perron_items(path_graph(5), [2, 3])
