import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspectra import (
    ConvergenceError,
    NotPositiveDefiniteError,
    block_decomposition,
    block_path,
    block_starlike,
    build_graph,
    complete_graph,
    eig_sym,
    laplacian,
    path_graph,
    star_graph,
    vertex_perron_data,
)
from blockspectra import linalg, spectral
from blockspectra.linalg import cholesky_factor, cholesky_solve, perron_pair
from _util import clique_tree

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


def random_spd(n):
    m = RNG.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


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
        dec = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(dec.values, np.zeros(4))
        assert np.array_equal(dec.vectors, np.eye(4))

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
        lap = laplacian(block_path(2, 398))
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
        dec = eig_sym(random_symmetric(9))
        for j in range(9):
            col = dec.vectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

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

    def test_ql_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "QL_MAX_ITER", 0)
        with pytest.raises(ConvergenceError):
            eig_sym(laplacian(path_graph(5)))


class TestEigSymSelect:
    """eig_sym(m, select): the full spectrum, vectors for the chosen indices."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_clique_trees, weighted_clique_trees))
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
        dec = eig_sym(m, select=lambda values: range(len(values)))
        assert np.abs(dec.vectors - eig_sym(m).vectors).max() <= 1e-15

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

    def test_inverse_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "INVERSE_MAX_ITER", 0)
        lap = laplacian(path_graph(5))
        with pytest.raises(ConvergenceError, match="inverse iteration cap 0"):
            eig_sym(lap, select=lambda values: [1])
        assert eig_sym(lap).vectors.shape == (5, 5)  # the full decomposition takes no such step


def spd_solve(m, b):
    """Solve m x = b through the factor and solve pair power iteration uses."""
    return cholesky_solve(cholesky_factor(m), b)


class TestSpdSolve:
    def test_scalar(self):
        assert np.allclose(spd_solve(np.array([[2.0]]), np.array([4.0])), [2.0])

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(spd_solve(np.eye(3), b), b)

    def test_grounded_path_block(self):
        m = np.array([[1.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(spd_solve(m, np.ones(2)), [3.0, 2.0], atol=1e-12)

    def test_matches_reference_solver(self):
        for n in (2, 5, 17):
            m = random_spd(n)
            b = RNG.normal(size=n)
            x = spd_solve(m, b)
            assert np.allclose(x, np.linalg.solve(m, b), atol=1e-9)
            assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_solve(np.zeros((2, 2)), np.ones(2))


def bottlenecks(g, v):
    """(component, bottleneck matrix) for each component of g minus v, as the
    Perron route builds them from the graph's resistances."""
    dec = block_decomposition(g)
    res = spectral._resistances(g, dec)
    return [(c, spectral._bottleneck(res, c, v)) for c in dec.components_without(v)]


def submatrix(lap, comp):
    idx = [u - 1 for u in comp]
    return lap[np.ix_(idx, idx)]


class TestPerronOfInverse:
    """Perron pairs of bottleneck matrices, the inverses of the Laplacian
    submatrices of the components left by deleting a vertex."""

    def test_pendant_block(self):
        data = perron_pair(np.array([[1.0]]))
        assert data.value == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(data.vector, [1.0])
        assert data.iterations == 2
        assert data.residual == 0.0

    def test_two_vertex_block(self):
        ((comp, b),) = bottlenecks(path_graph(3), 3)
        assert comp == (1, 2)
        data = perron_pair(b)
        assert data.value == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-10)
        assert (data.vector > 0).all()
        assert data.vector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_residual_bounds_the_error(self):
        # for symmetric b and a unit vector x, some eigenvalue lies within
        # ||b x - theta x|| of theta (Parlett)
        data = perron_pair(np.array([[2.0, 1.0], [1.0, 1.0]]))
        exact = (3 + math.sqrt(5)) / 2
        assert data.iterations >= 2
        assert 0.0 < data.residual < 1e-6
        assert abs(data.value - exact) <= data.residual * data.value

    def test_eigen_equation_residual(self):
        g = block_path(4, 2)
        comp, b = bottlenecks(g, 4)[0]
        m = submatrix(laplacian(g), comp)
        data = perron_pair(b)
        # M^{-1} v = rho v  <=>  M v = v / rho
        assert np.linalg.norm(m @ data.vector - data.vector / data.value) <= 1e-10

    def test_chain_center_components_tie_at_reciprocal_lambda2(self):
        rhos = vertex_perron_data(block_path(4, 3), 7).values
        assert abs(rhos[0] - rhos[1]) <= 1e-9 * rhos[0]
        assert round(1.0 / rhos[0], 5) == 0.32938

    @settings(max_examples=40, deadline=None)
    @given(small_clique_trees, st.integers(0, 100))
    def test_matches_reciprocal_smallest_eigenvalue(self, g, pick):
        v = 1 + pick % g.n
        lap = laplacian(g)
        for comp, b in bottlenecks(g, v):
            data = perron_pair(b)
            smallest = eig_sym(submatrix(lap, comp)).values[0]
            assert abs(data.value - 1.0 / smallest) <= 1e-10
            assert (data.vector > 0).all()

    def test_iteration_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 1)
        monkeypatch.setattr(linalg, "POWER_RQ_TOL", 0.0)
        with pytest.raises(ConvergenceError):
            perron_pair(np.array([[2.0, 1.0], [1.0, 1.0]]))
