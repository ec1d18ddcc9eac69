"""Dense symmetric linear algebra, self-contained.

numpy supplies array storage and vector arithmetic only; the eigensolver
(cyclic Jacobi), the SPD factorization (Cholesky), and the dominant-eigenpair
iteration are implemented here.  Everything targets small dense matrices
(desk scale, n <= a few hundred).

The two classifiers draw on disjoint parts of this module: the structural
route on `laplacian` and `eig_sym`, the Perron route on the Cholesky pair
(which solves each block's grounded Laplacian for its resistances) and on
`perron_pair`, which iterates with the bottleneck matrices built from them.

Conventions:
* matrices are exactly symmetric float64 arrays; `laplacian` constructs them
  that way and `eig_sym` rejects anything else;
* eigenvalues are returned ascending with orthonormal column eigenvectors;
* eigenvector signs are fixed so the largest-magnitude entry of each vector
  is positive (ties resolved to the lowest index), making output
  deterministic.
"""

import math
from typing import NamedTuple

import numpy as np

from .graph import Graph

JACOBI_OFF_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
POWER_RQ_TOL = 1e-13
POWER_MAX_ITER = 50_000


class ConvergenceError(RuntimeError):
    """An iteration cap was hit before the convergence test was met."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization found a non-positive pivot."""


class EigenDecomposition(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] pairs values[i]


class PerronData(NamedTuple):
    value: float         # dominant eigenvalue
    vector: np.ndarray   # strictly positive, entries summing to 1
    iterations: int      # matrix-vector products taken
    residual: float      # ||b x - value x|| / value for the last unit iterate x


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian: degree sums on the diagonal, -w(u,v) off it."""
    lap = np.zeros((g.n, g.n))
    for (u, v), w in zip(g.edges, g.weights):
        lap[u - 1, v - 1] = -w
        lap[v - 1, u - 1] = -w
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def eig_sym(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    Sweeps row-cyclically over the strict upper triangle, rotating away each
    off-diagonal entry, until the off-diagonal Frobenius mass drops below
    JACOBI_OFF_REL_TOL times the Frobenius norm of the input.  Raises
    ConvergenceError if JACOBI_MAX_SWEEPS sweeps do not get there.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    vecs = np.eye(n)
    if n == 1:
        return EigenDecomposition(values=a.diagonal().copy(), vectors=vecs)

    norm = float(np.linalg.norm(a))
    off_target = JACOBI_OFF_REL_TOL * norm
    off_diagonal = ~np.eye(n, dtype=bool)
    sweeps = 0
    while True:
        # summed directly off the diagonal; norm(a)^2 - norm(diag)^2 would
        # cancel catastrophically once the matrix is nearly diagonal
        off = float(np.linalg.norm(a[off_diagonal]))
        if off <= off_target:
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"jacobi sweep limit {JACOBI_MAX_SWEEPS} reached (off-diagonal mass {off:.3e})"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) * 1e12 < abs(diff):
                    t = apq / diff  # small-angle limit; avoids overflow in theta
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = vecs[:, p].copy()
                vec_q = vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q

    order = np.argsort(a.diagonal(), kind="stable")
    values = a.diagonal()[order].copy()
    vecs = vecs[:, order]
    for j in range(n):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return EigenDecomposition(values=values, vectors=vecs)


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m; raises NotPositiveDefiniteError."""
    n = m.shape[0]
    lower = np.zeros_like(m, dtype=float)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not (pivot > 0.0) or not math.isfinite(pivot):
            raise NotPositiveDefiniteError(
                f"non-positive pivot {pivot!r} at column {j}; matrix is not SPD"
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def cholesky_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the Cholesky factor L; b is a vector or a
    matrix whose columns are solved together."""
    n = lower.shape[0]
    y = np.array(b, dtype=float)
    for i in range(n):
        y[i] = (y[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = y
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x


def perron_pair(b: np.ndarray) -> PerronData:
    """Dominant eigenpair of a symmetric, entrywise positive matrix b.

    Power iteration takes one product b @ x per step, starting from the
    all-ones vector (inside the positive cone, so the iteration converges to
    the Perron pair).  Convergence is declared when successive Rayleigh
    quotients differ by at most POWER_RQ_TOL times the latest one: Perron
    values grow with the component, so an absolute threshold would fall below
    one ulp on large components.  Raises ConvergenceError after POWER_MAX_ITER
    steps.  The returned vector is normalized to sum 1.
    """
    n = b.shape[0]
    x = np.ones(n) / math.sqrt(n)
    value = math.inf
    for step in range(1, POWER_MAX_ITER + 1):
        y = b @ x
        rq = float(x @ y)
        converged = abs(rq - value) <= POWER_RQ_TOL * rq
        value, last = rq, x
        x = y / math.sqrt(y @ y)  # what np.linalg.norm computes, without its overhead
        if converged:
            break
    else:
        raise ConvergenceError(
            f"power iteration cap {POWER_MAX_ITER} reached (last value {value!r})"
        )
    residual = float(np.linalg.norm(y - value * last)) / value
    total = float(x.sum())
    if total < 0:
        x = -x
        total = -total
    vector = x / total
    if not (vector > 0).all():
        raise ArithmeticError(
            "computed dominant eigenvector is not strictly positive; "
            "input is not a bottleneck-type matrix"
        )
    return PerronData(value=value, vector=vector, iterations=step, residual=residual)
