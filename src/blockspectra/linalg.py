"""Dense symmetric linear algebra, self-contained.

numpy supplies array storage and vector arithmetic only; the eigensolver
(Householder tridiagonalization, implicit QL for the eigenvalues, and
inverse iteration on the tridiagonal for the eigenvectors), the grounded
Laplacian inverse (GTH elimination, which never subtracts), and the
dominant-eigenpair iteration are implemented here.
Everything targets small dense matrices (desk scale: graph.build_graph
accepts at most DESK_SCALE_LIMIT = 400 vertices).

The Perron route reads `laplacian`; the structural route assembles the twin
quotient of the Laplacian itself (`spectral.spectral_summary`).  The two draw
on disjoint parts of this module: only the structural route calls
`eig_sym`.  The Perron route takes resistances from `grounded_inverse`, once
per distinct block, and reads them in `perron_pairs`: one batched power
iteration per request, over every component at once; no bottleneck matrix
is formed.

Conventions:
* matrices are exactly symmetric float64 arrays; `laplacian` constructs them
  that way and `eig_sym` rejects anything else;
* eigenvalues are returned ascending with orthonormal column eigenvectors,
  for every index or for the ones `eig_sym`'s `select` asks for;
* eigenvector signs are fixed so the largest-magnitude entry of each vector
  is positive (ties resolved to the lowest index), making output
  deterministic.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .graph import Graph

QL_DEFLATION_TOL = 2.0 ** -52  # machine epsilon of float64
QL_MAX_ITER = 30
INVERSE_MAX_ITER = 8  # inverse-iteration steps per selected eigenvector
POWER_RQ_TOL = 1e-13
POWER_MAX_ITER = 50_000


class ConvergenceError(RuntimeError):
    """A numerical breakdown: an iteration hit its cap or reached a
    non-finite value, a block pivot was not finite, or a Perron vector
    entry fell below 0 by more than rounding."""


class EigenDecomposition(NamedTuple):
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns, vectors[:, i] pairs values[i]


class PerronData(NamedTuple):
    value: float         # dominant eigenvalue
    iterations: int      # matrix-vector products taken


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian: degree sums on the diagonal, -w(u,v) off it."""
    lap = np.zeros((g.n, g.n))
    # edges are unique pairs, so no entry is written twice
    u, v = np.fromiter(itertools.chain(*g.edges), np.intp, 2 * g.m).reshape(-1, 2).T - 1
    lap[u, v] = lap[v, u] = -np.fromiter(g.weights, float, g.m)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def eig_sym(m: np.ndarray, select=None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: every eigenvalue, and the
    eigenvectors of those that `select` picks (of all of them if it is None).

    Householder reflections reduce the matrix to tridiagonal form T = Qᵀ m Q,
    one rank-2 update each; implicit Wilkinson-shift QL then finds the
    eigenvalues of T, on the values alone (EISPACK tred2/tql2 without
    accumulating Q; Golub & Van Loan, Matrix Computations, §8.3).  An
    off-diagonal entry of T is deflated once it is at most QL_DEFLATION_TOL
    times max |d_i| + |e_i| over the tridiagonal's diagonal d and
    off-diagonal e.  Raises ConvergenceError if one eigenvalue takes more
    than QL_MAX_ITER QL steps.  A column is skipped only when every entry
    below its subdiagonal is exactly 0, and `_norm` keeps its norm from
    underflowing to 0 or overflowing.

    `select(values)` maps the ascending eigenvalues to the indices whose
    vectors are wanted; each wanted vector of T comes from inverse iteration
    (`_tridiagonal_vectors`), and the stored reflectors carry it back to m
    (LAPACK dsterf, dstein, dormtr).  The result holds those columns only,
    in the order given.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    if n == 0:
        return EigenDecomposition(values=np.zeros(0), vectors=np.zeros((0, 0)))
    reflectors = []  # (k + 1, v): H = I - 2 v vᵀ acting on rows k + 1 onward
    for k in range(n - 2):
        x = a[k + 1:, k]
        tail = float(x[1:] @ x[1:])
        if tail == 0.0 and not x[1:].any():
            continue  # column k is already tridiagonal
        alpha = -math.copysign(_norm(x, x[0] * x[0] + tail), x[0])
        v = x.copy()
        v[0] -= alpha
        v /= _norm(v)
        a[k + 1, k] = alpha
        # H a H with H = I - 2 v vᵀ, as a - 2 (v wᵀ + w vᵀ) for w = p - (vᵀp) v, p = a v
        sub = a[k + 1:, k + 1:]
        p = sub @ v
        w = p - (v @ p) * v
        vw = v[:, None] * w
        sub -= 2.0 * (vw + vw.T)
        reflectors.append((k + 1, v))

    diag, off = a.diagonal().copy(), a.diagonal(-1).copy()  # T, kept for inverse iteration
    d = diag.tolist()
    e = off.tolist() + [0.0]  # e[i] couples d[i] and d[i + 1]
    if abs(d[-1]) < abs(d[0]):  # QL suits T larger at the bottom (LAPACK dsteqr)
        d, e = d[::-1], e[-2::-1] + [0.0]
    small = QL_DEFLATION_TOL * max((abs(di) + abs(ei) for di, ei in zip(d, e)), default=0.0)
    for l in range(n):
        steps = 0
        while True:
            end = next((j for j in range(l, n - 1) if abs(e[j]) <= small), n - 1)
            if end == l:
                break
            if steps == QL_MAX_ITER:
                raise ConvergenceError(
                    f"QL iteration cap {QL_MAX_ITER} reached for eigenvalue {l} "
                    f"(off-diagonal {e[l]:.3e})"
                )
            steps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[end] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(end - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: T splits at i + 1, so restart the step
                    d[i + 1] -= p
                    e[end] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[end] = 0.0

    order = np.argsort(d, kind="stable")
    values = np.array(d)[order]
    wanted = range(n) if select is None else select(values)
    rows = _tridiagonal_vectors(diag, off, values[list(wanted)]).T
    for k, v in reversed(reflectors):
        rows[:, k:] -= 2.0 * np.outer(rows[:, k:] @ v, v)
    lead = np.abs(rows).argmax(axis=1)
    rows[rows[np.arange(len(rows)), lead] < 0] *= -1.0
    return EigenDecomposition(values=values, vectors=rows.T)


def _tridiagonal_vectors(diag, off, lams):
    """Unit eigenvectors, as columns, of the symmetric tridiagonal T with
    diagonal `diag` and off-diagonal `off`, one for each eigenvalue in `lams`.

    Inverse iteration: each step solves (T - σI) y = x by Gaussian
    elimination with partial pivoting in O(n) (LAPACK dgttrf/dgttrs), with an
    exactly zero pivot taken as 2**-52 ‖T‖₁; it then orthogonalizes y against
    the vectors already found (classical Gram-Schmidt, twice) and normalizes
    it.  `_norm` takes the norm of each iterate and each residual, so that a
    norm past 1e154 cannot overflow and leave a zero "unit" vector behind,
    and one below 1e-154 cannot vanish.  Orthogonalizing is what separates
    the vectors of a multiple eigenvalue: an unreduced tridiagonal has
    simple eigenvalues only, so a multiple one comes with a split of T.
    The shift σ is λ, except that each repeat of a value moves it
    10 · 2**-52 ‖T‖₁ further (as LAPACK dstein does): with one shared
    shift, rounding can make one direction of the cluster grow far faster
    than the others, and Gram-Schmidt then leaves only noise.  Vector
    j starts from sin((j + 1) i), i = 1..n, so that no two starts are
    parallel, and stops once two successive iterates x have
    ‖(T - λI) x‖ ≤ 8n · 2**-52 ‖T‖₁.  The bound leaves room for the spread
    that rounding gives a multiple eigenvalue of T (16 · 2**-52 ‖T‖₁ for
    K_200), since any unit vector of its eigenspace will do; the second
    step shrinks what is left of the other eigenvectors by |σ - λ| / gap.
    Raises ConvergenceError after INVERSE_MAX_ITER steps.
    """
    n = len(diag)
    band = np.abs(diag)
    band[:-1] += np.abs(off)
    band[1:] += np.abs(off)
    tiny = 2.0 ** -52 * (float(band.max()) or 1.0)  # ‖T‖₁, or 1 when T = 0
    lower = off.tolist()
    found = np.empty((n, len(lams)))
    shift = math.inf
    for j, lam in enumerate(lams.tolist()):
        shift = lam if abs(lam - shift) > 10.0 * tiny else shift + 10.0 * tiny
        # (T - shift I) = P L U with L unit lower bidiagonal (multipliers
        # `mult`, row swaps `swap`) and U upper triangular, two superdiagonals
        u0 = [di - shift for di in diag.tolist()]
        u1 = lower + [0.0]
        u2 = [0.0] * n  # u1 and u2 end in zeros, so back substitution needs no special rows
        mult = [0.0] * n
        swap = [False] * n
        for i in range(n - 1):
            if abs(u0[i]) >= abs(lower[i]):
                if u0[i] == 0.0:
                    u0[i] = tiny
                f = lower[i] / u0[i]
                u0[i + 1] -= f * u1[i]
            else:
                f = u0[i] / lower[i]
                u0[i] = lower[i]
                u1[i], u0[i + 1] = u0[i + 1], u1[i] - f * u0[i + 1]
                u2[i] = u1[i + 1]
                u1[i + 1] *= -f
                swap[i] = True
            mult[i] = f
        if u0[-1] == 0.0:
            u0[-1] = tiny
        x = np.sin(np.arange(1.0, n + 1.0) * (j + 1))
        passed = False
        for _ in range(INVERSE_MAX_ITER):
            y = x.tolist() + [0.0, 0.0]
            for i in range(n - 1):
                if swap[i]:
                    y[i], y[i + 1] = y[i + 1], y[i] - mult[i] * y[i + 1]
                else:
                    y[i + 1] -= mult[i] * y[i]
            for i in range(n - 1, -1, -1):
                y[i] = (y[i] - u1[i] * y[i + 1] - u2[i] * y[i + 2]) / u0[i]
            x = np.array(y[:n])
            done = found[:, :j]
            x -= done @ (x @ done)
            x -= done @ (x @ done)  # a second pass undoes the cancellation of the first
            x /= _norm(x)
            r = (diag - lam) * x
            r[:-1] += off * x[1:]
            r[1:] += off * x[:-1]
            small = _norm(r) <= 8.0 * n * tiny
            if small and passed:
                break
            passed = small
        else:
            raise ConvergenceError(
                f"inverse iteration cap {INVERSE_MAX_ITER} reached for eigenvalue {lam!r}"
            )
        found[:, j] = x
    return found


def _norm(x: np.ndarray, squares: float | None = None) -> float:
    """The 2-norm of x, from its sum of squares (`squares`, or x @ x) while
    that lies in [2**-900, 2**900]: there a square lost below the normal
    range is far under its rounding, and none overflows.  Outside it the sum
    is taken again, of x scaled by the power of two at its largest entry,
    which is exact (LAPACK dlarfg and dstein rescale likewise)."""
    if squares is None:
        squares = float(x @ x)
    if 2.0 ** -900 <= squares <= 2.0 ** 900:
        return math.sqrt(squares)
    e = math.frexp(float(np.abs(x).max()))[1]
    y = np.ldexp(x, -e)
    return math.ldexp(math.sqrt(float(y @ y)), e)


def grounded_inverse(cond: np.ndarray) -> np.ndarray:
    """Inverse of a connected graph's Laplacian grounded at vertex 0, zero in
    row and column 0, from its conductances `cond` (the diagonal is unread).

    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) never
    subtracts: pivot p_k = e_k + Σ_{j>k} c_kj sums vertex k's conductances to
    the ground and to the vertices left, and eliminating k adds l_ik c_kj to
    c_ij and l_ik e_k to e_i, l_ik = c_ik / p_k.  The grounded Laplacian is
    then (I - L) D (I - L)ᵀ, inverted by forward and backward passes that add
    nonnegative terms only.  Raises ConvergenceError at a non-finite pivot.
    """
    m = len(cond) - 1
    a = cond[1:, [*range(1, m + 1), 0]]  # ground column last: p_k sums row k right of a[k, k]
    for k in range(m):
        a[k, k] = pivot = a[k, k + 1:].sum()
        if not math.isfinite(pivot):
            raise ConvergenceError(f"non-finite block pivot {float(pivot)!r} at vertex {k + 1}")
        a[k + 1:, k] /= pivot  # now l_ik
        a[k + 1:, k + 1:] += a[k + 1:, k, None] * a[k, k + 1:]
    inv = np.zeros((m + 1, m + 1))
    y = inv[1:, 1:]
    np.fill_diagonal(y, 1.0)
    for i in range(1, m):
        y[i] += a[i, :i] @ y[:i]
    y /= a.diagonal()[:, None]
    for k in range(m - 2, -1, -1):
        y[k] += a[k + 1:, k] @ y[k + 1:]
    return inv


def perron_pairs(res: np.ndarray, ground, support: np.ndarray) -> list[PerronData]:
    """Perron values of bottleneck matrices, from one batched power iteration
    over all of them; no bottleneck matrix is formed.

    `res` is the exactly symmetric n x n effective-resistance array of a
    graph (index i is vertex i + 1).  Item j is a component C of the graph
    minus the vertex of index ground[j], given by row j of the boolean
    items x n array `support`.  Its bottleneck matrix L[C]^-1 is the Green's
    function grounded at that vertex, (r_i + r_l - R_il) / 2 with r its row
    of `res`, so (B x)_i = (r_i sum(x) + r.x - (R x)_i) / 2 for i in C.
    `res` is scaled exactly by 2**-e, e midway between the exponents of its
    largest and least positive entry, and the values back by 2**e: the sums
    of squares stay in range while those entries lie under 1e300 apart.

    Each item's iterate is one row of an items x n block X that is zero off
    its C, so a step is one product X @ res plus row-wise updates.  Off C the
    formula is zero only up to rounding, and another component's larger
    Perron value would grow that noise, so every step masks each row to its
    C.  Each row starts from the constant vector on C (inside the positive
    cone, so the iteration converges to the Perron pair) and stops when its
    successive Rayleigh quotients differ by less than POWER_RQ_TOL times the
    latest one (so a tolerance of 0 never stops): Perron values grow with the
    component, so an absolute threshold would fall below one ulp on large
    components.  A row that stops leaves the block, so later steps cost
    less.  Raises ConvergenceError after POWER_MAX_ITER steps, naming the
    first item still running, or at the first step where some row's Rayleigh
    quotient is not finite (`res` overflowed), naming that item.  After the
    loop it raises for the first item whose Perron vector, B x at the step
    its row stopped scaled to sum 1, has an entry on C below -8 · 2**-52,
    more than rounding leaves (`res` is then no resistance array, some
    entry of B being negative).

    Returns one PerronData per item, in item order: its Perron value and the
    steps its row took.  No vector is kept.
    """
    tol, cap = POWER_RQ_TOL, POWER_MAX_ITER  # read at call time: tests patch them
    top, least = res.max(), np.min(res, where=res > 0, initial=math.inf)
    e = (math.frexp(float(top))[1] + math.frexp(float(least))[1]) // 2  # frexp(inf)[1] is 0
    res = np.ldexp(res, -e)
    support = np.asarray(support, dtype=bool)
    ground = np.asarray(ground, dtype=np.intp)
    items, n = support.shape
    sizes = support.sum(axis=1)
    fold = -0.5 * support  # y -> -y / 2 on each row's C, 0 off it
    at, rows = ground, np.arange(items)  # each row's ground; the row numbers
    ones = np.ones(n)
    x = support / np.sqrt(sizes)[:, None]
    live = np.arange(items)  # the item of each row of x
    value = np.full(items, math.inf)
    values, iterations = np.empty(items), np.empty(items, dtype=int)
    positive = np.empty(items, dtype=bool)
    step = 0
    while live.size:
        if step == cap:
            j = int(live[0])
            raise ConvergenceError(
                f"power iteration cap {cap} reached at cut vertex {ground[j] + 1} "
                f"for its component of {sizes[j]} vertices "
                f"(last value {math.ldexp(float(value[0]), e)!r})"
            )
        step += 1
        # x is 0 at its ground v; with -sum(x) put there, x @ res is
        # (R x)_i - r_i sum(x), and r.x at v itself (R_vv = 0)
        x[rows, at] = -np.dot(x, ones)
        y = x @ res
        y -= y[rows, at][:, None]
        y *= fold  # now B x, row by row, 0 at v
        rq = _row_dots(x, y)
        finite = np.isfinite(rq)
        if not finite.all():
            i = int(finite.argmin())
            j = int(live[i])
            raise ConvergenceError(
                f"power iteration reached a non-finite value {float(rq[i])!r} at step "
                f"{step} at cut vertex {ground[j] + 1} for its component of "
                f"{sizes[j]} vertices"
            )
        done = np.abs(rq - value) < tol * rq
        if done.any():
            out, bx = live[done], y[done]
            values[out] = rq[done]
            iterations[out] = step
            bx /= bx.sum(axis=1)[:, None]  # a negative sum flips the sign
            # rounding leaves a vanishing entry of a sum-1 vector a few ulps below 0
            positive[out] = ((bx > -8 * 2.0 ** -52) | ~support[out]).all(axis=1)
            keep = np.flatnonzero(~done)
            live, at, fold = live[keep], at[keep], fold[keep]
            y, rq = y[keep], rq[keep]
            rows = rows[:keep.size]
        value = rq
        y /= np.sqrt(_row_dots(y, y))[:, None]
        x = y
    if not positive.all():
        j = int(positive.argmin())
        raise ConvergenceError(
            f"dominant eigenvector of the component of {sizes[j]} vertices at cut "
            f"vertex {ground[j] + 1} is not strictly positive; the input is not a "
            "resistance array"
        )
    return [PerronData(value=val, iterations=it)
            for val, it in zip(np.ldexp(values, e).tolist(), iterations.tolist())]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b."""
    return np.einsum("ij,ij->i", a, b)
