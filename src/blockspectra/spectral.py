"""Algebraic connectivity, Fiedler eigenspace, and the two case classifiers.

A connected graph with a cut vertex falls into exactly one of two regimes
with respect to any Fiedler vector:

* case A: a single block carries both positive and negative values, every
  other block is sign-pure, and cut-vertex values grow monotonically along
  chains of blocks leading away from the mixed block;
* case B: no block mixes signs, and a unique zero-valued cut vertex z
  separates all sign changes.

`classify_structural` tests those sign conditions directly on each column of
the Fiedler basis `spectral_summary` computes.  Twins split the Laplacian
exactly, so `eig_sym` runs on the twin quotient VᵀLV alone, assembled from
the edge list, and the basis is lifted back.  `classify_perron` decides the same dichotomy
through an independent route: for each cut vertex it compares the dominant
eigenvalues of the inverses of the component submatrices (their "Perron
values"); two or more tied maximizers at some vertex means case B at that
vertex.  It returns the verdict with a dict from each cut vertex to its
`VertexPerronData`: the components, their Perron values, the maximizers and
the tie margin.

The Perron route reads only the Laplacian's entries and the block-cut tree,
which `Graph.decomposition` builds and roots once per graph.  It lists the
components of g minus every cut vertex in one pass over that tree
(`BlockDecomposition.cut_components`); the structural route walks the
tree and lists none.  The inverses are bottleneck matrices, Green's functions
grounded at the cut vertex: (L[C]^-1)_ij = (R_iv + R_jv - R_ij) / 2, where R
is effective resistance (Klein & Randic 1993).  Resistance adds up across cut
vertices, so R comes from one pass over the rooted tree in placement order,
solving the grounded Laplacian of each distinct block once by subtraction-free
GTH elimination (`linalg.grounded_inverse`).  One batched power iteration per
request (`linalg.perron_pairs`), on R scaled exactly by a power of two, finds
each (cut vertex, component) item's Perron value, forming no bottleneck matrix.
The Perron route reads `laplacian(g)` and the structural route its twin
quotient; the structural route alone calls the eigensolver, so the two
classifiers share no numerical machinery, which is the point: each one
cross-checks the other.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockDecomposition
from .graph import Graph, is_connected
from .linalg import eig_sym, grounded_inverse, laplacian, perron_pairs

ZERO_REL_TOL = 1e-7
TIE_REL_TOL = 1e-9
MULTIPLICITY_REL_TOL = 1e-8


class ClassificationError(RuntimeError):
    """Sign pattern or tie structure matches neither expected case."""


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    lambda2: float
    multiplicity: int
    fiedler_basis: np.ndarray  # columns span the lambda2 eigenspace
    spectrum: np.ndarray       # ascending
    connected: bool


@dataclass(frozen=True)
class VertexPerronData:
    """Perron values of the components left by deleting one cut vertex."""

    components: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]
    maximizers: tuple[int, ...]      # indices into components
    tie_margin: float | None         # relative gap to the best non-maximizer


@dataclass(frozen=True)
class CaseClassification:
    verdict: str                                        # "A" or "B"
    zero_vertex: int | None = None                      # case B
    perron_components: tuple[tuple[int, ...], ...] | None = None  # case B
    predicted_multiplicity: int | None = None           # case B: m - 1
    mixed_block: tuple[int, ...] | None = None          # case A, structural route


def spectral_summary(g: Graph) -> SpectralSummary:
    """Second-smallest Laplacian eigenvalue with its eigenspace basis.

    Every eigenvalue is computed, but eigenvectors only for the lambda2
    cluster: the eigenvalues within MULTIPLICITY_REL_TOL (relative) of the
    second-smallest one (`_fiedler_cluster`), whose count is the
    multiplicity.  A disconnected graph is flagged rather than rejected;
    `connected` comes from the graph itself (`graph.is_connected`), not from
    lambda2, which rounding can make tiny on a connected graph.

    Twins split L exactly (equitable partitions: Godsil & Royle, Algebraic
    Graph Theory, 9.3).  Let V hold the indicators of the twin classes, each
    scaled by 1/sqrt(|T|).  The spectrum of L is that of the quotient VᵀLV
    (`_twin_quotient`) together with each class's twin eigenvalue, |T| - 1
    times; the eigenvectors of a twin eigenvalue are the differences across
    its class, and every other eigenvector is V times one of the quotient's.
    So `eig_sym` runs on the quotient alone, and the cluster is chosen on
    the merged spectrum.  The labels (classes numbered by least member) and
    the twin copies come from one list of the classes of two or more
    vertices (`_twin_classes`); copy r of a class carries the r + 1 least
    members of its Helmert vector (1, ..., 1, -r) / sqrt(r (r + 1)).  Each
    selected quotient vector is lifted by V, each selected copy is its
    Helmert vector, and the basis follows `eig_sym`'s sign rule: the
    largest-magnitude entry of each vector is positive, ties going to the
    lowest index, and a zero entry is +0.0.  Without twins V is the identity
    and this is `eig_sym` on L itself, bit for bit but for the sign of zero.
    """
    if g.n == 1:
        return SpectralSummary(
            lambda2=0.0, multiplicity=0, fiedler_basis=np.zeros((1, 0)),
            spectrum=np.zeros(1), connected=True,
        )
    connected = is_connected(g)
    classes = _twin_classes(g) if connected and g.decomposition.all_cliques else []
    rep = np.arange(g.n)  # the least member of each vertex's class
    copies = []  # (twin eigenvalue, the members of its Helmert vector) of each copy
    for members, value in classes:
        rep[members] = members[0]
        copies += [(value, members[:r + 1]) for r in range(1, len(members))]
    label = (np.cumsum(rep == np.arange(g.n)) - 1)[rep]  # classes by least member
    sizes = np.bincount(label)
    c = len(sizes)
    twin = np.array([value for value, _ in copies], dtype=float)
    dec = eig_sym(
        _twin_quotient(g, label, sizes),
        select=lambda values: [i for i in _merged_cluster(values, twin)[1] if i < c],
    )
    spectrum, chosen = _merged_cluster(dec.values, twin)
    basis = np.zeros((g.n, len(chosen)))
    lifted = [col for col, i in enumerate(chosen) if i < c]
    basis[:, lifted] = dec.vectors[label] / np.sqrt(sizes[label])[:, None]
    for col, i in enumerate(chosen):
        if i >= c:
            members = copies[i - c][1]
            r = len(members) - 1
            basis[members[:r], col] = 1.0 / math.sqrt(r * (r + 1))
            basis[members[r], col] = -r / math.sqrt(r * (r + 1))
    lead = np.abs(basis).argmax(axis=0)
    basis[:, basis[lead, np.arange(len(chosen))] < 0] *= -1.0
    basis += 0.0  # the flip turns zeros into -0.0; x + 0.0 is x for every other x
    return SpectralSummary(
        lambda2=float(spectrum[1]),
        multiplicity=len(chosen),
        fiedler_basis=basis,
        spectrum=spectrum,
        connected=connected,
    )


def _merged_cluster(values: np.ndarray, copies: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The ascending merge of the quotient's eigenvalues `values` with the
    twin eigenvalue `copies`, and the lambda2 cluster (`_fiedler_cluster`)
    of the merge, each member given by its index into values, or past them
    into copies.  Ties keep that order."""
    every = np.concatenate([values, copies])
    order = np.argsort(every, kind="stable")
    spectrum = every[order]
    return spectrum, order[_fiedler_cluster(spectrum)].tolist()


def _twin_classes(g: Graph) -> list[tuple[np.ndarray, float]]:
    """Each twin class of two or more vertices of the connected block graph
    g, as (members, twin eigenvalue), read off its blocks in one pass.
    `members` holds the class's vertices v - 1 in ascending order, and the
    classes are sorted by least member.

    Weights are compared exactly:
    * true twins are the non-cut vertices of one block whose weights to each
      cut vertex of the block, and among themselves, are all equal; a block
      with one unequal weight forms no class, and a block with fewer than
      two non-cut vertices is passed over.  Their twin eigenvalue is
      d_u + w_T, with d_u the degree and w_T the weight between two of them;
    * false twins are leaves hanging from one cut vertex by one weight w,
      their twin eigenvalue.  A leaf is the non-cut vertex of a block of two
      vertices, one of them a cut vertex.
    """
    dec = g.decomposition
    weight = dict(zip(g.edges, g.weights))
    classes = []
    hanging: dict[tuple[int, float], list[int]] = {}  # (cut vertex, weight) -> leaves
    for i, block in enumerate(dec.blocks):
        cuts = dec.articulations_in_block(i)
        if len(block) == 2 and len(cuts) == 1:
            (a,) = cuts
            leaf = block[1] if block[0] == a else block[0]
            hanging.setdefault((a, weight[block]), []).append(leaf - 1)
        if len(block) - len(cuts) < 2:
            continue
        twins = [v for v in block if v not in cuts]
        mutual = {weight[e] for e in itertools.combinations(twins, 2)}
        to_cuts = {tuple(weight[min(t, x), max(t, x)] for x in cuts) for t in twins}
        if len(mutual) == 1 and len(to_cuts) == 1:
            (w_t,), (row,) = mutual, to_cuts
            classes.append((np.array(twins) - 1, sum(row) + len(twins) * w_t))
    # blocks are sorted, so each cut vertex's leaves are found in ascending order
    classes += [(np.array(leaves), w) for (_, w), leaves in hanging.items() if len(leaves) > 1]
    return sorted(classes, key=lambda cls: cls[0][0])


def _twin_quotient(g: Graph, label: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """VᵀLV for the class of each vertex `label` and the class sizes, from
    the edge list, exactly symmetric.

    Entry (S, T), S != T, is minus the weight between the classes over
    sqrt(|S| |T|), and entry (T, T) the weight leaving T over |T|; an edge
    inside a class adds nothing.  With singleton classes this is
    `laplacian(g)` bit for bit: the same entries, and the same row sums.
    """
    c = len(sizes)
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), np.intp, 2 * g.m) - 1
    a, b = label[ends[0::2]], label[ends[1::2]]
    cross = a != b
    lo, hi = np.minimum(a, b)[cross], np.maximum(a, b)[cross]
    upper = np.bincount(lo * c + hi, np.array(g.weights)[cross], c * c)
    upper = upper.astype(float, copy=False).reshape(c, c)  # no weights give integers
    q = upper + upper.T  # the weight between each pair of classes
    diagonal = q.sum(axis=1) / sizes
    q /= -np.sqrt(np.outer(sizes, sizes))  # a symmetric divisor keeps q symmetric
    np.fill_diagonal(q, diagonal)
    return q


def _fiedler_cluster(spectrum: np.ndarray) -> list[int]:
    """Indices of the ascending Laplacian spectrum within
    MULTIPLICITY_REL_TOL (relative) of the second-smallest value."""
    lam2 = float(spectrum[1])
    tol = MULTIPLICITY_REL_TOL * max(abs(lam2), 1e-12 * float(spectrum[-1]))
    return [i for i in range(1, len(spectrum)) if abs(float(spectrum[i]) - lam2) <= tol]


def _resistances(g: Graph, dec: BlockDecomposition) -> np.ndarray:
    """Effective resistance between every pair of vertices, as an exactly
    symmetric n x n array.

    Every path between blocks runs through the cut vertices joining them, so
    resistance adds up across them: a block entered through cut vertex a puts
    each of its vertices R_block[., a] further from every vertex placed
    before it than a is.  Vertex 1 is placed first, then each block's other
    vertices in the rooted order, which places a before the block hanging
    from it.  R is assembled in this placement order, where a block writes
    three contiguous slices (its rows against the vertices placed before it,
    each entry the one addition R_block[x, a] + R[a, y]; their transpose;
    R_block among its own), and permuted to label order once.

    A block's conductances, in block order, are cut from `-laplacian(g)`
    with its diagonal zeroed: every edge joining two of its vertices lies in
    the block, so the cut's entries are the block's own.  The inverse of its
    Laplacian grounded at the block's first vertex (`grounded_inverse`)
    gives the block's resistances.  Each distinct block is solved once: a
    memo for this call, keyed on the bytes of the cut (size, edges and
    weights), lets equal blocks (every block of a clique chain) share one
    solve, and a hit returns exactly what a fresh solve would.
    """
    cond = -laplacian(g)
    np.fill_diagonal(cond, 0.0)
    conds = {}  # each block's own conductances, one gather per block size
    for size in {len(block) for block in dec.blocks}:
        same = [i for i, block in enumerate(dec.blocks) if len(block) == size]
        at = np.array([dec.blocks[i] for i in same]) - 1
        conds.update(zip(same, cond[at[:, :, None], at[:, None]]))
    order = [1, *(u for i, a in dec.rooted for u in dec.blocks[i] if u != a)]
    where = dict(zip(order, range(g.n)))  # each vertex's position in placement order
    placed = np.zeros((g.n, g.n))  # R in placement order
    solved: dict[bytes, np.ndarray] = {}
    cuts: dict[tuple[bytes, int], tuple[np.ndarray, np.ndarray]] = {}  # by position of a
    lo = 1
    for i, a in dec.rooted:
        key, j = conds[i].tobytes(), dec.blocks[i].index(a)
        if key not in solved:
            green = grounded_inverse(conds[i])
            d = green.diagonal()
            # G + G^T is exactly symmetric where the solved G need not be
            solved[key] = (d[:, None] + d) - (green + green.T)
        if (key, j) not in cuts:
            within, fresh = solved[key], np.arange(len(dec.blocks[i])) != j
            cuts[key, j] = within[fresh, j][:, None], within[np.ix_(fresh, fresh)]
        to_a, inner = cuts[key, j]
        hi = lo + len(inner)
        np.add(to_a, placed[where[a], :lo], out=placed[lo:hi, :lo])
        placed[:lo, lo:hi] = placed[lo:hi, :lo].T
        placed[lo:hi, lo:hi] = inner
        lo = hi
    rank = np.argsort(order)  # the position of each vertex, index v - 1
    return placed.take(rank, axis=0).take(rank, axis=1)


def classify_perron(
    g: Graph,
    *,
    tie_rel_tol: float = TIE_REL_TOL,
) -> tuple[CaseClassification, dict[int, VertexPerronData]]:
    """Case A/B decision from Perron values at every cut vertex, with the
    `VertexPerronData` of each cut vertex, keyed by vertex.

    Case B is reported at the unique vertex whose deleted components have two
    or more tied maximal Perron values; if every cut vertex has a unique
    maximizer the verdict is case A.  Two distinct tied vertices would be a
    numerical pathology and raise ClassificationError rather than being
    silently resolved.  tie_rel_tol must be finite and >= 0.
    """
    _check_tolerance("tie_rel_tol", tie_rel_tol)
    dec = _cut_vertex_blocks(g)
    comps, support, ground = dec.cut_components()
    pairs = iter(perron_pairs(_resistances(g, dec), ground, support))
    by_vertex = {}
    for v, components in zip(dec.articulation_points, comps):
        values = tuple(next(pairs).value for _ in components)
        best = max(values)
        maximizers = tuple(
            i for i, val in enumerate(values) if best - val <= tie_rel_tol * best
        )
        rest = [val for i, val in enumerate(values) if i not in maximizers]
        margin = (best - max(rest)) / best if rest else None
        by_vertex[v] = VertexPerronData(
            components=components, values=values, maximizers=maximizers,
            tie_margin=margin,
        )
    tied = [v for v, data in by_vertex.items() if len(data.maximizers) >= 2]
    if len(tied) > 1:
        raise ClassificationError(
            f"multiple vertices with tied Perron components: {sorted(tied)}; "
            "tie tolerance is likely misconfigured"
        )
    if tied:
        z = tied[0]
        perron_comps = tuple(by_vertex[z].components[i] for i in by_vertex[z].maximizers)
        classification = CaseClassification(
            verdict="B",
            zero_vertex=z,
            perron_components=perron_comps,
            predicted_multiplicity=len(perron_comps) - 1,
        )
    else:
        classification = CaseClassification(verdict="A")
    return classification, by_vertex


def _cut_vertex_blocks(g: Graph) -> BlockDecomposition:
    """Block decomposition of g, checking the precondition both classifiers
    share: g is connected and has at least one cut vertex."""
    dec = g.decomposition
    if not dec.articulation_points:
        raise ValueError("graph has no articulation point; case analysis needs a cut vertex")
    return dec


def _check_tolerance(name: str, value: float) -> None:
    if not 0 <= value < float("inf"):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def classify_structural(
    g: Graph,
    *,
    zero_tol: float = ZERO_REL_TOL,
) -> list[CaseClassification]:
    """Case A/B decision from the sign pattern of each column of the Fiedler
    basis that `spectral_summary(g)` computes, one classification per column.

    Entries within zero_tol * max|y| of zero count as zero; zero_tol must be
    finite and >= 0.  Raises ClassificationError when a sign pattern fits
    neither case, which signals a tolerance misconfiguration rather than a
    property of the graph.
    """
    _check_tolerance("zero_tol", zero_tol)
    dec = _cut_vertex_blocks(g)
    return [_classify_vector(g, dec, y, zero_tol) for y in spectral_summary(g).fiedler_basis.T]


def _classify_vector(g, dec, y, zero_tol):
    """Case A or B for one Fiedler vector y, from its signs.

    Case A: exactly one block M carries both signs and every other block is
    sign-pure or all zero.  Walking the block-cut tree away from M, a block
    entered through cut vertex a has a's sign (or is all zero), so "every
    chain of cut vertices rises, falls or stays zero with its first one"
    is the rule sign(a) * (y_x - y_a) >= -zero_tol * max|y| for each other
    cut vertex x of the block.  Case B: no block carries both signs, so no
    edge joins + to -, and a path from + to - passes a zero vertex beside
    the support; if that vertex is unique and a cut vertex, it separates
    every sign change.
    """
    slack = zero_tol * float(np.abs(y).max())
    values = y.tolist()
    signs = [1 if v > slack else -1 if v < -slack else 0 for v in values]
    block_signs = [{signs[v - 1] for v in block} for block in dec.blocks]
    mixed = [i for i, found in enumerate(block_signs) if {1, -1} <= found]
    if len(mixed) > 1:
        raise ClassificationError(
            f"{len(mixed)} blocks carry both signs; no case admits more than one"
        )
    if not mixed:
        zero_candidates = [
            v for v in g.vertices()
            if signs[v - 1] == 0 and any(signs[w - 1] != 0 for w in g.neighbors(v))
        ]
        if len(zero_candidates) != 1:
            raise ClassificationError(
                "no block mixes signs but the zero vertex adjacent to support is not "
                f"unique: candidates {zero_candidates}"
            )
        (z,) = zero_candidates
        if z not in dec.articulation_points:
            raise ClassificationError(f"zero vertex {z} is not a cut vertex")
        return CaseClassification(verdict="B", zero_vertex=z)
    (m,) = mixed
    for i, found in enumerate(block_signs):
        if len(found) > 1 and i != m:
            raise ClassificationError(
                f"block {dec.blocks[i]} is neither sign-pure nor all-zero: cannot classify"
            )
    # (block, the cut vertex it was entered through), depth first from M with
    # an explicit stack: a recursive closure would refer to itself and leave
    # a reference cycle behind on every call
    stack = [(m, None)]
    while stack:
        b, a = stack.pop()
        for x in dec.articulations_in_block(b):
            if x == a:
                continue
            if a is not None and signs[a - 1] * (values[x - 1] - values[a - 1]) < -slack:
                raise ClassificationError(
                    f"cut-vertex values along [{a}, {x}] are not monotone: "
                    f"[{values[a - 1]}, {values[x - 1]}]"
                )
            stack.extend((nxt, x) for nxt in dec.blocks_containing(x) if nxt != b)
    return CaseClassification(verdict="A", mixed_block=dec.blocks[m])
