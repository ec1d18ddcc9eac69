"""Shared test helpers: independent oracles and random-graph builders."""

import heapq
import itertools
import math
from collections import deque

import networkx as nx
import numpy as np

from blockspectra import Graph, build_graph, coalesce, complete_graph, spectral
from blockspectra.linalg import eig_sym, grounded_inverse, laplacian


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices())
    for (u, v), w in zip(g.edges, g.weights):
        out.add_edge(u, v, weight=w)
    return out


def delete_vertex_components(g: Graph, v: int) -> list[tuple[int, ...]]:
    """Components of g with v removed, ordered by smallest contained vertex:
    the BFS reference `BlockDecomposition.cut_components` is checked
    against."""
    seen = {v}
    comps = []
    for s in g.vertices():
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y != v and y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def articulation_oracle(g: Graph) -> set[int]:
    """Cut vertices by brute force: delete each vertex and count components."""
    out = set()
    for v in g.vertices():
        rest = [u for u in g.vertices() if u != v]
        if not rest:
            continue
        seen = {rest[0]}
        queue = [rest[0]]
        while queue:
            x = queue.pop()
            for y in g.neighbors(x):
                if y != v and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != len(rest):
            out.add(v)
    return out


def prufer_tree(n: int, seq) -> Graph:
    """Decode a Prufer sequence (labels 1..n, length n-2) into a tree."""
    assert n >= 2 and len(seq) == n - 2
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return build_graph(n, edges)


def clique_tree(sizes, attach_points) -> Graph:
    """Glue cliques one at a time; every connected block graph arises this way.

    attach_points[i] selects (mod current size) the vertex of the partial graph
    that clique i+1 is glued onto.
    """
    g = complete_graph(sizes[0])
    for k, raw in zip(sizes[1:], attach_points):
        g = coalesce(g, 1 + raw % g.n, complete_graph(k), 1)
    return g


def components_without(dec, v: int) -> tuple[tuple[int, ...], ...]:
    """Components of g minus v: sorted tuples, ordered by smallest vertex,
    one vertex at a time from the block decomposition `dec` of g: the
    reference `BlockDecomposition.cut_components` is checked against bit for
    bit.

    Each block hanging from v (its run of the preorder starts after v)
    leaves that run as one component; the other vertices but v, if any,
    are the component holding the block v hangs from.
    """
    at = dec._preorder.index(v)
    below = [dec._preorder[lo:hi] for lo, hi in
             (dec._spans[i] for i in dec.blocks_containing(v)) if lo > at]
    rest = set(dec._preorder).difference([v], *below)
    return tuple(sorted(tuple(sorted(c)) for c in [*below, rest] if c))


def reference_resistances(g: Graph, dec) -> np.ndarray:
    """Effective resistances written block by block in label order, each
    block's rows against every vertex placed before it by fancy indexing:
    the reference `spectral._resistances` is checked against bit for bit.
    Every entry is the same one addition, R_block[x, a] + R[a, y]."""
    cond = -laplacian(g)
    np.fill_diagonal(cond, 0.0)
    res = np.zeros((g.n, g.n))
    placed = np.zeros(1, dtype=int)  # vertex 1
    solved = {}
    for i, a in dec.rooted:
        block = dec.blocks[i]
        at = np.array(block) - 1
        local = cond[at[:, None], at]
        key = local.tobytes()
        if key not in solved:
            green = grounded_inverse(local)
            d = green.diagonal()
            solved[key] = (d[:, None] + d) - (green + green.T)
        within = solved[key]
        fresh = np.array([t for t, u in enumerate(block) if u != a])
        idx = at[fresh]
        cross = within[fresh, block.index(a)][:, None] + res[a - 1, placed]
        res[idx[:, None], placed] = cross
        res[placed[:, None], idx] = cross.T
        res[idx[:, None], idx] = within[fresh[:, None], fresh]
        placed = np.concatenate([placed, idx])
    return res


def reference_items(g: Graph, dec):
    """(components, support, ground) for every cut vertex of g, listed one
    vertex at a time by `components_without` and marked row by row: the
    reference `BlockDecomposition.cut_components` is checked against."""
    components = tuple(components_without(dec, v) for v in dec.articulation_points)
    flat = [c for cs in components for c in cs]
    support = np.zeros((len(flat), g.n), dtype=bool)
    for row, c in zip(support, flat):
        row[[u - 1 for u in c]] = True
    ground = np.repeat(np.array(dec.articulation_points) - 1, [len(cs) for cs in components])
    return components, support, ground


def bottlenecks(g: Graph, v: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(component, bottleneck matrix) for each component C of g minus v, built
    from the graph's effective resistances R as (R_iv + R_jv - R_ij) / 2 over
    C: the matrices the Perron route's power iteration never forms."""
    dec = g.decomposition
    res = spectral._resistances(g, dec)
    out = []
    for comp in components_without(dec, v):
        idx = np.array(comp) - 1
        r = res[idx, v - 1]
        out.append((comp, (r[:, None] + r - res[np.ix_(idx, idx)]) / 2))
    return out


def random_weighted_clique_tree(rng, s) -> Graph:
    """A clique tree of 2 to 12 cliques of 2 to 6 vertices, each glued at a
    uniform vertex, with weights 10**U(-s, s), drawn from the
    `random.Random` rng in a fixed order."""
    sizes = [rng.randint(2, 6) for _ in range(rng.randint(2, 12))]
    g = complete_graph(sizes[0])
    for k in sizes[1:]:
        g = coalesce(g, rng.randint(1, g.n), complete_graph(k), 1)
    return build_graph(g.n, g.edges, {e: 10 ** rng.uniform(-s, s) for e in g.edges})


def reference_twin_labels(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The twin class of each vertex (index v - 1), classes numbered by their
    smallest vertex, and each class's twin eigenvalue (0 for a singleton),
    marked vertex by vertex and relabeled by `np.unique`: the reference the
    class list of `spectral._twin_classes` is checked against."""
    dec = g.decomposition
    weight = dict(zip(g.edges, g.weights))
    rep = np.arange(g.n)  # the smallest vertex of each vertex's class, 0-based
    value = np.zeros(g.n)  # the twin eigenvalue of each class, at rep
    hanging = {}  # (cut vertex, weight) -> leaves
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
            rep[np.array(twins) - 1] = twins[0] - 1
            value[twins[0] - 1] = sum(row) + len(twins) * w_t
    for (_, w), leaves in hanging.items():
        if len(leaves) > 1:
            rep[leaves] = leaves[0]
            value[leaves[0]] = w
    reps, label = np.unique(rep, return_inverse=True)
    return label, value[reps]


def reference_summary(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(spectrum, Fiedler basis) of a connected g from the labels of
    `reference_twin_labels`, each twin copy's class found by index arrays
    and its Helmert vector counted in a dict: the reference
    `spectral_summary` is checked against bit for bit."""
    if g.decomposition.all_cliques:
        label, twin_value = reference_twin_labels(g)
    else:
        label, twin_value = np.arange(g.n), np.zeros(g.n)
    sizes = np.bincount(label)
    c = len(sizes)
    twins = np.flatnonzero(sizes > 1)
    copies = np.repeat(twin_value[twins], sizes[twins] - 1)
    copy_class = np.repeat(twins, sizes[twins] - 1)
    dec = eig_sym(
        spectral._twin_quotient(g, label, sizes),
        select=lambda values: [i for i in spectral._merged_cluster(values, copies)[1] if i < c],
    )
    spectrum, chosen = spectral._merged_cluster(dec.values, copies)
    basis = np.zeros((g.n, len(chosen)))
    lifted = [col for col, i in enumerate(chosen) if i < c]
    basis[:, lifted] = dec.vectors[label] / np.sqrt(sizes[label])[:, None]
    by_class = np.argsort(label, kind="stable")  # each class's vertices in a run, ascending
    starts = np.cumsum(sizes) - sizes
    helmert = {}  # class -> Helmert vectors used so far
    for col, i in enumerate(chosen):
        if i >= c:
            t = copy_class[i - c]
            r = helmert[t] = helmert.get(t, 0) + 1
            members = by_class[starts[t]:starts[t] + r + 1]
            basis[members[:r], col] = 1.0 / math.sqrt(r * (r + 1))
            basis[members[r], col] = -r / math.sqrt(r * (r + 1))
    lead = np.abs(basis).argmax(axis=0)
    basis[:, basis[lead, np.arange(len(chosen))] < 0] *= -1.0
    basis += 0.0
    return spectrum, basis
