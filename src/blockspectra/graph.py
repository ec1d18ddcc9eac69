"""Undirected simple graphs with dense 1-based vertex labels.

Vertices are always labeled 1..n.  Edges carry positive finite weights
(default 1.0).  Instances are immutable after construction and safe to share
across threads; every operation in this module is a pure function.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

DESK_SCALE_LIMIT = 400


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 1..n.

    Derived structure is computed on first use and cached on the instance:
    `adjacency`, and `decomposition`, the block decomposition every
    structural query and both case classifiers read.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_property
    def decomposition(self):
        """`blocks.block_decomposition(self)`, computed once per graph."""
        from .blocks import block_decomposition  # blocks imports this module

        return block_decomposition(self)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def vertices(self) -> range:
        return range(1, self.n + 1)


def build_graph(n: int, edges, weights=None) -> Graph:
    """Validate and normalize a graph description.

    `edges` is an iterable of vertex pairs; `weights` an optional mapping from
    a pair to a positive finite weight (unspecified edges default to 1.0).
    Raises ValueError for self-loops, duplicate or out-of-range edges, and
    weights that are not positive and finite (0, negative, inf or nan), and
    for more than DESK_SCALE_LIMIT vertices before reading any edge.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"graph has {n} vertices, above the desk-scale cap {DESK_SCALE_LIMIT}")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:  # the first pair at fault is named as given
        lo, hi = key = (u, v) if u < v else (v, u)
        if not 1 <= lo < hi <= n:
            raise ValueError(f"self-loop at vertex {u}" if u == v
                             else f"edge ({u},{v}) out of range 1..{n}")
        if key in seen:
            raise ValueError(f"duplicate edge ({lo},{hi})")
        seen.add(key)
        normalized.append(key)
    normalized.sort()

    weight_map: dict[tuple[int, int], float] = {}
    if weights:
        for pair, w in weights.items():
            u, v = pair
            key = (min(u, v), max(u, v))
            if key not in seen:
                raise ValueError(f"weight given for non-edge ({key[0]},{key[1]})")
            if not 0 < w < math.inf:
                raise ValueError(
                    f"weight {w} on edge ({key[0]},{key[1]}) is not positive and finite"
                )
            weight_map[key] = float(w)
    return Graph(
        n=n,
        edges=tuple(normalized),
        weights=tuple(weight_map.get(e, 1.0) for e in normalized),
    )


def _bfs_distances(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_connected(g: Graph) -> bool:
    """True iff one breadth-first search from vertex 1 reaches every vertex."""
    return len(_bfs_distances(g, 1)) == g.n


def center(g: Graph) -> tuple[int, ...]:
    """All vertices of minimum eccentricity, sorted.  Raises ValueError if g
    is disconnected."""
    ecc = {}
    for v in g.vertices():
        dist = _bfs_distances(g, v)
        if len(dist) < g.n:
            raise ValueError("eccentricity requires a connected graph")
        ecc[v] = max(dist.values())
    best = min(ecc.values())
    return tuple(v for v in g.vertices() if ecc[v] == best)


def coalesce(g: Graph, u: int, h: Graph, w: int) -> Graph:
    """Disjoint union of g and h with vertex u of g identified with vertex w
    of h.  Labels of g are preserved; the remaining vertices of h become
    n_g+1, n_g+2, ... in ascending order of their labels in h."""
    if not (1 <= u <= g.n):
        raise ValueError(f"vertex {u} out of range 1..{g.n}")
    if not (1 <= w <= h.n):
        raise ValueError(f"vertex {w} out of range 1..{h.n}")
    relabel = {w: u}
    nxt = g.n + 1
    for v in range(1, h.n + 1):
        if v != w:
            relabel[v] = nxt
            nxt += 1
    edges = list(g.edges)
    weights = {e: wt for e, wt in zip(g.edges, g.weights)}
    for (a, b), wt in zip(h.edges, h.weights):
        a2, b2 = relabel[a], relabel[b]
        e = (min(a2, b2), max(a2, b2))
        edges.append(e)
        weights[e] = wt
    return build_graph(g.n + h.n - 1, edges, weights)
