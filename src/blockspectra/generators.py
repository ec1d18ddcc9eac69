"""Constructors for the graph families under study.

Labeling is fixed so that results are reproducible byte for byte and so that
positional formulas (articulation labels, the odd-chain center label) hold:

* clique chains: block j occupies labels (j-1)(k-1)+1 .. (j-1)(k-1)+k, so
  consecutive cliques overlap in exactly one vertex and the articulation
  points carry labels j*k - j + 1 for j = 1..p;
* starlike unions of chains: the shared hub is vertex 1; arm i is a clique
  chain whose first vertex is identified with the hub, its remaining vertices
  labeled consecutively in arm order.
"""

from itertools import accumulate, chain, combinations

from .graph import Graph, build_graph


def _chain_edges(labels, k: int):
    """Edges of the cliques of size k along `labels`, consecutive cliques
    sharing one label."""
    return (e for lo in range(0, len(labels) - 1, k - 1)
            for e in combinations(labels[lo:lo + k], 2))


def block_path(k: int, p: int) -> Graph:
    """Chain of p+1 cliques of size k, consecutive cliques sharing one vertex.

    The result has k(p+1) - p vertices and p articulation points.  p = 0 gives
    a single clique K_k.
    """
    if k < 2:
        raise ValueError(f"clique size must be >= 2, got {k}")
    if p < 0:
        raise ValueError(f"articulation count must be >= 0, got {p}")
    n = k * (p + 1) - p
    return build_graph(n, _chain_edges(range(1, n + 1), k))


def center_label(k: int, p: int) -> int:
    """Label of the unique center vertex of block_path(k, p) for odd p."""
    if p < 1 or p % 2 == 0:
        raise ValueError(f"center label is defined for odd p >= 1, got {p}")
    half = (p + 1) // 2
    return half * k - half + 1


def block_starlike(r: int, k: int, arms) -> Graph:
    """r clique chains sharing one hub vertex.

    `arms` lists the articulation count of each chain, sorted non-increasing.
    Arm i contributes k(arms[i]+1) - arms[i] - 1 vertices beyond the hub.
    """
    arms = list(arms)
    if r < 2:
        raise ValueError(f"arm count must be >= 2, got {r}")
    if len(arms) != r:
        raise ValueError(f"expected {r} arm lengths, got {len(arms)}")
    if any(p < 0 for p in arms):
        raise ValueError("arm lengths must be >= 0")
    if any(arms[i] < arms[i + 1] for i in range(len(arms) - 1)):
        raise ValueError(f"arm lengths must be sorted non-increasing, got {arms}")
    if k < 2:
        raise ValueError(f"clique size must be >= 2, got {k}")
    # arm i's chain runs over the hub and the labels from starts[i] on, as
    # coalescing the arms' chains at their vertex 1 would number them
    sizes = [p * (k - 1) + k - 1 for p in arms]
    starts = list(accumulate(sizes, initial=2))
    edges = (e for size, start in zip(sizes, starts)
             for e in _chain_edges([1, *range(start, start + size)], k))
    return build_graph(starts[-1] - 1, edges)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs >= 1 vertex, got {n}")
    return build_graph(n, ((i, i + 1) for i in range(1, n)))


def star_graph(q: int) -> Graph:
    """Star with hub 1 and q leaves (q+1 vertices)."""
    if q < 1:
        raise ValueError(f"star needs >= 1 leaf, got {q}")
    return build_graph(q + 1, ((1, i) for i in range(2, q + 2)))


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError(f"complete graph needs >= 1 vertex, got {k}")
    return build_graph(k, combinations(range(1, k + 1), 2))


def broom_tree(handle: int, bristles: int) -> Graph:
    """Path on `handle` vertices with `bristles` pendants on its last vertex.

    handle = 1 degenerates to the star with `bristles` leaves.
    """
    if handle < 1:
        raise ValueError(f"handle length must be >= 1, got {handle}")
    if bristles < 1:
        raise ValueError(f"bristle count must be >= 1, got {bristles}")
    edges = chain(((i, i + 1) for i in range(1, handle)),
                  ((handle, handle + 1 + b) for b in range(bristles)))
    return build_graph(handle + bristles, edges)
