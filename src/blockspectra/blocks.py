"""Block structure: biconnected components, articulation points, shape queries.

The decomposition is computed with an iterative lowpoint search so that deep
chains of cliques do not hit the interpreter recursion limit.  All orderings
are deterministic: blocks are sorted by their smallest contained vertex and
neighbor lists are walked in ascending label order.
"""

from dataclasses import dataclass

from .graph import (
    Graph,
    delete_vertex_components,
    induced_subgraph,
    is_connected,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, articulation points, and their bipartite incidence.

    `tree_edges` lists (block_index, articulation_vertex) pairs; block indices
    refer to positions in `blocks`.  For a connected graph this incidence
    structure is the block-cut tree.
    """

    blocks: tuple[tuple[int, ...], ...]
    articulation_points: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]

    def blocks_containing(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if v in b)

    def articulations_in_block(self, i: int) -> tuple[int, ...]:
        return tuple(a for b, a in self.tree_edges if b == i)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components and articulation points of a connected graph."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    if g.n == 1:
        return BlockDecomposition(blocks=((1,),), articulation_points=(), tree_edges=())

    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    nbr_iter = [None] * (g.n + 1)
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[set[int]] = []
    articulation: set[int] = set()

    root = 1
    root_children = 0
    timer = 1
    disc[root] = low[root] = timer
    nbr_iter[root] = iter(g.neighbors(root))
    stack = [root]
    while stack:
        v = stack[-1]
        w = next(nbr_iter[v], None)
        if w is None:
            stack.pop()
            u = parent[v]
            if u == 0:
                continue
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                if u != root:
                    articulation.add(u)
                members: set[int] = set()
                while True:
                    e = edge_stack.pop()
                    members.update(e)
                    if e == (u, v):
                        break
                raw_blocks.append(members)
            continue
        if w == parent[v]:
            continue
        if disc[w] == 0:
            if v == root:
                root_children += 1
            parent[w] = v
            timer += 1
            disc[w] = low[w] = timer
            nbr_iter[w] = iter(g.neighbors(w))
            edge_stack.append((v, w))
            stack.append(w)
        elif disc[w] < disc[v]:
            # back edge to an ancestor
            edge_stack.append((v, w))
            low[v] = min(low[v], disc[w])
    if root_children >= 2:
        articulation.add(root)

    blocks = tuple(sorted(tuple(sorted(b)) for b in raw_blocks))
    arts = tuple(sorted(articulation))
    tree_edges = tuple(
        (i, a) for i, b in enumerate(blocks) for a in arts if a in b
    )
    return BlockDecomposition(blocks=blocks, articulation_points=arts, tree_edges=tree_edges)


def is_block_graph(g: Graph) -> bool:
    """True iff every block of the connected graph g induces a clique."""
    dec = block_decomposition(g)
    for block in dec.blocks:
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if not g.has_edge(u, v):
                    return False
    return True


def block_path_shape(g: Graph) -> tuple[int, int] | None:
    """Recognize a chain of equal-size cliques.

    Returns (clique_size, articulation_count) when g consists of cliques of one
    size k >= 2 arranged in a path (consecutive cliques sharing one vertex),
    else None.  A single clique yields (k, 0).
    """
    if not is_block_graph(g):
        return None
    dec = block_decomposition(g)
    sizes = {len(b) for b in dec.blocks}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    if k < 2:
        return None
    arts = dec.articulation_points
    if len(dec.blocks) != len(arts) + 1:
        return None
    for a in arts:
        if len(dec.blocks_containing(a)) != 2:
            return None
    for i in range(len(dec.blocks)):
        if len(dec.articulations_in_block(i)) > 2:
            return None
    # the block-cut tree is a tree; degree <= 2 everywhere makes it a path
    return (k, len(arts))


@dataclass(frozen=True)
class StarlikeProfile:
    """Hub vertex plus the clique-chain length of each arm."""

    hub: int
    clique_size: int
    arms: tuple[int, ...]  # sorted non-increasing


def starlike_profile(g: Graph) -> StarlikeProfile | None:
    """Recognize r >= 3 equal-clique chains meeting at one shared vertex.

    The hub must be the unique vertex lying in three or more blocks, and every
    component of g minus the hub, together with the hub, must form a clique
    chain in which the hub is a non-articulation vertex of a terminal clique.
    Returns None when the shape does not match.
    """
    if not is_block_graph(g):
        return None
    dec = block_decomposition(g)
    sizes = {len(b) for b in dec.blocks}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    if k < 2:
        return None
    hubs = [v for v in g.vertices() if len(dec.blocks_containing(v)) >= 3]
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    arms = []
    for comp in delete_vertex_components(g, hub):
        sub, relabel = induced_subgraph(g, list(comp) + [hub])
        shape = block_path_shape(sub)
        if shape is None or shape[0] != k:
            return None
        sub_dec = block_decomposition(sub)
        hub_new = relabel[hub]
        if hub_new in sub_dec.articulation_points:
            return None
        (block_idx,) = sub_dec.blocks_containing(hub_new)
        if len(sub_dec.articulations_in_block(block_idx)) > 1:
            return None  # hub sits in an interior clique, not a terminal one
        arms.append(shape[1])
    return StarlikeProfile(hub=hub, clique_size=k, arms=tuple(sorted(arms, reverse=True)))
