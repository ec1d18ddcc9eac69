"""Block structure: biconnected components, articulation points, shape queries.

The decomposition is one iterative lowpoint search (Tarjan 1972) with a
stack of vertices rather than edges, iterative so that deep chains of
cliques do not hit the interpreter recursion limit.  Everything else is
read off the blocks: the articulation points are the vertices in two or
more blocks, and the graph is a block graph iff the blocks' sizes account
for every edge.  All orderings are deterministic: blocks are sorted by
their smallest contained vertex and neighbor lists are walked in ascending
label order.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, articulation points, and their bipartite incidence.

    Block indices refer to positions in `blocks`.  The incidence between
    blocks and articulation points is the block-cut tree, indexed both ways
    (`blocks_containing`, `articulations_in_block`).  `rooted` is the same
    tree rooted at vertex 1: (block, the vertex it hangs from) pairs, each
    block listed after the block holding the vertex it hangs from.
    `all_cliques` is True iff every block induces a clique.
    """

    blocks: tuple[tuple[int, ...], ...]
    articulation_points: tuple[int, ...]
    all_cliques: bool
    rooted: tuple[tuple[int, int], ...]
    _blocks_of: tuple[tuple[int, ...], ...]  # entry v - 1: blocks holding vertex v
    _arts_of: tuple[tuple[int, ...], ...]    # entry i: articulation points of block i
    _preorder: tuple[int, ...]               # vertices in the order the search found them
    _spans: tuple[tuple[int, int], ...]      # entry i: the run of _preorder below block i

    def blocks_containing(self, v: int) -> tuple[int, ...]:
        return self._blocks_of[v - 1] if 1 <= v <= len(self._blocks_of) else ()

    def articulations_in_block(self, i: int) -> tuple[int, ...]:
        return self._arts_of[i]

    def cut_components(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """(components, support, ground) for every cut vertex in one pass:
        components[k] lists the components of g minus articulation_points[k],
        sorted tuples ordered by smallest vertex.  Listed in turn they are
        the items; row j of the C-contiguous boolean items x n `support`
        marks item j's vertices, and ground[j] is v - 1 for its cut vertex v.

        Each block hanging from v (its run of the preorder starts after v)
        leaves that run as one component; the rest of the preorder but v,
        if any, is the component holding the block v hangs from.  Rows are
        marked by comparing each vertex's preorder position with the runs,
        so they come out in label order with no sort.
        """
        arts, spans, holding = self.articulation_points, self._spans, self._blocks_of
        place = np.argsort(self._preorder)  # index v - 1: v's position in the preorder
        at = place.tolist()
        runs = [[spans[i] for i in holding[v - 1] if spans[i][0] > at[v - 1]] for v in arts]
        counts = list(map(len, runs))  # none is 0: a cut vertex has a block below it
        lo, hi = np.array([s for r in runs for s in r], dtype=np.intp).reshape(-1, 2).T
        below = (lo[:, None] <= place) & (place < hi[:, None])
        starts = list(itertools.accumulate(counts, initial=0))[:-1]
        rest = ~np.logical_or.reduceat(below, starts, axis=0)
        k, ground = np.arange(len(arts)), np.array(arts, dtype=np.intp) - 1
        rest[k, ground] = False  # v is in no component
        skip = int(arts[:1] == (1,))  # vertex 1 lies in every rest but its own, which is empty
        sizes = [c + (j >= skip) for j, c in enumerate(counts)]
        rows = np.concatenate([rest[skip:], below])
        owner = np.concatenate([k[skip:], np.repeat(k, counts)])
        support = rows[np.lexsort((rows.argmax(axis=1), owner))]  # by v, then least vertex
        labels = (np.flatnonzero(support) % place.size + 1).tolist()  # row by row
        ends = support.sum(axis=1).cumsum().tolist()
        items = iter([tuple(labels[a:b]) for a, b in zip([0, *ends], ends)])
        components = tuple(tuple(itertools.islice(items, c)) for c in sizes)
        return components, support, np.repeat(ground, sizes)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components and articulation points of a connected graph.

    The search runs from vertex 1 and keeps a stack of the vertices found but
    in no block yet, in preorder.  When it leaves v, a child of u, with
    low[v] >= disc[u], the block is u plus the vertices popped down to v.
    Leaving v, low[v] takes the least disc[w] of its neighbours, all found
    by then: the parent u keeps low[v] >= disc[u] and a vertex below v
    cannot lower it, so the test needs no edge directions.  The block hangs
    from u, and the search subtree of v hangs below it, one run of the
    preorder.  Blocks pop before the block they hang from, so the pop order
    reversed lists each parent before its children.

    A vertex is an articulation point iff it lies in two blocks: for vertex
    1, the root, iff two blocks pop at it; with no neighbour it is a block
    of its own.  Blocks partition the edges and a block of s vertices holds
    at most s(s - 1)/2, so all are cliques iff the sum of s(s - 1) is 2m.
    The library reads this as `Graph.decomposition`, computed once per
    graph.
    """
    disc = [0] * (g.n + 1)  # preorder number, from 1; 0 until found
    low = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    nbr_iter = [None] * (g.n + 1)
    popped: list[tuple[tuple[int, ...], int, tuple[int, int]]] = []  # (block, u, span)
    preorder = [1]
    unplaced = [1]  # found but in no block yet, in preorder
    disc[1] = low[1] = 1
    nbr_iter[1] = iter(g.adjacency[1])
    path = [1]
    while path:
        v = path[-1]
        for w in nbr_iter[v]:  # the next neighbour not found yet
            if not disc[w]:
                break
        else:  # every neighbour is found: leave v
            path.pop()
            low[v] = min([low[v], *map(disc.__getitem__, g.adjacency[v])])
            u = parent[v]  # 0 for the root, which the search leaves last
            low[u] = min(low[u], low[v])
            if u and low[v] >= disc[u]:
                block = [u]
                while block[-1] != v:
                    block.append(unplaced.pop())
                popped.append((tuple(sorted(block)), u, (disc[v] - 1, len(preorder))))
            continue
        parent[w] = v
        preorder.append(w)
        unplaced.append(w)
        disc[w] = low[w] = len(preorder)
        nbr_iter[w] = iter(g.adjacency[w])
        path.append(w)
    if len(preorder) < g.n:
        raise ValueError("block decomposition requires a connected graph")
    if not popped:
        popped.append(((1,), 1, (1, 1)))  # vertex 1 alone, hanging from itself

    ranked = sorted(popped)  # by block; no two blocks are equal
    blocks = tuple(block for block, _, _ in ranked)
    index = {block: i for i, block in enumerate(blocks)}
    blocks_of: list[list[int]] = [[] for _ in range(g.n)]
    for i, block in enumerate(blocks):
        for v in block:
            blocks_of[v - 1].append(i)
    cut = [len(held) > 1 for held in blocks_of]
    return BlockDecomposition(
        blocks=blocks,
        articulation_points=tuple(v for v in g.vertices() if cut[v - 1]),
        all_cliques=sum(len(b) * (len(b) - 1) for b in blocks) == 2 * g.m,
        rooted=tuple((index[block], u) for block, u, _ in reversed(popped)),
        _blocks_of=tuple(map(tuple, blocks_of)),
        _arts_of=tuple(tuple(v for v in block if cut[v - 1]) for block in blocks),
        _preorder=tuple(preorder),
        _spans=tuple(span for _, _, span in ranked),
    )


def is_block_graph(g: Graph) -> bool:
    """True iff every block of the connected graph g induces a clique."""
    return g.decomposition.all_cliques


@dataclass(frozen=True)
class StarlikeProfile:
    """Hub vertex plus the clique-chain length of each arm."""

    hub: int
    arms: tuple[int, ...]  # sorted non-increasing


def starlike_profile(g: Graph) -> StarlikeProfile | None:
    """Recognize r >= 3 equal-clique chains meeting at one shared vertex.

    The hub must be the unique vertex lying in three or more blocks, and every
    component of g minus the hub, together with the hub, must form a clique
    chain in which the hub is a non-articulation vertex of a terminal clique.
    Returns None when the shape does not match.
    """
    dec = g.decomposition
    sizes = {len(b) for b in dec.blocks}
    if not dec.all_cliques or len(sizes) != 1 or min(sizes) < 2:
        return None
    hubs = [a for a in dec.articulation_points if len(dec.blocks_containing(a)) >= 3]
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    arms = []
    for block in dec.blocks_containing(hub):
        # walk the arm's chain of blocks away from the hub; every articulation
        # point but the hub lies in exactly two blocks, so each step is forced
        entry, length = hub, 0
        while True:
            exits = [a for a in dec.articulations_in_block(block) if a != entry]
            if not exits:
                break
            if len(exits) > 1:
                return None  # the chain branches, or the hub's clique is interior
            (entry,) = exits
            (block,) = (b for b in dec.blocks_containing(entry) if b != block)
            length += 1
        arms.append(length)
    return StarlikeProfile(hub=hub, arms=tuple(sorted(arms, reverse=True)))
