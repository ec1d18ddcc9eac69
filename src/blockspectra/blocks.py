"""Block structure: biconnected components, articulation points, shape queries.

The decomposition is computed with an iterative lowpoint search so that deep
chains of cliques do not hit the interpreter recursion limit.  All orderings
are deterministic: blocks are sorted by their smallest contained vertex and
neighbor lists are walked in ascending label order.
"""

from dataclasses import dataclass

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

    def components_without(self, v: int) -> tuple[tuple[int, ...], ...]:
        """Components of g minus v: sorted tuples, ordered by smallest vertex.

        Each block hanging from v (its run of the preorder starts after v)
        leaves that run as one component; the other vertices but v, if any,
        are the component holding the block v hangs from.
        """
        at = self._preorder.index(v)
        below = [self._preorder[lo:hi] for lo, hi in
                 (self._spans[i] for i in self.blocks_containing(v)) if lo > at]
        rest = set(self._preorder).difference([v], *below)
        return tuple(sorted(tuple(sorted(c)) for c in [*below, rest] if c))


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components and articulation points of a connected graph.

    The search runs from vertex 1.  A block is popped when the search leaves
    its top edge (u, v); it hangs from u, and everything found since v (the
    search subtree of v) hangs below it, one run of the preorder.  Every
    block is popped before the block it hangs from, so the pop order
    reversed lists each parent before its children.  The library reads it
    as `Graph.decomposition`, which computes it once per graph.
    """
    if g.n == 1:
        return BlockDecomposition(
            blocks=((1,),), articulation_points=(), all_cliques=True,
            rooted=((0, 1),), _blocks_of=((0,),), _arts_of=((),),
            _preorder=(1,), _spans=((1, 1),),
        )

    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    nbr_iter = [None] * (g.n + 1)
    edge_stack: list[tuple[int, int]] = []
    popped: list[tuple[tuple[int, ...], int, tuple[int, int]]] = []  # (block, u, span)
    articulation: set[int] = set()
    all_cliques = True

    root = 1
    root_children = 0
    preorder = [root]
    disc[root] = low[root] = 1
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
                edges = 0
                while True:
                    e = edge_stack.pop()
                    members.update(e)
                    edges += 1
                    if e == (u, v):
                        break
                # every edge is stacked exactly once, so the popped edges are
                # all the edges of the block
                s = len(members)
                all_cliques = all_cliques and 2 * edges == s * (s - 1)
                popped.append((tuple(sorted(members)), u, (disc[v] - 1, len(preorder))))
            continue
        if w == parent[v]:
            continue
        if disc[w] == 0:
            if v == root:
                root_children += 1
            parent[w] = v
            preorder.append(w)
            disc[w] = low[w] = len(preorder)
            nbr_iter[w] = iter(g.neighbors(w))
            edge_stack.append((v, w))
            stack.append(w)
        elif disc[w] < disc[v]:
            # back edge to an ancestor
            edge_stack.append((v, w))
            low[v] = min(low[v], disc[w])
    if len(preorder) < g.n:
        raise ValueError("block decomposition requires a connected graph")
    if root_children >= 2:
        articulation.add(root)

    ranked = sorted(popped)  # by block; no two blocks are equal
    blocks = tuple(block for block, _, _ in ranked)
    index = {block: i for i, block in enumerate(blocks)}
    blocks_of: list[list[int]] = [[] for _ in range(g.n)]
    arts_of: list[tuple[int, ...]] = []
    for i, block in enumerate(blocks):
        for v in block:
            blocks_of[v - 1].append(i)
        arts_of.append(tuple(v for v in block if v in articulation))
    return BlockDecomposition(
        blocks=blocks,
        articulation_points=tuple(sorted(articulation)),
        all_cliques=all_cliques,
        rooted=tuple((index[block], u) for block, u, _ in reversed(popped)),
        _blocks_of=tuple(map(tuple, blocks_of)),
        _arts_of=tuple(arts_of),
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
