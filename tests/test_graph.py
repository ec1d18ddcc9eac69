import math

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockspectra
from blockspectra import (
    Graph,
    StarlikeProfile,
    block_decomposition,
    block_path,
    block_starlike,
    broom_tree,
    build_graph,
    center,
    check_twins_lemma,
    coalesce,
    complete_graph,
    is_block_graph,
    path_graph,
    star_graph,
    starlike_profile,
)
from blockspectra.graph import DESK_SCALE_LIMIT
from _util import (
    articulation_oracle,
    clique_tree,
    delete_vertex_components,
    prufer_tree,
    to_networkx,
)

clique_trees = st.builds(
    clique_tree,
    st.lists(st.integers(2, 5), min_size=1, max_size=4),
    st.lists(st.integers(0, 100), min_size=3, max_size=3),
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 9))
    seq = [draw(st.integers(1, n)) for _ in range(n - 2)]
    tree = prufer_tree(n, seq)
    edges = set(tree.edges)
    for _ in range(draw(st.integers(0, 5))):
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(1, 2)])
        assert g.n == 2 and g.edges == ((1, 2),) and g.weights == (1.0,)

    def test_k3(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert g.m == 3
        assert len(g.neighbors(2)) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(1, 4)])

    @pytest.mark.parametrize("n, edges, message", [
        # the message names the edge as given, not as stored
        (5, [(1, 2), (9, 2), (6, 1)], "edge (9,2) out of range 1..5"),
        (5, [(2, 3), (0, 1)], "edge (0,1) out of range 1..5"),
        # the first offending edge in input order wins, whatever its fault
        (5, [(1, 2), (4, 4), (2, 1)], "self-loop at vertex 4"),
        (5, [(1, 2), (2, 1), (4, 4)], "duplicate edge (1,2)"),
        (5, [(3, 4), (2, 3), (4, 3)], "duplicate edge (3,4)"),
        (5, [(4, 3), (3, 4)], "duplicate edge (3,4)"),
        (5, [(1, 2), (2, 1), (7, 1)], "duplicate edge (1,2)"),
    ])
    def test_first_edge_error_is_named_exactly(self, n, edges, message):
        with pytest.raises(ValueError) as caught:
            build_graph(n, edges)
        assert str(caught.value) == message

    def test_edges_are_stored_sorted_in_ascending_orientation(self):
        g = build_graph(4, iter([(4, 3), (2, 1), (1, 3)]), {(3, 4): 2.0})
        assert g.edges == ((1, 2), (1, 3), (3, 4))
        assert g.weights == (1.0, 1.0, 2.0)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="not positive and finite"):
            build_graph(2, [(1, 2)], {(1, 2): 0.0})

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_non_finite_weight_rejected(self, w):
        # an infinite weight would make lambda2 Infinity and leave the
        # structural route no vector to test
        with pytest.raises(ValueError, match=r"weight .* on edge \(1,2\) is not positive and finite"):
            build_graph(3, [(1, 2), (2, 3)], {(2, 1): w})

    def test_weight_on_non_edge_rejected(self):
        with pytest.raises(ValueError, match="non-edge"):
            build_graph(3, [(1, 2)], {(2, 3): 1.0})

    def test_weights_default_and_lookup(self):
        g = build_graph(3, [(1, 2), (2, 3)], {(3, 2): 2.5})
        weights = dict(zip(g.edges, g.weights))
        assert weights[(1, 2)] == 1.0
        assert weights[(2, 3)] == 2.5
        assert (3, 2) not in weights

    def test_size_cap_checked_before_any_edge_is_read(self):
        def unreadable():
            raise AssertionError("edges drawn from an oversized graph")
            yield (1, 2)

        with pytest.raises(ValueError, match="graph has 401 vertices, above the desk-scale cap 400"):
            build_graph(DESK_SCALE_LIMIT + 1, unreadable())


class TestBlockDecomposition:
    def test_single_clique(self):
        dec = block_decomposition(complete_graph(4))
        assert dec.blocks == ((1, 2, 3, 4),)
        assert dec.articulation_points == ()

    def test_short_path(self):
        dec = block_decomposition(path_graph(3))
        assert dec.blocks == ((1, 2), (2, 3))
        assert dec.articulation_points == (2,)

    def test_clique_chain_4_3(self):
        g = block_path(4, 3)
        dec = block_decomposition(g)
        assert len(dec.blocks) == 4
        assert all(len(b) == 4 for b in dec.blocks)
        assert dec.articulation_points == (4, 7, 10)
        assert set(dec.articulation_points) == articulation_oracle(g)

    def test_single_vertex(self):
        dec = block_decomposition(build_graph(1, []))
        assert dec.blocks == ((1,),)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            block_decomposition(build_graph(4, [(1, 2), (3, 4)]))

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_every_edge_in_exactly_one_block(self, g):
        dec = block_decomposition(g)
        for u, v in g.edges:
            holders = [
                b for b in dec.blocks if u in b and v in b
            ]
            assert len(holders) >= 1
        # edges partition across blocks: block-internal edge counts sum to m
        total = 0
        for b in dec.blocks:
            inside = {(u, v) for u, v in g.edges if u in b and v in b}
            total += len(inside)
        assert total == g.m

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_articulation_points_match_deletion_oracle(self, g):
        dec = block_decomposition(g)
        assert set(dec.articulation_points) == articulation_oracle(g)
        for v in dec.articulation_points:
            assert len(delete_vertex_components(g, v)) >= 2

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_vertex_is_articulation_iff_in_two_blocks(self, g):
        dec = block_decomposition(g)
        for v in g.vertices():
            in_blocks = len(dec.blocks_containing(v))
            if v in dec.articulation_points:
                assert in_blocks >= 2
            else:
                assert in_blocks == 1 or g.n == 1

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    def test_block_cut_tree_is_connected_and_acyclic(self, g):
        dec = block_decomposition(g)
        tree = nx.Graph()
        tree.add_nodes_from(f"b{i}" for i in range(len(dec.blocks)))
        tree.add_nodes_from(f"a{v}" for v in dec.articulation_points)
        tree.add_edges_from(
            (f"b{i}", f"a{v}")
            for i in range(len(dec.blocks)) for v in dec.articulations_in_block(i)
        )
        assert nx.is_connected(tree)
        assert nx.is_forest(tree)
        # rooted at vertex 1: every block once, each after the block it hangs from
        assert sorted(i for i, _ in dec.rooted) == list(range(len(dec.blocks)))
        listed: set[int] = set()
        for i, v in dec.rooted:
            if 1 in dec.blocks[i]:
                assert v == 1
            else:
                assert v in dec.articulations_in_block(i) and v in listed
            listed.update(dec.blocks[i])

    @settings(max_examples=50, deadline=None)
    @given(connected_graphs())
    # vertex 1 is a cut vertex of the star and of the starlike graph
    @example(build_graph(1, []))
    @example(star_graph(4))
    @example(block_starlike(3, 4, [3, 2, 1]))
    # at vertex 2 the search subtree of 3 stays with 1: the rest is two runs
    @example(build_graph(4, [(1, 2), (2, 3), (1, 3), (2, 4)]))
    # the search leaves 1 into {1, 3} before {1, 4}, whose run holds the smaller 2
    @example(build_graph(4, [(1, 3), (1, 4), (2, 4)]))
    def test_components_without_match_deletion_oracle(self, g):
        dec = block_decomposition(g)
        components, support, ground = dec.cut_components()
        assert len(components) == len(dec.articulation_points)
        items = []
        for v, comps in zip(dec.articulation_points, components):
            assert comps == tuple(delete_vertex_components(g, v))
            items += [(v, c) for c in comps]
        assert support.shape == (len(items), g.n) and support.flags.c_contiguous
        for row, grounded, (v, c) in zip(support, ground, items):
            assert grounded == v - 1
            assert row.nonzero()[0].tolist() == [u - 1 for u in c]


class TestIsBlockGraph:
    def test_trees_are_block_graphs(self):
        assert is_block_graph(path_graph(6))
        assert is_block_graph(star_graph(4))

    def test_cycle_is_not(self):
        assert not is_block_graph(build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))

    def test_starlike_member(self):
        assert is_block_graph(block_starlike(3, 4, [3, 2, 1]))

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs())
    @example(build_graph(1, []))
    @example(complete_graph(2))
    @example(star_graph(4))
    # a 4-cycle through the root with a pendant: two blocks pop at vertex 1
    @example(build_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)]))
    def test_matches_biconnected_clique_oracle(self, g):
        nxg = to_networkx(g)
        components = list(nx.biconnected_components(nxg))
        expected = all(
            nxg.subgraph(comp).number_of_edges() == len(comp) * (len(comp) - 1) // 2
            for comp in components
        )
        assert is_block_graph(g) == expected
        # networkx gives a lone vertex no component; it is a block of its own
        blocks = {tuple(sorted(comp)) for comp in components} or {(1,)}
        assert set(block_decomposition(g).blocks) == blocks


def _pendant_triangles(base: Graph, at) -> Graph:
    for v in at:
        base = coalesce(base, v, complete_graph(3), 1)
    return base


# (graph, starlike_profile)
SHAPES = {
    # vertex 1 is the only vertex in three blocks, but its first triangle also
    # carries pendant triangles at 2 and 3, so that arm does not end at 1
    "hub in an interior clique": (
        _pendant_triangles(complete_graph(3), [2, 3, 1, 1]), None),
    "mixed clique sizes at a hub": (
        coalesce(block_starlike(3, 3, [1, 1, 1]), 1, complete_graph(4), 1), None),
    "mixed clique sizes along a chain": (
        coalesce(block_path(3, 1), 5, complete_graph(4), 1), None),
    "two vertices in three blocks": (
        build_graph(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)]), None),
    "a block with three articulation points": (
        _pendant_triangles(complete_graph(3), [1, 2, 3]), None),
    "C4": (build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), None),
    "K1": (build_graph(1, []), None),
    "K4": (complete_graph(4), None),
    "two arms (r = 2)": (block_starlike(2, 3, [1, 1]), None),
    "path": (path_graph(5), None),
    "equal arms": (
        block_starlike(3, 4, [1, 1, 1]), StarlikeProfile(1, (1, 1, 1))),
    "unequal arms": (
        block_starlike(3, 4, [3, 2, 1]), StarlikeProfile(1, (3, 2, 1))),
    "zero-length arms": (
        block_starlike(4, 3, [2, 0, 0, 0]), StarlikeProfile(1, (2, 0, 0, 0))),
    "star": (star_graph(4), StarlikeProfile(1, (0, 0, 0, 0))),
    "broom": (broom_tree(4, 3), StarlikeProfile(4, (2, 0, 0, 0))),
}


def _count_decompositions(monkeypatch) -> list:
    """Route every library reference to `block_decomposition` through a
    counter; returns the list of graphs it is called on."""
    calls = []

    def counted(g):
        calls.append(g)
        return block_decomposition(g)

    for module in (blockspectra.blocks, blockspectra.spectral, blockspectra.verify):
        if getattr(module, "block_decomposition", None) is block_decomposition:
            monkeypatch.setattr(module, "block_decomposition", counted)
    return calls


class TestShapeQueries:
    @pytest.mark.parametrize("name", SHAPES)
    def test_starlike_profile(self, name):
        g, expected = SHAPES[name]
        assert starlike_profile(g) == expected

    @pytest.mark.parametrize("query", [is_block_graph, starlike_profile, check_twins_lemma])
    def test_one_decomposition_per_query(self, query, monkeypatch):
        calls = _count_decompositions(monkeypatch)
        query(block_starlike(3, 3, [2, 1, 1]))
        assert len(calls) == 1

    def test_queries_on_one_graph_share_its_decomposition(self, monkeypatch):
        calls = _count_decompositions(monkeypatch)
        g = block_starlike(3, 3, [2, 1, 1])
        for query in (is_block_graph, starlike_profile, check_twins_lemma):
            query(g)
        assert calls == [g]
        assert g.decomposition is g.decomposition
        assert g.decomposition == block_decomposition(g)


class TestMetric:
    def test_center_of_path(self):
        assert center(path_graph(3)) == (2,)

    def test_center_of_odd_chain(self):
        assert center(block_path(4, 3)) == (7,)

    def test_center_of_unequal_starlike(self):
        # the hub ties with its clique-mates toward the longest arm
        g = block_starlike(3, 4, [3, 2, 1])
        ecc = nx.eccentricity(to_networkx(g))
        best = min(ecc.values())
        expected = tuple(sorted(v for v, e in ecc.items() if e == best))
        assert center(g) == expected
        assert center(g) == (1, 2, 3, 4)
        assert 1 in center(g)

    def test_center_of_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="eccentricity requires a connected graph"):
            center(build_graph(4, [(1, 2), (3, 4)]))


class TestDeleteVertexComponents:
    def test_path_middle(self):
        assert delete_vertex_components(path_graph(3), 2) == [(1,), (3,)]

    def test_clique_any(self):
        assert delete_vertex_components(complete_graph(4), 1) == [(2, 3, 4)]

    def test_chain_center(self):
        comps = delete_vertex_components(block_path(4, 3), 7)
        assert [len(c) for c in comps] == [6, 6]
        assert comps[0] == (1, 2, 3, 4, 5, 6)
        assert comps[1] == (8, 9, 10, 11, 12, 13)


class TestCoalesce:
    def test_two_edges_make_a_path(self):
        g = coalesce(complete_graph(2), 2, complete_graph(2), 1)
        assert g.edges == ((1, 2), (2, 3))

    def test_counts_and_identified_degree(self):
        g = block_path(4, 3)
        h = complete_graph(4)
        merged = coalesce(g, 7, h, 1)
        assert merged.n == g.n + h.n - 1 == 16
        assert len(merged.neighbors(7)) == len(g.neighbors(7)) + len(h.neighbors(1))

    def test_chain_glue_is_isomorphic_to_longer_chain(self):
        a = block_path(3, 1)
        b = block_path(3, 1)
        merged = coalesce(a, a.n, b, 1)
        assert nx.is_isomorphic(to_networkx(merged), to_networkx(block_path(3, 3)))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            coalesce(complete_graph(2), 5, complete_graph(2), 1)

    @settings(max_examples=40, deadline=None)
    @given(clique_trees, clique_trees, st.integers(0, 100), st.integers(0, 100))
    def test_coalesce_invariants(self, g, h, pick_u, pick_w):
        u = 1 + pick_u % g.n
        w = 1 + pick_w % h.n
        merged = coalesce(g, u, h, w)
        assert merged.n == g.n + h.n - 1
        assert merged.m == g.m + h.m
        assert len(merged.neighbors(u)) == len(g.neighbors(u)) + len(h.neighbors(w))
        assert nx.is_connected(to_networkx(merged))


@pytest.mark.parametrize("build,message", [
    (lambda: build_graph(0, []), "vertex count must be >= 1, got 0"),
    (lambda: coalesce(complete_graph(2), 1, complete_graph(2), 3), r"vertex 3 out of range 1\.\.2"),
])
def test_input_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
