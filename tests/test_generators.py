from itertools import combinations_with_replacement

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspectra import (
    block_decomposition,
    block_path,
    block_starlike,
    broom_tree,
    center,
    center_label,
    coalesce,
    complete_graph,
    is_block_graph,
    path_graph,
    star_graph,
)
from _util import delete_vertex_components, to_networkx


class TestBlockPath:
    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("p", range(0, 11))
    def test_vertex_count_formula(self, k, p):
        assert block_path(k, p).n == k * (p + 1) - p

    def test_structure_4_3(self):
        g = block_path(4, 3)
        assert g.n == 13
        dec = block_decomposition(g)
        assert dec.articulation_points == (4, 7, 10)
        assert dec.articulation_points == tuple(j * 4 - j + 1 for j in range(1, 4))

    def test_p_zero_is_single_clique(self):
        assert block_path(4, 0) == complete_graph(4)

    def test_k2_is_path(self):
        assert block_path(2, 3) == path_graph(5)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="clique size"):
            block_path(1, 3)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            block_path(3, -1)

    def test_size_cap(self):
        assert block_path(2, 398).n == 400
        with pytest.raises(ValueError, match="desk-scale cap 400"):
            block_path(2, 399)

    @pytest.mark.parametrize("k,p", [(2, 4), (3, 3), (4, 2), (5, 5), (6, 1)])
    def test_blocks_are_p_plus_1_cliques_of_size_k(self, k, p):
        g = block_path(k, p)
        assert is_block_graph(g)
        dec = block_decomposition(g)
        assert len(dec.blocks) == p + 1
        assert all(len(b) == k for b in dec.blocks)
        assert dec.articulation_points == tuple(j * k - j + 1 for j in range(1, p + 1))
        # the block-cut tree is a path
        assert all(len(dec.blocks_containing(a)) == 2 for a in dec.articulation_points)
        assert all(len(dec.articulations_in_block(i)) <= 2 for i in range(p + 1))


class TestCenterLabel:
    def test_known_values(self):
        assert center_label(4, 3) == 7
        assert center_label(2, 1) == 2
        assert center_label(5, 5) == 13

    def test_even_p_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            center_label(4, 2)

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("p", [1, 3, 5, 7])
    def test_center_of_odd_chain_is_the_labeled_articulation(self, k, p):
        g = block_path(k, p)
        assert center(g) == (center_label(k, p),)
        assert center_label(k, p) in block_decomposition(g).articulation_points


class TestBlockStarlike:
    def test_equal_arm_count(self):
        g = block_starlike(3, 4, [1, 1, 1])
        assert g.n == 19

    def test_unequal_arm_count(self):
        # 1 + sum of k(p+1) - p - 1 over arms [3, 2, 1] with k = 4
        g = block_starlike(3, 4, [3, 2, 1])
        assert g.n == 1 + 12 + 9 + 6 == 28

    def test_arm_components_are_clique_chains(self):
        g = block_starlike(3, 4, [3, 2, 1])
        comps = delete_vertex_components(g, 1)
        assert [len(c) for c in comps] == [12, 9, 6]
        arms = to_networkx(g)
        for comp, p in zip(comps, [3, 2, 1]):
            arm = arms.subgraph(list(comp) + [1])
            assert nx.is_isomorphic(arm, to_networkx(block_path(4, p)))

    def test_two_arms_collapse_to_a_chain(self):
        g = block_starlike(2, 3, [1, 1])
        assert nx.is_isomorphic(to_networkx(g), to_networkx(block_path(3, 3)))

    def test_attachment_order_does_not_change_the_graph(self):
        direct = block_starlike(3, 3, [2, 1, 1])
        shuffled = coalesce(
            coalesce(block_path(3, 1), 1, block_path(3, 2), 1),
            1,
            block_path(3, 1),
            1,
        )
        assert nx.is_isomorphic(to_networkx(direct), to_networkx(shuffled))

    @pytest.mark.parametrize("r", range(2, 6))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_labels_match_the_coalesced_chains(self, r, k):
        # the documented labeling: arm chains glued at their vertex 1, in order
        for arms in combinations_with_replacement(range(4, -1, -1), r):
            chained = block_path(k, arms[0])
            for p in arms[1:]:
                chained = coalesce(chained, 1, block_path(k, p), 1)
            assert block_starlike(r, k, arms) == chained, arms

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="clique size"):
            block_starlike(3, 1, [1, 1, 1])

    def test_unsorted_arms_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            block_starlike(3, 4, [1, 2, 3])

    def test_small_r_rejected(self):
        with pytest.raises(ValueError, match="arm count"):
            block_starlike(1, 4, [1])

    def test_arm_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arm lengths"):
            block_starlike(3, 4, [1, 1])

    def test_negative_arm_rejected(self):
        with pytest.raises(ValueError, match="arm lengths must be >= 0"):
            block_starlike(3, 3, [1, 0, -1])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.lists(st.integers(0, 3), min_size=2, max_size=4),
    )
    def test_counts_and_block_structure(self, r, k, raw_arms):
        arms = sorted(raw_arms, reverse=True)[:r]
        while len(arms) < r:
            arms.append(arms[-1] if arms else 0)
        arms = sorted(arms, reverse=True)
        g = block_starlike(r, k, arms)
        assert g.n == 1 + sum(k * (p + 1) - p - 1 for p in arms)
        assert nx.is_connected(to_networkx(g))
        assert is_block_graph(g)
        dec = block_decomposition(g)
        assert len(dec.blocks) == sum(p + 1 for p in arms)
        assert all(len(b) == k for b in dec.blocks)


class TestReferenceTrees:
    def test_path_equals_degenerate_chain(self):
        assert path_graph(3) == block_path(2, 1)

    def test_path_single_vertex(self):
        g = path_graph(1)
        assert g.n == 1 and g.m == 0

    def test_star(self):
        g = star_graph(3)
        assert g.n == 4
        assert len(g.neighbors(1)) == 3

    def test_complete(self):
        assert complete_graph(4).m == 6

    def test_broom_degenerates_to_star(self):
        assert broom_tree(1, 5) == star_graph(5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_broom_is_a_tree(self, handle, bristles):
        g = broom_tree(handle, bristles)
        assert g.n == handle + bristles
        assert g.m == g.n - 1
        assert nx.is_connected(to_networkx(g))
        assert len(g.neighbors(handle)) == bristles + (1 if handle > 1 else 0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            star_graph(0)
        with pytest.raises(ValueError):
            complete_graph(0)
        with pytest.raises(ValueError):
            broom_tree(0, 2)
        with pytest.raises(ValueError):
            broom_tree(2, 0)
