import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from blockspectra import (
    block_path,
    block_starlike,
    build_graph,
    check_coalescence,
    check_kirkland_identities,
    check_path_parity,
    check_starlike_case_a,
    check_starlike_equal_arms,
    check_twins_lemma,
    classify_perron,
    complete_graph,
    parse_arms,
    parse_grid,
    path_graph,
    reports_to_csv,
    reports_to_json,
    run_theorem,
    spectral_summary,
    sweep,
)
from blockspectra import verify
from _util import clique_tree, to_networkx


class TestTwinsChecker:
    def test_two_cliques(self):
        report = check_twins_lemma(block_path(4, 1))
        assert report.status == "pass"
        assert report.assertions == 2  # classes {1,2,3} and {5,6,7}, one vector
        assert report.measurements["max_twin_gap_rel"] <= 1e-8

    def test_three_triangles_in_a_chain(self):
        assert check_twins_lemma(block_path(3, 2)).status == "pass"

    def test_equal_arm_starlike_all_vectors(self):
        report = check_twins_lemma(block_starlike(3, 4, [1, 1, 1]))
        assert report.status == "pass"
        # 6 twin classes of size >= 2, times 2 basis vectors
        assert report.assertions == 12

    def test_reads_the_unreduced_eigensolver(self, monkeypatch):
        # spectral_summary's lifted vectors are constant on the twin classes
        # by construction, so the checker solves all of L
        rows = []

        def counted(m, *args, _original=verify.eig_sym, **kwargs):
            rows.append(len(m))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(verify, "eig_sym", counted)
        monkeypatch.setattr(verify, "spectral_summary", None)
        assert check_twins_lemma(block_path(4, 3)).status == "pass"
        assert rows == [13]

    def test_non_block_graph_rejected(self):
        square = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(ValueError, match="block graph"):
            check_twins_lemma(square)

    def test_clique_rejected(self):
        with pytest.raises(ValueError, match="articulation"):
            check_twins_lemma(complete_graph(4))

    @pytest.mark.parametrize("g", [
        *(block_path(k, p) for k in range(2, 7) for p in range(1, 9)),
        *(clique_tree(list(rng.integers(2, 6, size=int(rng.integers(2, 6)))),
                      list(rng.integers(0, 100, size=4)))
          for rng in map(np.random.default_rng, range(40))),
    ])
    def test_one_assertion_per_twin_class_and_vector(self, g):
        # the checker reads its twin classes off the blocks; networkx groups
        # vertices by closed neighborhood independently
        nxg = to_networkx(g)
        classes = {}
        for v in nxg:
            classes.setdefault(frozenset(nxg[v]) | {v}, []).append(v)
        sized = sum(len(c) >= 2 for c in classes.values())
        report = check_twins_lemma(g)
        assert report.status == ("pass" if sized else "skip")  # a path has no twins
        assert report.assertions == report.measurements["multiplicity"] * sized


class TestParityChecker:
    def test_odd_chain(self):
        report = check_path_parity(4, 3)
        assert report.status == "pass"
        assert report.measurements["verdict"] == "B"
        assert report.measurements["zero_vertex"] == 7

    def test_even_chain(self):
        report = check_path_parity(4, 2)
        assert report.status == "pass"
        assert report.measurements["verdict"] == "A"

    def test_shortest_path(self):
        report = check_path_parity(2, 1)
        assert report.status == "pass"
        assert report.measurements["zero_vertex"] == 2

    def test_margins_recorded_on_pass(self):
        report = check_path_parity(4, 3)
        assert "tie_gap_rel" in report.measurements
        assert "min_distinct_margin_rel" in report.measurements
        assert report.measurements["min_distinct_margin_rel"] > 1e-6

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError, match="p >= 1"):
            check_path_parity(4, 0)

    def test_failure_names_what_it_got_and_expected(self, monkeypatch):
        monkeypatch.setattr(verify, "center_label", lambda k, p: 0)
        report = check_path_parity(4, 3)
        assert report.status == "fail"
        assert report.failures == ("tied vertex is the chain center: got 7, expected 0",)


class TestEqualArmsChecker:
    def test_clique_arms(self):
        report = check_starlike_equal_arms(3, 4, 1)
        assert report.status == "pass"
        assert report.measurements["multiplicity"] == 2

    def test_spider(self):
        report = check_starlike_equal_arms(3, 2, 1)
        assert report.status == "pass"
        assert report.measurements["multiplicity"] == 2

    def test_two_arms(self):
        report = check_starlike_equal_arms(2, 3, 1)
        assert report.status == "pass"
        assert report.measurements["multiplicity"] == 1


class TestStarlikeCaseAChecker:
    def test_three_distinct_arms(self):
        report = check_starlike_case_a(3, 4, [3, 2, 1])
        assert report.status == "pass"
        assert report.measurements["verdict"] == "A"

    def test_small_instance(self):
        report = check_starlike_case_a(3, 3, [2, 1, 1])
        assert report.status == "pass"

    def test_boundary_instance_satisfies_hypothesis(self):
        # second plus third plus one exactly reaches the first arm
        report = check_starlike_case_a(3, 3, [3, 1, 1])
        assert report.status == "pass"

    def test_hypothesis_violation_skips_but_logs(self):
        report = check_starlike_case_a(3, 3, [3, 1, 0])
        assert report.status == "skip"
        assert report.assertions == 0
        assert "verdict" in report.measurements  # still computed for exploration

    def test_equal_arms_hypothesis_violation(self):
        report = check_starlike_case_a(3, 3, [2, 2, 2])
        assert report.status == "skip"

    @pytest.mark.parametrize("instance, status", [
        ({"k": 3, "p1": 2, "p2": 1, "p3": 1}, "pass"),
        ({"k": 3, "p1": 3, "p2": 1, "p3": 0}, "skip"),  # outside the hypothesis
        ({"r": 3, "k": 3, "arms": "2,1,1"}, "pass"),
    ])
    def test_report_echoes_the_instance_given(self, instance, status):
        report = run_theorem("starlike-A", instance)
        assert report.status == status
        assert report.instance == instance

    def test_report_names_the_arms_without_an_instance(self):
        report = check_starlike_case_a(3, 3, (2, 1, 1))
        assert report.instance == {"r": 3, "k": 3, "arms": "2,1,1"}


class TestCoalescenceChecker:
    def test_reference_instance(self):
        report = check_coalescence(4, 3)
        assert report.status == "pass"
        assert round(report.measurements["lambda2_original"], 5) == 0.32938
        assert round(report.measurements["lambda2_coalesced"], 5) == 0.32938
        assert report.measurements["arm_profile"] == "1,1,0"
        assert report.measurements["new_block_joins_tie"] == 0

    def test_path_to_star(self):
        report = check_coalescence(2, 1)
        assert report.status == "pass"
        assert report.measurements["lambda2_original"] == pytest.approx(1.0, abs=1e-9)
        assert report.measurements["lambda2_coalesced"] == pytest.approx(1.0, abs=1e-9)
        # all three leaves tie, so the fresh block joins the tie
        assert report.measurements["new_block_joins_tie"] == 1
        assert report.measurements["arm_profile"] == "0,0,0"

    def test_triangles(self):
        assert check_coalescence(3, 3).status == "pass"

    def test_preservation_is_relative_to_lambda2(self, monkeypatch):
        # the coalesced graph's lambda2 off by 1e-6 relative, 9.3e-10 here
        base_n = block_path(2, 101).n

        def inflated(graph):
            summary = spectral_summary(graph)
            if graph.n == base_n:
                return summary
            return dataclasses.replace(summary, lambda2=summary.lambda2 * (1 + 1e-6))

        monkeypatch.setattr(verify, "spectral_summary", inflated)
        report = check_coalescence(2, 101)
        assert report.measurements["lambda2_original"] == pytest.approx(9.3e-4, rel=0.01)
        assert report.status == "fail"
        assert [f.split(":")[0] for f in report.failures] == ["lambda2 preserved"]

    def test_even_p_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            check_coalescence(4, 2)

    def test_per_vector_failures_print_plain_floats(self, monkeypatch):
        # no value lies below a negative tolerance, so every bound fails
        monkeypatch.setattr(verify, "IDENTITY_REL_TOL", -1.0)
        report = check_coalescence(4, 3)
        per_vector = [f for f in report.failures if f.startswith("new-block")]
        assert [f.split(" in vector")[0] for f in per_vector] == [
            "new-block twins equal", "new-block pinning identity", "new-block entries vanish",
        ]
        for failure in per_vector:
            got = failure.split(": got ")[1].removesuffix(" (tolerance -1.0)")
            assert repr(float(got)) == got  # not np.float64(...)


class TestKirklandChecker:
    def test_odd_chain(self):
        report = check_kirkland_identities(block_path(4, 3))
        assert report.status == "pass"
        assert report.measurements["perron_component_count"] == 2
        assert report.measurements["max_reciprocal_gap"] <= 1e-8

    def test_equal_arm_starlike(self):
        report = check_kirkland_identities(block_starlike(3, 4, [1, 1, 1]))
        assert report.status == "pass"
        assert report.measurements["perron_component_count"] == 3

    def test_short_path(self):
        report = check_kirkland_identities(path_graph(3))
        assert report.status == "pass"
        assert report.measurements["lambda2"] == pytest.approx(1.0, abs=1e-10)

    def test_untied_arm_vanishes(self):
        # arms 2, 2, 1 at hub 1: the short arm is the untied component, on
        # which every Fiedler vector must vanish
        report = check_kirkland_identities(block_starlike(3, 4, [2, 2, 1]))
        assert report.status == "pass"
        assert report.assertions == 10
        assert report.measurements["perron_component_count"] == 2

    def test_case_a_rejected(self):
        with pytest.raises(ValueError, match="case-B"):
            check_kirkland_identities(block_path(4, 2))

    @pytest.mark.parametrize("g,lambda2", [
        (build_graph(13, block_path(4, 3).edges,
                     {e: 1e-3 for e in block_path(4, 3).edges}), 3.3e-4),
        (block_path(2, 397), 6.2e-5),
    ], ids=["block_path(4,3)@1e-3", "block_path(2,397)"])
    def test_reciprocal_identity_is_relative_to_lambda2(self, monkeypatch, g, lambda2):
        # a Perron value off by 1e-6 relative moves 1/rho by about 1e-6 *
        # lambda2, far below an absolute 1e-8 when lambda2 is small
        def inflated(graph):
            classification, by_vertex = classify_perron(graph)
            return classification, {
                v: dataclasses.replace(d, values=tuple(x * (1 + 1e-6) for x in d.values))
                for v, d in by_vertex.items()
            }

        monkeypatch.setattr(verify, "classify_perron", inflated)
        report = check_kirkland_identities(g)
        assert report.measurements["lambda2"] == pytest.approx(lambda2, rel=0.02)
        assert report.status == "fail"
        assert all(f.startswith("lambda2 equals reciprocal") for f in report.failures)

    def test_checks_every_other_cut_vertex(self):
        # the maximizer test means something only where deleting v leaves
        # two or more components, so it runs at every cut vertex but z and
        # at no other vertex
        g = block_path(4, 5)
        report = check_kirkland_identities(g)
        assert report.status == "pass"
        assert report.measurements["sampled_vertices"] == len(g.decomposition.articulation_points) - 1


class TestSweep:
    def test_parity_grid(self):
        reports = sweep({"k": range(2, 7), "p": range(1, 9)}, "path-parity")
        assert len(reports) == 40
        assert all(r.status == "pass" for r in reports)

    def test_empty_grid(self):
        assert sweep({}, "path-parity") == []

    def test_unknown_theorem(self):
        for grid in ({"k": [2]}, {}):
            with pytest.raises(ValueError, match="unknown theorem"):
                sweep(grid, "no-such-theorem")

    def test_coalescence_grid_skips_even(self):
        reports = sweep({"k": [3], "p": range(1, 5)}, "coalescence")
        statuses = [r.status for r in reports]
        assert statuses == ["pass", "skip", "pass", "skip"]

    def test_determinism(self):
        grid = {"k": [2, 3], "p": [1, 2]}
        for theorem in ("path-parity", "kirkland"):
            first, second = sweep(grid, theorem), sweep(grid, theorem)
            assert [r.status for r in first] == [r.status for r in second]
            assert [r.instance for r in first] == [r.instance for r in second]
            for a, b in zip(first, second):
                assert a.measurements == b.measurements  # bit-identical reruns

    def test_kirkland_grid_skips_case_a(self):
        reports = sweep({"k": [4], "p": [2, 3]}, "kirkland")
        assert [r.status for r in reports] == ["skip", "pass"]

    def test_desk_scale_guard(self):
        reports = sweep({"k": [100], "p": [5]}, "path-parity")
        assert reports[0].status == "skip"
        assert "desk-scale" in reports[0].failures[0]

    @pytest.mark.parametrize("theorem", ["kirkland", "twins"])
    def test_oversized_instance_skips_before_building(self, theorem):
        report = run_theorem(theorem, {"k": 1500, "p": 1})
        assert report.status == "skip"
        assert report.failures == ("graph has 2999 vertices, above the desk-scale cap 400",)
        assert report.elapsed_s < 1.0

    @pytest.mark.parametrize("theorem, instance", [
        ("twins", {"k": 4, "p": 1, "r": 2}),
        ("path-parity", {"k": 2, "p": 1, "r": 2}),
        ("equal-arms", {"r": 3, "k": 3, "p": 1, "arms": "1,1,1"}),
        ("starlike-A", {"k": 3, "p1": 2, "p2": 1, "p3": 1, "p": 4}),
        ("coalescence", {"k": 3, "p": 1, "r": 2}),
        ("kirkland", {"k": 3, "p": 3, "r": 2}),
    ])
    def test_report_echoes_keys_the_theorem_does_not_read(self, theorem, instance):
        # each instance holds one key its theorem ignores; the reports of
        # two instances that differ only there must still tell them apart
        report = run_theorem(theorem, instance)
        assert report.status == "pass"
        assert report.instance == instance

    @pytest.mark.parametrize("theorem, instance, failure", [
        ("starlike-A", {"k": 3, "arms": 2}, "arm count must be >= 2, got 1"),
        ("starlike-A", {"k": 3, "arms": 3}, "arm count must be >= 2, got 1"),
        ("twins", {"r": 3, "k": 3, "arms": 2}, "expected 3 arm lengths, got 1"),
        ("kirkland", {"r": 3, "k": 3, "arms": 2}, "expected 3 arm lengths, got 1"),
    ])
    def test_integer_arms_is_one_arm(self, theorem, instance, failure):
        # a sweep term gives arms as an integer, read as "--arms 2" is
        report = run_theorem(theorem, instance)
        assert report.status == "skip"
        assert report.failures == (failure,)
        assert report.instance == instance

    def test_run_theorem_missing_parameter(self):
        with pytest.raises(ValueError, match="^theorem 'path-parity' needs parameter 'p'$"):
            run_theorem("path-parity", {"k": 4})

    def test_run_theorem_other_key_error_is_reported(self, monkeypatch):
        def broken(k, p):
            raise KeyError("k")  # a key the instance has

        monkeypatch.setattr(verify, "check_path_parity", broken)
        report = run_theorem("path-parity", {"k": 4, "p": 1})
        assert report.status == "error"
        assert report.failures == ("KeyError: 'k'",)


class TestGridParsing:
    def test_ranges(self):
        assert parse_grid("k=2..6,p=1..8") == {
            "k": list(range(2, 7)), "p": list(range(1, 9))
        }

    def test_single_values(self):
        assert parse_grid("k=4,p=3") == {"k": [4], "p": [3]}

    def test_empty(self):
        assert parse_grid("") == {}

    def test_repeated_name_rejected(self):
        # otherwise the later term would silently replace the earlier one
        with pytest.raises(ValueError, match="'k' twice"):
            parse_grid("k=2,k=3,p=1")

    @pytest.mark.parametrize("text,message", [
        ("=1..3", "has an empty name"),
        ("k=x", "grid value in 'k=x' must be an integer"),
    ])
    def test_rejected_term(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_grid(text)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("k~2..6")
        with pytest.raises(ValueError):
            parse_grid("k=a..b")
        with pytest.raises(ValueError):
            parse_grid("k=6..2")

    def test_arms(self):
        assert parse_arms("3,2,1") == [3, 2, 1]
        assert parse_arms("3,,1,") == [3, 1]  # empty terms are ignored
        assert parse_arms((2, 1)) == [2, 1]
        assert parse_arms(2) == parse_arms("2") == [2]  # a sweep gives an integer
        with pytest.raises(ValueError):
            parse_arms("3,x")


class TestReportSerialization:
    def test_json_round_trip(self):
        reports = sweep({"k": [2, 3], "p": [1]}, "path-parity")
        data = json.loads(reports_to_json(reports))
        assert len(data) == 2
        assert data[0]["theorem"] == "path-parity"
        assert data[0]["status"] == "pass"
        assert data[0]["assertions"] > 0
        assert "measurements" in data[0]

    def test_csv_shape(self):
        reports = sweep({"k": [2], "p": [1, 2, 3]}, "path-parity")
        rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert rows[0] == ["theorem", "instance", "status", "assertions",
                           "elapsed_s", "measurements", "failures"]
        assert len(rows) == 4
        assert rows[1][1] == "k=2,p=1"

    def test_failures_column_carries_tolerance(self, monkeypatch):
        # no gap lies below a negative tolerance, so every twin check fails
        monkeypatch.setattr(verify, "IDENTITY_REL_TOL", -1.0)
        report = check_twins_lemma(block_path(4, 1))
        assert report.status == "fail"
        assert "(tolerance -1.0)" in reports_to_csv([report])
