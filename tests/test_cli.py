import ast
import csv
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

import blockspectra
from blockspectra import (
    block_path,
    block_starlike,
    build_graph,
    format_edge_list,
    linalg,
    parse_edge_list,
    reports_to_csv,
    run_theorem,
    star_graph,
)
from blockspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_block_path_roundtrip(self, capsys):
        code, out, _ = run(capsys, "gen", "block-path", "-k", "4", "-p", "3")
        assert code == 0
        g = parse_edge_list(out)
        assert g == block_path(4, 3)
        assert g.n == 13

    def test_block_starlike(self, capsys):
        code, out, _ = run(capsys, "gen", "block-starlike", "-r", "3", "-k", "4",
                           "--arms", "1,1,1")
        assert code == 0
        assert parse_edge_list(out) == block_starlike(3, 4, [1, 1, 1])

    def test_single_vertex_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "-n", "1")
        assert code == 0
        assert out.strip() == "1 0"

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "-k", "3", "--format", "dot")
        assert code == 0
        assert "graph" in out and "1 -- 2;" in out

    def test_stdout_round_trip(self, capsys):
        # every command prints its document on stdout; redirection saves it
        code, out, err = run(capsys, "gen", "star", "-q", "3")
        assert code == 0
        assert err == ""
        assert parse_edge_list(out) == star_graph(3)

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "block-path", "-k", "1", "-p", "3")
        assert code == 1
        assert "clique size" in err

    def test_unsorted_arms(self, capsys):
        code, _, err = run(capsys, "gen", "block-starlike", "-r", "3", "-k", "4",
                           "--arms", "1,2,3")
        assert code == 1
        assert "non-increasing" in err

    def test_broom(self, capsys):
        code, out, _ = run(capsys, "gen", "broom", "--handle", "3", "--bristles", "2")
        assert code == 0
        assert parse_edge_list(out).n == 5

    @pytest.mark.parametrize("argv", [
        ["path", "-n", "401"],
        ["block-path", "-k", "2", "-p", "399"],
    ])
    def test_above_the_size_cap(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 1
        assert out == ""
        assert "desk-scale cap 400" in err


@pytest.mark.parametrize("command", ["spectrum", "classify"])
def test_input_above_the_size_cap(capsys, tmp_path, command):
    path = tmp_path / "path401.edges"
    path.write_text("401 400\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 401)))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert "graph has 401 vertices, above the desk-scale cap 400" in err


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["classify", "--method", "structural"],
    ["classify", "--method", "perron"],
])
def test_infinite_weight_rejected(capsys, monkeypatch, argv):
    # accepted, it would print lambda2 = Infinity, or a verdict on no vector
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2 inf\n2 3\n"))
    code, out, err = run(capsys, argv[0], "-", *argv[1:])
    assert code == 1
    assert out == ""
    assert "weight inf on edge (1,2) is not positive and finite" in err


_PERRON_NAN = ("non-convergence: power iteration reached a non-finite value nan at "
               "step 1 at cut vertex 2 for its component of 1 vertices")
_EIG_CAP = "non-convergence: inverse iteration cap 8 reached for eigenvalue 1e+308"
_BIG_PATH = "3 2\n1 2 1e308\n2 3 1e-308\n"
_BIG_TRIANGLE = "4 4\n1 2 1e308\n2 3 1e308\n1 3 1e308\n3 4\n"
_PIVOT = "non-convergence: non-finite block pivot inf at vertex 1"


@pytest.mark.parametrize("text,argv,message", [
    pytest.param(_BIG_PATH, ["classify", "--method", "perron"], _PERRON_NAN, id="perron"),
    pytest.param(_BIG_PATH, ["classify", "--method", "both"], _PERRON_NAN, id="both"),
    pytest.param(_BIG_PATH, ["classify", "--method", "structural"], _EIG_CAP, id="structural"),
    pytest.param(_BIG_PATH, ["spectrum"], _EIG_CAP, id="spectrum"),
    pytest.param(_BIG_TRIANGLE, ["classify", "--method", "perron"], _PIVOT, id="triangle-perron"),
    pytest.param(_BIG_TRIANGLE, ["classify", "--method", "both"], _PIVOT, id="triangle-both"),
])
def test_overflowing_resistances_fail_fast(capsys, monkeypatch, text, argv, message):
    # the edge of weight 1e-308 has resistance 1e308, which overflows the
    # resistance pass to nan; the power iteration stops at its first
    # non-finite value instead of running 50 000 steps on nan.  The weight
    # 1e308 overflows the eigensolver's norm of T, and inverse iteration stops
    # at its cap.  On the triangle every block pivot sums two weights of
    # 1e308, which overflows.  Each way one stderr line names the failure,
    # with no numpy warning ahead of it.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], "-", *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.splitlines() == [message]


def _weak_path(w):
    """The case-A path on 5 vertices with weight w on its edge (2,3)."""
    return f"5 4\n1 2\n2 3 {w}\n3 4\n4 5\n"


# a triangle tied to its pendant's cut vertex 3 by one strong edge
_WEAK_TRIANGLE = "4 4\n1 2 1e-20\n2 3\n1 3 1e-20\n3 4\n"


def _uniform(g, w):
    return format_edge_list(build_graph(g.n, g.edges, {e: w for e in g.edges}))


@pytest.mark.parametrize("text", [
    pytest.param(_weak_path("1e-18"), id="weak-path-1e-18"),
    pytest.param(_weak_path("1e-50"), id="weak-path-1e-50"),
    pytest.param(_WEAK_TRIANGLE, id="triangle-1e-20"),
    pytest.param("3 2\n1 2 1e308\n2 3 1e-308\n", id="path-1e308-1e-308"),
    pytest.param(_uniform(block_path(4, 3), 1e-160), id="block-path-1e-160"),
    pytest.param(_uniform(block_path(4, 3), 1e300), id="block-path-1e300"),
    pytest.param("5 4\n1 2 1e-12\n2 3\n3 4\n4 5 1e-12\n", id="case-B-path-1e-12"),
])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["classify", "--method", "perron"],
    ["classify", "--method", "structural"],
    ["classify", "--method", "both"],
], ids=["spectrum", "perron", "structural", "both"])
def test_no_command_ends_in_a_traceback(capsys, monkeypatch, text, argv):
    # valid graphs with extreme weights: each run returns an exit code and
    # at most one stderr line, whatever its verdict
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, err = run(capsys, argv[0], "-", *argv[1:])
    assert code in (0, 2, 3)
    assert len(err.splitlines()) <= 1


@pytest.mark.parametrize("text", [
    pytest.param(_WEAK_TRIANGLE, id="triangle-1e-20"),
    *(pytest.param(_weak_path(f"1e-{k}"), id=f"weak-path-1e-{k}")
      for k in (*range(2, 21, 2), 50, 100)),
])
def test_weak_weights_keep_the_perron_verdict(capsys, monkeypatch, text):
    # a Cholesky pivot of the triangle's grounded Laplacian,
    # 1 + 1e-20 - 1 / (1 + 1e-20), rounds to 0, and from 1e-18 on the weak
    # path's Perron vectors have entries a few ulps below 0: neither may
    # cost the verdict A
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "classify", "-", "--method", "both")
    assert (code, err) == (0, "")
    doc = json.loads(out)["classification"]
    assert doc["agreement"] is True
    assert doc["perron"]["verdict"] == "A"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "classify", "-", "--method", "perron")
    assert code == 0
    assert json.loads(out)["classification"]["perron"]["verdict"] == "A"


@pytest.mark.parametrize("w", [1e-140, 1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["classify", "--method", "structural"],
    ["classify", "--method", "perron"],
    ["classify", "--method", "both"],
], ids=["spectrum", "structural", "perron", "both"])
def test_tiny_uniform_weights_fail_or_answer_right(capsys, monkeypatch, w, argv):
    # below a weight of about 1e-160 the eigensolver's Householder column
    # norms underflow and its eigenvalues come out wrong; a run may then
    # stop at non-convergence, but never print a wrong answer or a verdict
    # failure.  Scaling every weight by w scales lambda2 by w and keeps case
    # B at the chain's center, 7.
    monkeypatch.setattr("sys.stdin", io.StringIO(_uniform(block_path(4, 3), w)))
    code, out, _ = run(capsys, argv[0], "-", *argv[1:])
    assert code in (0, 3)
    if code == 3:
        return
    doc = json.loads(out)
    if argv[0] == "spectrum":
        assert doc["spectrum"]["lambda2"] == pytest.approx(0.3293784923643793 * w, rel=1e-9)
        return
    verdicts = [(r["verdict"], r["zero_vertex"])
                for r in doc["classification"].get("structural", {}).get("per_vector", [])]
    if "perron" in doc["classification"]:
        perron = doc["classification"]["perron"]
        verdicts.append((perron["verdict"], perron["zero_vertex"]))
    assert verdicts and set(verdicts) == {("B", 7)}


@pytest.mark.parametrize("w", [1e-140, 1e-160, 1e-200, 1e-250, 1e300])
@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["classify", "--method", "structural"],
], ids=["spectrum", "structural"])
def test_extreme_uniform_weights_answer_right_through_the_eigensolver(capsys, monkeypatch, w, argv):
    # the eigensolver takes every norm of a vector scaled by a power of two,
    # so no sum of squares underflows or overflows: the structural route
    # answers case B at the chain's center, 7, with lambda2 scaled by w
    monkeypatch.setattr("sys.stdin", io.StringIO(_uniform(block_path(4, 3), w)))
    code, out, err = run(capsys, argv[0], "-", *argv[1:])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if argv[0] == "spectrum":
        assert doc["spectrum"]["lambda2"] == pytest.approx(0.3293784923643793 * w, rel=1e-9)
        return
    verdicts = [(r["verdict"], r["zero_vertex"])
                for r in doc["classification"]["structural"]["per_vector"]]
    assert verdicts == [("B", 7)]


@pytest.mark.parametrize("argv", [
    ["gen", "path", "-n", "3", "--out", "x"],
    ["spectrum", "-", "--out", "x"],
    ["classify", "-", "--out", "x"],
    ["verify", "--theorem", "path-parity", "-k", "2", "-p", "1", "--json", "x"],
    ["verify", "--theorem", "path-parity", "-k", "2", "-p", "1", "--csv", "x"],
], ids=["gen", "spectrum", "classify", "verify-json", "verify-csv"])
def test_file_options_are_unknown(capsys, argv):
    # output goes to stdout only; no command opens a file for writing
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.edges"
    path.write_text(format_edge_list(block_path(4, 3)))
    return str(path)


class TestSpectrum:
    def test_lifted_basis_prints_no_negative_zero(self, capsys, monkeypatch):
        # the second vector is a quotient vector lifted and sign-flipped; its
        # entries at the weight-2 leaves 5 and 6 and at the hub 1 are zero
        monkeypatch.setattr("sys.stdin", io.StringIO("6 5\n1 2\n1 3\n1 4\n1 5 2.0\n1 6 2.0\n"))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0
        assert "-0.0" not in out
        basis = json.loads(out)["spectrum"]["fiedler_basis"]
        assert [[math.copysign(1.0, x) for x in vector if x == 0] for vector in basis] == [
            [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]

    def test_chain(self, capsys, chain_file):
        code, out, _ = run(capsys, "spectrum", chain_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "blockspectra"
        assert round(doc["spectrum"]["lambda2"], 5) == 0.32938
        assert doc["spectrum"]["multiplicity"] == 1
        assert doc["tolerances"]["eig_tol"] == linalg.QL_DEFLATION_TOL

    def test_complete_graph(self, capsys, tmp_path):
        from blockspectra import complete_graph
        p = tmp_path / "k4.edges"
        p.write_text(format_edge_list(complete_graph(4)))
        code, out, _ = run(capsys, "spectrum", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum"]["lambda2"] == pytest.approx(4.0, abs=1e-9)

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("2 1\n1 1\n")
        code, _, err = run(capsys, "spectrum", str(p))
        assert code == 1
        assert "self-loop" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "/no/such/file")
        assert code == 1
        assert "cannot read" in err

    def test_json_keys_sorted(self, capsys, chain_file):
        _, out, _ = run(capsys, "spectrum", chain_file)
        doc = json.loads(out)
        assert list(doc) == sorted(doc)

    def test_disconnected_flagged(self, capsys, tmp_path):
        p = tmp_path / "two.edges"
        p.write_text("4 2\n1 2\n3 4\n")
        code, out, _ = run(capsys, "spectrum", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum"]["connected"] is False
        assert abs(doc["spectrum"]["lambda2"]) <= 1e-10

    @pytest.mark.parametrize("w", ["1e-9", "1e-12", "1e-50"])
    def test_weak_edge_stays_connected(self, capsys, monkeypatch, w):
        # lambda2 is tiny here, but connectivity is read from the graph
        monkeypatch.setattr("sys.stdin", io.StringIO(_weak_path(w)))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0
        assert json.loads(out)["spectrum"]["connected"] is True

    def test_reads_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n1 2\n"))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0
        assert json.loads(out)["spectrum"]["lambda2"] == pytest.approx(2.0, abs=1e-10)

    def test_single_vertex_graph(self, capsys, tmp_path):
        p = tmp_path / "one.edges"
        p.write_text("1 0\n")
        code, out, _ = run(capsys, "spectrum", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum"]["lambda2"] == 0.0
        assert doc["spectrum"]["fiedler_basis"] == []


class TestClassify:
    def test_both_agree(self, capsys, chain_file):
        code, out, _ = run(capsys, "classify", chain_file, "--method", "both")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"]["agreement"] is True
        assert doc["classification"]["perron"]["verdict"] == "B"
        assert doc["classification"]["perron"]["zero_vertex"] == 7

    @pytest.mark.parametrize("k,p", [(2, 398), (3, 198), (4, 132)])
    def test_both_agree_near_the_size_cap(self, capsys, tmp_path, k, p):
        # n = 400, 399 and 400; an even articulation count is case A
        path = tmp_path / "chain.edges"
        path.write_text(format_edge_list(block_path(k, p)))
        code, out, _ = run(capsys, "classify", str(path), "--method", "both")
        assert code == 0
        doc = json.loads(out)["classification"]
        assert doc["agreement"] is True
        assert doc["perron"]["verdict"] == "A"
        assert [v["verdict"] for v in doc["structural"]["per_vector"]] == ["A"]

    def test_perron_only(self, capsys, tmp_path):
        p = tmp_path / "even.edges"
        p.write_text(format_edge_list(block_path(4, 2)))
        code, out, _ = run(capsys, "classify", str(p), "--method", "perron")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"]["perron"]["verdict"] == "A"
        assert "structural" not in doc["classification"]

    def test_structural_only(self, capsys, chain_file):
        code, out, _ = run(capsys, "classify", chain_file, "--method", "structural")
        assert code == 0
        doc = json.loads(out)
        vectors = doc["classification"]["structural"]["per_vector"]
        assert vectors[0]["verdict"] == "B"
        assert vectors[0]["zero_vertex"] == 7

    @pytest.mark.parametrize("method,unused_flag,echoed", [
        ("structural", "--tie-tol", {"zero_tol": 1e-7}),
        ("perron", "--zero-tol", {"tie_tol": 1e-9}),
    ])
    def test_echoes_only_the_applied_tolerance(self, capsys, chain_file, method,
                                               unused_flag, echoed):
        code, out, _ = run(capsys, "classify", chain_file, "--method", method,
                           unused_flag, "nan")
        assert code == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["tolerances"] == echoed

    def test_clique_rejected(self, capsys, tmp_path):
        from blockspectra import complete_graph
        p = tmp_path / "k4.edges"
        p.write_text(format_edge_list(complete_graph(4)))
        code, _, err = run(capsys, "classify", str(p))
        assert code == 1
        assert "articulation" in err

    def test_non_block_graph_rejected(self, capsys, tmp_path):
        p = tmp_path / "square.edges"
        p.write_text("5 5\n1 2\n2 3\n3 4\n1 4\n4 5\n")
        code, _, err = run(capsys, "classify", str(p))
        assert code == 1
        assert "block graph" in err

    def test_disconnected_rejected(self, capsys, tmp_path):
        p = tmp_path / "two.edges"
        p.write_text("4 2\n1 2\n3 4\n")
        code, _, err = run(capsys, "classify", str(p))
        assert code == 1
        assert "connected" in err

    def test_pathological_tie_tolerance_exits_2(self, capsys, tmp_path):
        p = tmp_path / "even.edges"
        p.write_text(format_edge_list(block_path(4, 2)))
        code, _, err = run(capsys, "classify", str(p), "--method", "perron",
                           "--tie-tol", "1.0")
        assert code == 2
        assert "tie" in err

    @pytest.mark.parametrize("flag", ["--tie-tol", "--zero-tol"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_1(self, capsys, chain_file, flag, value):
        code, out, err = run(capsys, "classify", chain_file, flag, value)
        assert code == 1
        assert out == ""
        assert "must be finite and >= 0" in err

    def test_negative_tolerance_given_with_equals_reaches_the_library(self, capsys, chain_file):
        code, out, err = run(capsys, "classify", chain_file, "--tie-tol=-1e-3")
        assert code == 1
        assert out == ""
        assert "must be finite and >= 0" in err

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    def test_option_like_tolerance_is_a_usage_error(self, capsys, chain_file, value):
        # not a plain negative number, so the parser reads it as an option
        code, out, err = run(capsys, "classify", chain_file, "--tie-tol", value)
        assert code == 1
        assert out == ""
        assert "--tie-tol" in err

    def test_abbreviated_option_rejected(self, capsys, chain_file):
        code, out, err = run(capsys, "classify", chain_file, "--meth", "perron")
        assert code == 1
        assert out == ""
        assert "--meth" in err

    def test_disagreement_exits_2(self, capsys, chain_file, monkeypatch):
        import blockspectra.cli as cli_mod
        from blockspectra import CaseClassification

        monkeypatch.setattr(
            cli_mod, "classify_structural",
            lambda g, zero_tol: [CaseClassification(verdict="A", mixed_block=(1, 2))],
        )
        code, out, err = run(capsys, "classify", chain_file, "--method", "both")
        assert code == 2
        assert "disagree" in err
        assert json.loads(out)["classification"]["agreement"] is False


class TestVerify:
    def test_single_coalescence(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "coalescence",
                           "-k", "4", "-p", "3")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["status"] == "pass"
        assert round(reports[0]["measurements"]["lambda2_original"], 5) == 0.32938
        assert round(reports[0]["measurements"]["lambda2_coalesced"], 5) == 0.32938

    def test_parity_sweep(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "path-parity",
                             "--sweep", "k=2..6,p=1..8")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 40
        assert all(r["status"] == "pass" for r in reports)
        assert "40 pass" in err

    def test_twins_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "twins", "-k", "4", "-p", "1")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "flat-earth", "-k", "2")
        assert code == 1

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "path-parity")
        assert code == 1
        assert "instance parameters" in err

    @pytest.mark.parametrize("argv,missing", [
        (["--theorem", "path-parity", "-k", "3"], "'p'"),
        (["--theorem", "starlike-A", "--sweep", "k=3,p1=2,p2=1"], "'p3'"),
    ])
    def test_one_missing_parameter_is_a_usage_error(self, capsys, argv, missing):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: theorem {argv[1]!r} needs parameter {missing}"]

    def test_csv_on_stdout(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "equal-arms",
                             "-r", "3", "-k", "3", "-p", "1", "--csv")
        assert code == 0
        assert err == "# 1 pass, 0 fail, 0 skip, 0 error\n"
        expected = reports_to_csv([run_theorem("equal-arms", {"r": 3, "k": 3, "p": 1})])

        def without_elapsed(text):
            rows = list(csv.reader(io.StringIO(text)))
            at = rows[0].index("elapsed_s")
            return [row[:at] + row[at + 1:] for row in rows]

        assert out.startswith("theorem,")
        assert without_elapsed(out) == without_elapsed(expected)

    def test_starlike_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "starlike-A",
                           "-r", "3", "-k", "4", "--arms", "3,2,1")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"

    @pytest.mark.parametrize("theorem", ["kirkland", "twins"])
    def test_unequal_arm_starlike_instance(self, capsys, theorem):
        # arms 2, 2, 1: the two long arms tie at the hub, the short one is untied
        code, out, _ = run(capsys, "verify", "--theorem", theorem,
                           "-r", "3", "-k", "4", "--arms", "2,2,1")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"

    def test_starlike_sweep_over_arm_triples(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "starlike-A",
                             "--sweep", "k=3,p1=0..3,p2=0..3,p3=0..3")
        assert code == 0
        assert "7 pass, 0 fail, 57 skip, 0 error" in err
        reports = json.loads(out)
        assert len(reports) == 64
        # passes and skips alike echo their grid point
        assert all(set(r["instance"]) == {"k", "p1", "p2", "p3"} for r in reports)
        arms = [tuple(r["instance"][key] for key in ("p1", "p2", "p3")) for r in reports]
        # 44 of the 64 triples are unsorted; block_starlike rejects each
        unsorted = [(r, a) for r, a in zip(reports, arms) if not a[0] >= a[1] >= a[2]]
        assert len(unsorted) == 44
        for r, a in unsorted:
            assert r["status"] == "skip"
            assert r["failures"] == [
                f"arm lengths must be sorted non-increasing, got {list(a)}"
            ]
        assert {a for r, a in zip(reports, arms) if r["status"] == "pass"} == {
            (1, 0, 0), (2, 1, 0), (2, 1, 1), (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 2, 2),
        }

    def test_sweep_over_integer_arms_skips(self, capsys):
        # each grid point's arms is one integer, one arm: a skip, not a TypeError
        code, out, err = run(capsys, "verify", "--theorem", "starlike-A",
                             "--sweep", "k=3,arms=2..3", "--csv")
        assert code == 0
        assert err == "# 0 pass, 0 fail, 2 skip, 0 error\n"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["instance"], r["status"], r["failures"]) for r in rows] == [
            ("arms=2,k=3", "skip", "arm count must be >= 2, got 1"),
            ("arms=3,k=3", "skip", "arm count must be >= 2, got 1"),
        ]

    @pytest.mark.parametrize("grid", ["", " ", "k=2,k=3,p=1"])
    def test_vacuous_or_repeated_sweep_rejected(self, capsys, grid):
        # an empty grid would pass having run no instance; a repeated name
        # would keep only its last term
        code, out, err = run(capsys, "verify", "--theorem", "twins", "--sweep", grid)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_stdin_default_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 1

    def test_jobs_is_an_unknown_option(self, capsys):
        # sweeps run in one process, in grid order
        code, out, err = run(capsys, "verify", "--theorem", "path-parity",
                             "--sweep", "k=2..3,p=1..2", "--jobs", "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def test_help_lists_options_on_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert "--theorem" in out

    def test_failing_instance_exits_2(self, capsys, monkeypatch):
        import blockspectra.verify as verify_mod

        def broken(k, p):
            rec = verify_mod._Recorder("path-parity", {"k": k, "p": p})
            rec.holds("forced failure", False)
            return rec.report()

        monkeypatch.setattr(verify_mod, "check_path_parity", broken)
        code, out, err = run(capsys, "verify", "--theorem", "path-parity",
                             "-k", "2", "-p", "1")
        assert code == 2
        assert "failed" in err

    def test_other_checker_error_exits_2(self, capsys, monkeypatch):
        import blockspectra.verify as verify_mod

        def pathological(k, p):
            raise blockspectra.ClassificationError("two tied vertices")

        monkeypatch.setattr(verify_mod, "check_path_parity", pathological)
        code, out, err = run(capsys, "verify", "--theorem", "path-parity",
                             "-k", "2", "-p", "1")
        assert code == 2
        assert json.loads(out)[0]["failures"] == ["ClassificationError: two tied vertices"]
        assert "unexpected error" in err

    def test_nonconvergence_exits_3(self, capsys, monkeypatch):
        import blockspectra.verify as verify_mod
        from blockspectra import ConvergenceError

        def stuck(k, p):
            raise ConvergenceError("iteration cap reached")

        monkeypatch.setattr(verify_mod, "check_path_parity", stuck)
        code, _, err = run(capsys, "verify", "--theorem", "path-parity",
                           "-k", "2", "-p", "1")
        assert code == 3
        assert "non-convergence" in err

    @pytest.mark.parametrize("k,p", [(2, 398), (3, 198), (4, 132)])
    def test_parity_near_the_size_cap(self, capsys, k, p):
        # n = 400, 399 and 400: the Perron route at the largest accepted sizes
        code, out, _ = run(capsys, "verify", "--theorem", "path-parity",
                           "-k", str(k), "-p", str(p))
        assert code == 0
        (report,) = json.loads(out)
        assert report["status"] == "pass"
        assert report["measurements"]["verdict"] == "A"

    def test_iteration_cap_fails_fast(self, capsys, monkeypatch):
        # with no convergence test every power iteration runs to the default
        # cap, which must end in a specific error within seconds, not minutes
        monkeypatch.setattr(linalg, "POWER_RQ_TOL", 0.0)
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--theorem", "path-parity",
                           "-k", "2", "-p", "40")
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert "non-convergence" in err


class TestInProcessStreams:
    """A caller that runs `main` in-process with its own stdout and stderr
    buffers gets them back: nothing in the CLI keeps them alive."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "path-parity", "-k", "2", "-p", "1"],
        ["verify", "--theorem", "flat-earth", "-k", "2"],
        ["classify", "no-such-file.edges"],
        ["--version"],
        ["--help"],
        ["classify", "--help"],
    ])
    def test_redirected_buffers_are_released(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            main(argv)
        assert out.getvalue() or err.getvalue()
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestNoCyclicGarbage:
    def test_requests_leave_no_reference_cycles(self, chain_file, tmp_path):
        even_chain = tmp_path / "even.edges"  # case A: walks the monotone chains
        even_chain.write_text(format_edge_list(block_path(4, 2)))
        argvs = [
            ["classify", chain_file, "--method", "both"],
            ["classify", str(even_chain), "--method", "both"],
            ["verify", "--theorem", "kirkland", "-k", "3", "-p", "2"],
            ["spectrum", chain_file],
        ]
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            for argv in argvs:  # first calls may build caches that hold cycles
                main(argv)
            gc.collect()
            gc.disable()
            try:
                codes = [main(argv) for argv in argvs]
                unreachable = gc.collect()
            finally:
                gc.enable()
        assert codes == [0, 0, 0, 0]
        assert unreachable == 0


class TestTopLevel:
    def test_help(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "gen" in out + err

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "0.1.0" in out

    def test_no_args_shows_usage(self, capsys):
        code, out, err = run(capsys)
        assert code in (0, 1)

    @pytest.mark.parametrize("argv", [[], ["gen"]])
    def test_missing_subcommand_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err

    def test_import_leaves_click_unloaded(self):
        probe = "import sys, blockspectra.cli; print('click' in sys.modules)"
        assert _fresh_python(probe) == "False"

    def test_spectrum_and_classify_leave_numpy_random_unloaded(self, tmp_path):
        path = tmp_path / "starlike.edges"
        path.write_text(format_edge_list(block_starlike(3, 4, [1, 1, 1])))
        probe = (
            "import contextlib, io, sys; from blockspectra.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = main(['spectrum', {str(path)!r}]), "
            f"main(['classify', {str(path)!r}, '--method', 'both'])\n"
            "print(codes, 'numpy.random' in sys.modules)"
        )
        assert _fresh_python(probe) == "(0, 0) False"

    def test_every_public_name_is_loaded_inside_the_package(self):
        # a public helper that no module of the package reads is dead code
        package = pathlib.Path(blockspectra.__file__).parent
        loaded = {
            node.id
            for path in package.glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert sorted(set(blockspectra.__all__) - loaded) == []


def _fresh_python(code):
    """stdout of `python -c code` in a new interpreter that imports this
    checkout's blockspectra."""
    src = os.path.dirname(os.path.dirname(blockspectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()
