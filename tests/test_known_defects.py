"""Known defects, one test per witness, each asserting the right outcome.

A pair of (route, input) that fails today is marked xfail(strict=True) with
a reason naming the ROADMAP item that would fix it.  A fix makes its test
pass, and the strict marker then fails the suite, so the fixing change
removes the marker.  Every other pair passes today and guards the fix from
coming undone.
"""

import io
import json

import pytest

from blockspectra.cli import main

# case A with mixed block (1, 2, 3, 4): numpy's eigh and the structural route
# agree.  At cut vertex 1 the two largest Perron values, 10000.19 and
# 10000.50, are 3e-5 apart relative, and the power iteration, whose
# convergence rate is their ratio, stops at its 50 000-step cap.
_CLOSE_PERRON_VALUES = "7 9\n1 2 3\n1 3\n1 4\n2 3\n2 4\n3 4\n2 5 1e-4\n3 6 1e-4\n1 7\n"


@pytest.mark.parametrize("method", [
    "structural",
    pytest.param("perron", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP B: two Perron values 3e-5 apart take the power "
               "iteration past its cap, exit 3",
    )),
])
def test_close_perron_values_at_a_cut_vertex(capsys, monkeypatch, method):
    monkeypatch.setattr("sys.stdin", io.StringIO(_CLOSE_PERRON_VALUES))
    code = main(["classify", "-", "--method", method])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)["classification"][method]
    outcomes = doc["per_vector"] if method == "structural" else [doc]
    assert [(c["verdict"], c.get("mixed_block")) for c in outcomes] == [
        ("A", [1, 2, 3, 4] if method == "structural" else None)
    ]
