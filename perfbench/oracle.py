"""Independent checks of each operation's output.

`check` returns None when the output is right and a one-line reason when it
is not.  Verdicts are compared with the answer each graph family is known
to have; a measured lambda2 is compared with numpy.linalg.eigh on a
Laplacian built here from the generated edge list.  Nothing here calls the
library under test.
"""

import json

import numpy as np

LAMBDA2_REL_TOL = 1e-9  # of max(1, largest eigenvalue)


def laplacian(graph):
    n, edges = graph
    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u - 1, v - 1] -= w
        lap[v - 1, u - 1] -= w
        lap[u - 1, u - 1] += w
        lap[v - 1, v - 1] += w
    return lap


def check(op, exit_code, stdout):
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[op.kind](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_classify(op, stdout):
    payload = json.loads(stdout)["classification"]
    if payload.get("agreement") is not True:
        return "classifiers do not agree"
    expected = (op.verdict, op.zero_vertex)
    perron = payload["perron"]
    if (perron["verdict"], perron["zero_vertex"]) != expected:
        return f"perron route gave {perron['verdict']} at {perron['zero_vertex']}, expected {expected}"
    for vec in payload["structural"]["per_vector"]:
        if (vec["verdict"], vec["zero_vertex"]) != expected:
            return (f"structural route gave {vec['verdict']} at {vec['zero_vertex']} "
                    f"on vector {vec['vector']}, expected {expected}")
    if op.tied is not None and len(perron["perron_components"] or ()) != op.tied:
        return f"{len(perron['perron_components'] or ())} tied components, expected {op.tied}"
    return None


def _check_verify(op, stdout):
    reports = json.loads(stdout)
    if not reports:
        return "no report"
    statuses = [r["status"] for r in reports]
    if any(s != "pass" for s in statuses):
        return f"report statuses {statuses}"
    measured = reports[0]["measurements"]
    if op.verdict is not None and measured.get("verdict") != op.verdict:
        return f"verdict {measured.get('verdict')!r}, expected {op.verdict!r}"
    if op.graph is not None:
        ref = np.linalg.eigh(laplacian(op.graph))[0]
        tol = LAMBDA2_REL_TOL * max(1.0, float(ref[-1]))
        if not abs(measured.get("lambda2", np.nan) - ref[1]) <= tol:
            return f"lambda2 {measured.get('lambda2')!r}, numpy.linalg.eigh gives {ref[1]!r}"
    return None


_CHECKS = {
    "classify": _check_classify,
    "verify": _check_verify,
}
