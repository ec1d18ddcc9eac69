"""Seeded inputs and operation lists for the benchmark workloads.

Every graph is generated here, with the labelling the library documents
(clique chains numbered left to right, starlike hubs labelled 1), so the
oracle knows each expected answer without asking the library.  The program
under test receives only the edge-list files and the command-line arguments.
"""

import os
import random
from dataclasses import dataclass

WORKLOADS = {
    "perron-sweep": (
        "Perron route only: verify path-parity and starlike-A sweeps plus the "
        "k=2,p=40 stall probe; eig_sym is never called, so it is the control "
        "for eigensolver changes"
    ),
    "cliques-both": (
        "both routes on clique-rich graphs with many twins and multiplicity > 1, "
        "where repeated eigendecompositions and the twin quotient do their work"
    ),
}

# Operations that fail at commit 0886034, both through the absolute
# Rayleigh-quotient stopping rule of the power iteration: the first stalls
# for 50 000 iterations, the second because its Perron values are scaled by
# 1000.  They stay in the workloads, so a fix shows as fewer failed operations.
KNOWN_FAILURES_AT_SEED = (
    "verify path-parity k=2 p=40",
    "classify scale-probe block_path(4,3) w=1e-3",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer the oracle expects from it."""

    name: str
    argv: tuple[str, ...]
    kind: str                       # "classify" or "verify"
    graph: tuple | None = None      # (n, ((u, v, w), ...)) whose lambda2 a report measures
    verdict: str | None = None      # expected case, "A" or "B"
    zero_vertex: int | None = None  # expected case-B vertex
    tied: int | None = None         # expected number of tied Perron components


# ---- graph generators -------------------------------------------------------

def _chain_edges(labels, k, weight):
    """Cliques of size k along `labels`, consecutive cliques sharing one label."""
    edges = set()
    for lo in range(0, len(labels) - 1, k - 1):
        clique = labels[lo:lo + k]
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                edges.add((min(u, v), max(u, v), weight))
    return edges


def block_path(k, p, weight=1.0):
    n = k * (p + 1) - p
    return n, tuple(sorted(_chain_edges(list(range(1, n + 1)), k, weight)))


def block_starlike(k, arms):
    """Clique chains of the given articulation counts joined at hub vertex 1."""
    edges = set()
    nxt = 2
    for p in arms:
        size = k * (p + 1) - p - 1
        edges |= _chain_edges([1] + list(range(nxt, nxt + size)), k, 1.0)
        nxt += size
    return nxt - 1, tuple(sorted(edges))


def center_label(k, p):
    half = (p + 1) // 2
    return half * k - half + 1


def format_edge_list(graph):
    n, edges = graph
    lines = [f"{n} {len(edges)}"]
    for u, v, w in edges:
        lines.append(f"{u} {v}" if w == 1.0 else f"{u} {v} {w!r}")
    return "\n".join(lines) + "\n"


def starlike_a_arms(rng, r, longest):
    """r arm lengths, sorted non-increasing, with the given longest arm a1 and
    the rest drawn so that a1 > a2 and a2 + a3 + 1 >= a1 (the starlike case-A
    hypothesis).  Fixing a1 fixes most of the graph's size, so the draw moves
    its cost little."""
    while True:
        rest = sorted((rng.randint(0, longest - 1) for _ in range(r - 1)), reverse=True)
        if rest[0] + rest[1] + 1 >= longest:
            return [longest] + rest


# ---- operations --------------------------------------------------------------

def verify_op(name, theorem, verdict=None, graph=None, **params):
    argv = ["verify", "--theorem", theorem]
    for key, value in params.items():
        argv += [f"--{key}" if len(key) > 1 else f"-{key}", str(value)]
    return Op(name=name, argv=tuple(argv), kind="verify", verdict=verdict, graph=graph)


def parity_op(k, p):
    return verify_op(f"verify path-parity k={k} p={p}", "path-parity",
                     verdict="B" if p % 2 else "A", k=k, p=p)


def _starlike_a(r, k, arms):
    text = ",".join(map(str, arms))
    return verify_op(f"verify starlike-A r={r} k={k} arms={text}", "starlike-A",
                     verdict="A", r=r, k=k, arms=text)


class Files:
    """Writes each generated graph to `workdir` and makes the op that reads it."""

    def __init__(self, workdir):
        self.workdir = workdir

    def write(self, stem, graph):
        path = os.path.join(self.workdir, f"{stem}.edges")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_edge_list(graph))
        return path

    def classify(self, stem, graph, verdict, zero_vertex=None, tied=None):
        path = self.write(stem, graph)
        return Op(name=f"classify {stem}", argv=("classify", path, "--method", "both"),
                  kind="classify", verdict=verdict, zero_vertex=zero_vertex, tied=tied)


def _perron_sweep(rng, files):
    ops = [parity_op(k, p) for k in range(2, 7) for p in range(1, 26)]
    # r, k and the longest arm cycle over fixed grids, so only the shorter
    # arms depend on the seed and the pass's cost barely swings with the draw
    grid = [(r, k) for r in range(3, 6) for k in range(3, 7)]
    for i in range(40):
        r, k = grid[i % len(grid)]
        ops.append(_starlike_a(r, k, starlike_a_arms(rng, r, 1 + i % 7)))
    ops.append(parity_op(2, 40))  # stall probe
    return ops


def _cliques_both(rng, files):
    ops = []
    for k, p in ((4, 11), (5, 9), (6, 13), (6, 19), (4, 20), (5, 15)):
        odd = p % 2 == 1
        ops.append(files.classify(f"block_path({k},{p})", block_path(k, p),
                                  "B" if odd else "A", center_label(k, p) if odd else None))
    for r, k, p in ((3, 4, 3), (4, 4, 3), (3, 6, 2)):
        ops.append(files.classify(f"equal-arms({r},{k},{p})", block_starlike(k, [p] * r),
                                  "B", zero_vertex=1, tied=r))
    # small draws stay cheaper than every fixed graph here, so they never
    # become the median operation and the seed barely moves it
    for i, (r, k, longest) in enumerate(((3, 3, 3), (3, 4, 2), (4, 3, 3))):
        arms = starlike_a_arms(rng, r, longest)
        stem = f"starlike-A-{i}({r},{k},{','.join(map(str, arms))})"
        ops.append(files.classify(stem, block_starlike(k, arms), "A"))
    # every weight 1e-3 scales the Perron values by 1000
    ops.append(files.classify("scale-probe block_path(4,3) w=1e-3",
                              block_path(4, 3, weight=1e-3), "B", zero_vertex=7))
    # the oracle checks the lambda2 these reports measure against numpy
    for theorem, params, graph in (
        ("kirkland", {"k": 6, "p": 9}, block_path(6, 9)),
        ("kirkland", {"k": 5, "p": 11}, block_path(5, 11)),
        ("coalescence", {"k": 5, "p": 9}, None),
        ("coalescence", {"k": 6, "p": 7}, None),
        ("twins", {"k": 6, "p": 10}, block_path(6, 10)),
        ("equal-arms", {"r": 3, "k": 5, "p": 3}, block_starlike(5, [3] * 3)),
        ("equal-arms", {"r": 4, "k": 4, "p": 3}, block_starlike(4, [3] * 4)),
    ):
        label = " ".join(f"{key}={value}" for key, value in params.items())
        ops.append(verify_op(f"verify {theorem} {label}", theorem, graph=graph, **params))
    return ops


_BUILDERS = {
    "perron-sweep": _perron_sweep,
    "cliques-both": _cliques_both,
}


def build(workload, seed, workdir):
    """Generate the workload's inputs from `seed`, write its files into
    `workdir` and return its operations in generation order."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), Files(workdir))


def warmup_ops(workdir):
    """One cheap operation per subcommand, run untimed before measuring."""
    files = Files(workdir)
    return [
        parity_op(2, 1),
        files.classify("warmup-block_path(3,1)", block_path(3, 1), "B", zero_vertex=3),
    ]
