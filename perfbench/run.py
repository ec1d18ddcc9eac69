"""Benchmark for blockspectra: drives the CLI entry point in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload perron-sweep --seed 1 --seconds 40 --trace 0

Each operation is one call of `blockspectra.cli.main(argv)` with its output
captured and checked by an independent oracle (`oracle.py`); an operation
fails if it exits non-zero or the oracle rejects its output.  One process,
one Python thread, a closed loop: the next operation starts when the
previous one returns.  Whole passes over the workload's operations run, in
a seeded order, while another pass still fits in --seconds.

--trace 0 reports the end-to-end metrics with tracing off, in nominal
seconds (see speed.py).  --trace 1 runs one untraced and one traced pass,
whatever --seconds says, and reports the per-layer metrics in raw seconds;
the spans go to perfbench/.work/.  The last line of stdout is the result; the lines before
it record the environment, the raw end-to-end figures and every failed
operation.
"""

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracle
import speed
import tracing
import workloads

SRC = os.path.abspath("src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100
KERNEL_INTERVAL_S = 0.25
KERNEL_WINDOW_S = 1.0
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import blockspectra.cli; t = time.perf_counter() - t; "
    "import speed; print(t, speed.median_kernel_s())"
)

# Per-layer metrics: (module.function, whether its call count is reported).
LAYERS = (
    ("linalg.cholesky_solve", True),
    ("linalg.cholesky_factor", True),
    ("linalg.perron_of_inverse", True),
    ("linalg.principal_submatrix", True),
    ("linalg.eig_sym", True),
    ("linalg.laplacian", True),
    ("spectral.spectral_summary", True),
    ("spectral.classify_perron", True),
    ("spectral.classify_structural", True),
    ("spectral.vertex_perron_data", True),
    ("graph.delete_vertex_components", True),
    ("graph.is_connected", True),
    ("blocks.block_decomposition", True),
    ("blocks.is_block_graph", True),
    ("blocks.starlike_profile", True),
    ("verify.run_theorem", False),
    ("verify.reports_to_json", False),
    ("fileio.parse_edge_list", False),
    (tracing.ROOT_SPAN, False),
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_setup(workload, seed, workdir):
    """One set-up: import blockspectra.cli in a fresh interpreter (timed
    there, so interpreter start-up is excluded) plus generating and writing
    the workload's input files.  Returns (raw seconds, nominal seconds, ops);
    the child times the speed kernel right after its import."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, kernel = (float(x) for x in child.stdout.split())
    start = time.perf_counter()
    ops = workloads.build(workload, seed, workdir)
    raw = import_s + time.perf_counter() - start
    return raw, speed.nominal(raw, kernel), ops


def run_op(cli_main, argv):
    """(exit code or None if main raised, stdout, seconds, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return None, out.getvalue(), time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start, None


class Pass:
    def __init__(self):
        self.wall_s = 0.0
        self.latencies = {}  # op index -> seconds
        self.nominal = {}    # op index -> nominal seconds
        self.kernel_s = 0.0  # median speed-kernel time over the pass
        self.failures = []   # (op name, reason)
        self.wrong = []      # ops that exited 0 with output the oracle rejects


def run_pass(ops, rng, call):
    """One pass over `ops` in a seeded order.  Between operations, at most
    every KERNEL_INTERVAL_S and after every longer operation, the speed
    kernel is timed outside any operation's time.  Each operation's nominal
    time uses the kernel times taken within KERNEL_WINDOW_S of it."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    result = Pass()
    kernels = []  # (when, seconds)
    spans = {}    # op index -> (start, end)
    next_kernel = 0.0
    start = time.perf_counter()
    for index in order:
        op = ops[index]
        if time.perf_counter() >= next_kernel:
            kernels.append((time.perf_counter(), speed.kernel_s()))
            next_kernel = time.perf_counter() + KERNEL_INTERVAL_S
        began = time.perf_counter()
        code, stdout, seconds, crash = call(index, op)
        spans[index] = (began, time.perf_counter())
        result.latencies[index] = seconds
        reason = crash or oracle.check(op, code, stdout)
        if reason is not None:
            result.failures.append((op.name, reason))
            if code == 0:
                result.wrong.append(op.name)
    kernels.append((time.perf_counter(), speed.kernel_s()))
    result.wall_s = time.perf_counter() - start
    result.kernel_s = statistics.median(k for _, k in kernels)
    for index, (began, ended) in spans.items():
        near = [k for when, k in kernels
                if began - KERNEL_WINDOW_S <= when <= ended + KERNEL_WINDOW_S]
        result.nominal[index] = speed.nominal(result.latencies[index], statistics.median(near))
    return result


def _src_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
        "known_failures_at_seed": list(workloads.KNOWN_FAILURES_AT_SEED),
    }


def best_latencies(passes, nominal):
    """Each operation's best time over the run's passes, in raw or nominal
    seconds.  Slow spells of the machine only ever add time, so the best of
    a few passes lets each operation through at the machine's usual speed."""
    return [
        min((p.nominal if nominal else p.latencies)[i] for p in passes)
        for i in passes[0].latencies
    ]


def end_to_end(passes, setup_s):
    """wall_s is one pass as the sum of the operations' best nominal times,
    op_p50_s their median."""
    best = best_latencies(passes, nominal=True)
    return {
        "wall_s": _metric(sum(best), "s"),
        "op_p50_s": _metric(statistics.median(best), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, eigh_s):
    layers = tracer.layers()
    metrics = {}
    for name, with_calls in LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        if with_calls:
            metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    solves = layers.get("linalg.cholesky_solve", (0, 0.0))[0]
    perrons = layers.get("linalg.perron_of_inverse", (0, 0.0))[0]
    eigs = layers.get("linalg.eig_sym", (0, 0.0))[0]
    ops = len(traced.latencies)
    metrics["linalg.power_iters_per_perron"] = _metric(solves / perrons if perrons else 0.0, "ratio")
    metrics["linalg.eig_sym.n3"] = _metric(sum(m.shape[0] ** 3 for m in tracer.eig_inputs), "count")
    metrics["spectral.eig_per_op"] = _metric(eigs / ops, "ratio")
    metrics["reference.eigh_s"] = _metric(eigh_s, "s")
    # nominal times, so that a change of the machine's speed between the two
    # passes does not read as tracing overhead
    overhead = sum(traced.nominal.values()) / sum(untraced.nominal.values()) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "frac")
    metrics["cli.failed_frac"] = _metric(len(traced.failures) / ops, "frac")
    return metrics


def measure(ops, warmup, seed, seconds, trace_on, setup_s, spans_path=None):
    """Run the passes and return (result object, details).  `setup_s` is the
    nominal set-up time to report."""
    sys.path.insert(0, SRC)
    from blockspectra.cli import main as cli_main

    loaded = os.path.abspath(sys.modules["blockspectra"].__file__)
    if not loaded.startswith(SRC + os.sep):
        raise RuntimeError(f"imported blockspectra from {loaded}, not from {SRC}")
    for op in warmup:
        run_op(cli_main, op.argv)

    def plain(op_id, op):
        return run_op(cli_main, op.argv)

    rng = random.Random(f"{seed}/order")
    details = {}
    if not trace_on:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, rng, plain))
            longest = max(p.wall_s for p in passes)
            if time.perf_counter() - start + longest > seconds:
                break
        metrics = end_to_end(passes, setup_s)
        best_s = best_latencies(passes, nominal=False)
        details["raw_wall_s"] = sum(best_s)
        details["raw_op_p50_s"] = statistics.median(best_s)
        latencies = [s for p in passes for s in p.latencies.values()]
        details["op_samples"] = len(latencies)
        if len(latencies) >= P90_MIN_SAMPLES:
            details["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
        details["pass_wall_s"] = [p.wall_s for p in passes]
        details["pass_kernel_s"] = [p.kernel_s for p in passes]
    else:
        untraced = run_pass(ops, rng, plain)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, rng, lambda op_id, op: tracer.call(op_id, run_op, cli_main, op.argv))
        finally:
            tracer.remove()
        metrics = per_layer(tracer, traced, untraced, tracing.eigh_reference_s(tracer.eig_inputs))
        passes = [untraced, traced]
        details["untraced_wall_s"] = untraced.wall_s
        details["traced_wall_s"] = traced.wall_s
        if spans_path is not None:
            tracer.write_spans(spans_path)
            details["spans"] = os.path.relpath(spans_path)
    failures = [f for p in passes for f in p.failures]
    details["failed_ops"] = [f"{name}: {reason}" for name, reason in failures]
    result = {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blockspectra", "cli.py")):
        print(f"perfbench: no blockspectra sources under {SRC}; "
              "run from the root of a blockspectra checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        setups = [timed_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        ops = setups[-1][2]
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.csv")
        result, details = measure(
            ops, workloads.warmup_ops(workdir), args.seed, args.seconds, args.trace == 1,
            statistics.median(nominal for _, nominal, _ in setups), spans_path,
        )
        details["raw_setup_s"] = statistics.median(raw for raw, _, _ in setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
