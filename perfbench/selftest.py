"""Self-test of the benchmark, in a few seconds.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that a tiny untraced and a tiny traced run report exactly the
metrics BENCHMARK.json names, with their units; that traced call counts
repeat exactly; that the oracle accepts real outputs and rejects corrupted
ones; that inputs depend on the seed and only on it; and that the benchmark
refuses to run, printing no result, where there are no sources to measure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import oracle
import run
import workloads
from workloads import Files, parity_op, verify_op


def tiny_ops(workdir):
    """Small instances of every kind of operation: (parity, starlike-A,
    coalescence, kirkland with a lambda2 check, classify)."""
    files = Files(workdir)
    return [
        parity_op(2, 3),
        verify_op("verify starlike-A r=3 k=3 arms=2,1,1", "starlike-A", verdict="A",
                  r=3, k=3, arms="2,1,1"),
        verify_op("verify coalescence k=3 p=1", "coalescence", k=3, p=1),
        verify_op("verify kirkland k=3 p=3", "kirkland", graph=workloads.block_path(3, 3),
                  k=3, p=3),
        files.classify("block_path(3,3)", workloads.block_path(3, 3), "B", zero_vertex=5),
    ]


def check_metrics(result, declared, problems, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['correct']=} {result['attempted']=} {result['failed']=}")


def check_oracle(cli_main, workdir, problems):
    parity, _, _, kirkland, classify = tiny_ops(workdir)
    outputs = {}
    for op in (parity, kirkland, classify):
        code, stdout, _, crash = run.run_op(cli_main, op.argv)
        outputs[op.name] = stdout
        reason = crash or oracle.check(op, code, stdout)
        if reason is not None:
            problems.append(f"oracle rejects a real output of {op.name}: {reason}")

    def corrupt(op, what, edit):
        doc = json.loads(outputs[op.name])
        edit(doc)
        if oracle.check(op, 0, json.dumps(doc)) is None:
            problems.append(f"oracle accepts {what}")

    def perturb_lambda2(doc):
        doc[0]["measurements"]["lambda2"] += 1e-6

    def flip_perron(doc):
        doc["classification"]["perron"]["verdict"] = "A"

    def flip_structural(doc):
        doc["classification"]["structural"]["per_vector"][0]["verdict"] = "A"

    def flip_parity(doc):
        doc[0]["measurements"]["verdict"] = "A"

    def fail_report(doc):
        doc[0]["status"] = "fail"

    corrupt(kirkland, "a perturbed eigenvalue", perturb_lambda2)
    corrupt(classify, "a flipped Perron verdict", flip_perron)
    corrupt(classify, "a flipped structural verdict", flip_structural)
    corrupt(parity, "a flipped parity verdict", flip_parity)
    corrupt(parity, "a failed report", fail_report)
    if oracle.check(parity, 3, outputs[parity.name]) is None:
        problems.append("oracle accepts a non-zero exit code")


def check_seeding(workdir, problems):
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7, workdir)
        again = workloads.build(workload, 7, workdir)
        other = workloads.build(workload, 8, workdir)
        if first != again:
            problems.append(f"{workload}: the same seed gave different inputs")
        if first == other:
            problems.append(f"{workload}: seeds 7 and 8 gave the same inputs")


def check_refuses_without_sources(problems):
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "perron-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"run without sources exited {done.returncode} with {done.stdout!r}")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        _, setup_s, _ = run.timed_setup("cliques-both", 1, workdir)
        ops = tiny_ops(workdir)
        warmup = workloads.warmup_ops(workdir)
        plain, _ = run.measure(ops, warmup, 1, 0.5, False, setup_s)
        check_metrics(plain, spec["end_to_end"], problems, "trace 0")
        traced = [run.measure(ops, warmup, 1, 0.5, True, setup_s)[0] for _ in range(2)]
        check_metrics(traced[0], spec["per_layer"], problems, "trace 1")
        counts = [{k: m["value"] for k, m in t["metrics"].items() if k.endswith((".calls", ".n3"))}
                  for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"traced counts differ between runs: {counts}")
        from blockspectra.cli import main as cli_main
        check_oracle(cli_main, workdir, problems)
        check_seeding(workdir, problems)
        check_refuses_without_sources(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
