"""Benchmark of ``clustercolor color3`` followed by ``clustercolor verify``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload trigrid-wide --seed 0 --seconds 36 --trace 0

The workloads' generators and shapes, and what each per-layer metric should
move on which workload, are in ``bench/workloads.json``; why each workload
was chosen is its ``why`` in ``BENCHMARK.json``. The seed
permutes the vertex ids of the generated instance; the program sees only the
written ``.gr/.td/.layers`` files.

This process times the set-up (generate, permute, write) and then starts
``worker.py``, the measured process, which runs the operations through the
CLI's ``main``. With ``--trace 0`` the run reports the end-to-end metrics:
the median time of one ``color3`` and of one ``verify``, the median set-up
time, the worker's peak resident memory after its first ``color3``, and the
clustering. Times are wall seconds corrected for the machine's speed while
they were taken (see ``speed.py``); the raw wall medians are recorded too.
With ``--trace 1`` the worker wraps the pipeline's boundary functions (see
``tracer.py``) and the run reports per-boundary calls, self time (raw wall)
and work counts, and the tracing overhead.

Once the worker has exited, every operation's output is checked by
``check.py``; an operation fails if it raises, exits non-zero or fails that
check. The last line of standard output is the result as one JSON object;
the line before it, prefixed ``info``, records the seed, the instance shape
and the SHA-256 of every ``.coloring`` produced. A full record, and the
spans of a traced run, are written to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is short next to an operation, so it is repeated until both floors
# are met and its median reported.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
# The whole run must end within 180 s.
WORKER_TIMEOUT_S = 150
# Float rounding allowed when the self times of a span tree are summed.
SPAN_SUM_TOLERANCE_S = 1e-6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_instance(spec: dict, seed: int, prefix: str) -> dict:
    """Generate the workload's instance, permute its vertex ids by the seed,
    write the three input files, and return the instance's shape."""
    from clustercolor import generators, pace
    from clustercolor.graph import Graph, Layering, TreeDecomposition

    name, args, kwargs = spec["generator"]
    g, ltd, _ = getattr(generators, name)(*args, **kwargs)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    td = TreeDecomposition(
        [[perm[v] for v in bag] for bag in ltd.td.bags], ltd.td.edges, ltd.td.root
    )
    layering = Layering([[perm[v] for v in layer] for layer in ltd.layering.layers])
    pace.write_graph(g, f"{prefix}.gr")
    pace.write_td(td, g.n, f"{prefix}.td")
    pace.write_layering(layering, f"{prefix}.layers")
    return {
        "n": g.n,
        "m": len(g.edges),
        "layers": layering.m,
        "nodes": td.node_count,
        "bag_sum": sum(len(bag) for bag in td.bags),
    }


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_worker(job: dict, tmp: str) -> dict:
    """Run worker.py on the job in a fresh interpreter and return its result."""
    job_path = os.path.join(tmp, "job.json")
    job["result"] = os.path.join(tmp, "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), job_path],
        stdout=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    with open(job["result"]) as fh:
        return json.load(fh)


def check_op(op: dict, instance: check.Instance) -> list[str]:
    """Problems with one operation's outputs; empty when it passed."""
    if "error" in op:
        return [op["error"]]
    with open(f"{op['out']}.report.json") as fh:
        report = json.load(fh)
    problems = instance.problems(
        f"{op['out']}.coloring", report["clustering"], report["bound"]
    )
    verified = op["verify"]
    if not verified["ok"] or verified["clustering"] != report["clustering"]:
        problems.append(f"verify disagrees with the report: {verified}")
    if not problems:
        op["digest"] = sha256(f"{op['out']}.coloring")
    return problems


def color3_s(op: dict) -> float:
    return speed.corrected(op["color3_s"], op["color3_reference_s"])


def timed(ops: list[dict]) -> list[dict]:
    """The operations to take timings from: those that passed, or, when none
    did, those that at least ran to the end (the run is then incorrect)."""
    chosen = [op for op in ops if "digest" in op] or [op for op in ops if "verify" in op]
    if not chosen:
        raise SystemExit("no operation ran to the end")
    return chosen


def end_to_end(ops: list[dict], record: dict) -> dict:
    used = timed(ops)
    verify = [
        (wall, reference)
        for op in used
        for wall, reference in zip(op["verify_s"], op["verify_reference_s"])
    ]
    record["wall"] = {
        "color3_s": statistics.median(op["color3_wall_s"] for op in used),
        "verify_s": statistics.median(wall for wall, _ in verify),
    }
    # The first color3 of the worker process: its peak is that of a process
    # that has run one operation.
    first = next(op for op in ops if "rss_mb" in op)
    return {
        "color3_s": (statistics.median(map(color3_s, used)), "s"),
        "verify_s": (
            statistics.median(speed.corrected(wall, [ref]) for wall, ref in verify),
            "s",
        ),
        "peak_rss_mb": (first["rss_mb"], "MB"),
        "clustering": (statistics.median(op["clustering"] for op in used), "vertices"),
    }


def per_layer(result: dict, record: dict) -> tuple[dict, bool]:
    """Per-boundary metrics of a traced run, and whether the checks that
    make them trustworthy passed."""
    ops, per_op = result["ops"], result["per_op"]
    traced = timed([op for op in ops if op.get("traced")])
    untraced = timed([op for op in ops if not op.get("traced")])
    repeats = {
        name: len({metrics[name] for metrics in per_op}) == 1
        for name in tracer.count_metric_names()
    }
    gaps = result["span_gaps"]
    checks = {
        "counts_repeat": len(per_op) >= 2 and all(repeats.values()),
        "span_sums_match": bool(gaps) and max(map(abs, gaps)) <= SPAN_SUM_TOLERANCE_S,
        "self_times_nonnegative": result["min_self_s"] >= -SPAN_SUM_TOLERANCE_S,
        "traced_digest_matches": len({op["digest"] for op in ops if "digest" in op}) == 1,
    }
    record.update(
        checks=checks,
        counts_not_repeating=[name for name, ok in repeats.items() if not ok],
        absent=result["absent"],
    )
    metrics = {
        name: (value, "s" if name.endswith(".self_s") else "count")
        for name, value in tracer.median_metrics(per_op).items()
    }
    metrics["trace.color3_overhead"] = (
        statistics.median(map(color3_s, traced))
        / statistics.median(map(color3_s, untraced)),
        "ratio",
    )
    return metrics, all(checks.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clustercolor" / "cli.py").is_file():
        print(f"error: no clustercolor sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    with open(HERE / "workloads.json") as fh:
        workloads = json.load(fh)["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]

    WORK.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        prefix = os.path.join(tmp, "instance")
        setup_s, setup_reference_s = [], []
        while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_SECONDS:
            gc.collect()
            setup_reference_s.append(speed.reference_s())
            start = time.perf_counter()
            shape = build_instance(spec, args.seed, prefix)
            setup_s.append(time.perf_counter() - start)
        if shape != spec["shape"]:
            print(f"error: instance shape {shape} != {spec['shape']}", file=sys.stderr)
            return 1
        instance = check.Instance(f"{prefix}.gr", f"{prefix}.layers")
        job = {
            "prefix": prefix,
            "seconds": args.seconds,
            "trace": args.trace,
            "spans": str(WORK / f"spans-{name}.json"),
        }
        worker = run_worker(job, tmp)
        ops = worker["ops"]
        failed = 0
        for op in ops:
            problems = check_op(op, instance)
            if problems:
                failed += 1
                print(f"operation {op['out']} failed: {problems}", file=sys.stderr)
        if args.trace:
            metrics, checks_ok = per_layer(worker, record)
        else:
            metrics = end_to_end(ops, record)
            record["wall"]["setup_s"] = statistics.median(setup_s)
            metrics["setup_s"] = (
                statistics.median(
                    speed.corrected(wall, [ref])
                    for wall, ref in zip(setup_s, setup_reference_s)
                ),
                "s",
            )
            checks_ok = True

    result = {
        "correct": checks_ok and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in sorted(metrics.items())
        },
    }
    record.update(
        shape=shape,
        setup_s=setup_s,
        digests=[op.get("digest") for op in ops],
        ops=[{k: v for k, v in op.items() if k != "out"} for op in ops],
        result=result,
    )
    record_path = WORK / f"run-{name}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    info = {
        key: record[key]
        for key in ("workload", "seed", "shape", "digests", "wall", "checks", "absent")
        if key in record
    }
    info["record"] = str(record_path.relative_to(ROOT))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
