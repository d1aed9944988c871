"""The measured process: runs color3 and verify through the CLI's ``main``.

``run.py`` starts it in a fresh interpreter once the instance files are
written, and checks its outputs only after it has exited, so that the time
and the peak memory measured here are the program's own.

    python3 bench/worker.py JOB.json

The job names the instance prefix, the seconds to measure, whether to trace,
and where to write the result (and, when tracing, the spans). Each operation
writes its own ``<prefix>.op<k>.coloring`` and ``.report.json``.

Operations run until the next one, at the median duration so far, would end
past the budget, and at least ``MIN_OPS`` run. When tracing, traced and
untraced operations alternate, the untraced ones being the reference for the
tracing overhead, and at least ``MIN_TRACED_OPS`` of each run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clustercolor import cli  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402

MIN_OPS = 3
MIN_TRACED_OPS = 2
# verify is 10-100x quicker than color3: repeat it after every untraced
# color3 so its median rests on enough samples.
VERIFY_MIN_REPS = 3
VERIFY_MIN_SECONDS = 0.5
# Reference-kernel runs taken on each side of a color3 (see speed.py).
REFERENCE_REPS = 5


class OpFailed(Exception):
    """A CLI command exited non-zero."""


def call(argv: list[str], during=contextlib.nullcontext()) -> tuple[float, str]:
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), during:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}")
    return elapsed, out.getvalue()


def operation(prefix: str, index: int, verify_reps: bool, sample: bool) -> dict:
    """One color3, then verify on its coloring; never raises.

    Each color3 is timed between ``REFERENCE_REPS`` reference-kernel runs on
    either side and, with ``sample``, the kernel is also sampled while it
    runs (see speed.py). Each verify is timed right after one kernel run.
    """
    out = f"{prefix}.op{index}"
    op = {"out": out, "verify_s": [], "verify_reference_s": []}
    try:
        before = [speed.reference_s() for _ in range(REFERENCE_REPS)]
        sampler = speed.Sampler() if sample else None
        op["color3_wall_s"], _ = call(
            [
                "color3", "--gr", f"{prefix}.gr", "--td", f"{prefix}.td",
                "--layers", f"{prefix}.layers", "--out", out,
            ],
            sampler or contextlib.nullcontext(),
        )
        op["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        samples = sampler.samples if sampler else []
        after = [speed.reference_s() for _ in range(REFERENCE_REPS)]
        op["color3_s"] = op["color3_wall_s"] - sum(samples)
        op["color3_reference_s"] = before + samples + after
        with open(f"{out}.report.json") as fh:
            op["clustering"] = json.load(fh)["clustering"]
        while not op["verify_s"] or verify_reps and (
            len(op["verify_s"]) < VERIFY_MIN_REPS
            or sum(op["verify_s"]) < VERIFY_MIN_SECONDS
        ):
            op["verify_reference_s"].append(speed.reference_s())
            elapsed, stdout = call([
                "verify", "--gr", f"{prefix}.gr", "--coloring", f"{out}.coloring",
                "--k", str(op["clustering"]),
            ])
            op["verify_s"].append(elapsed)
            op["verify"] = json.loads(stdout)
    except Exception:  # any failure of the code under test is recorded
        op["error"] = traceback.format_exc()
    return op


def run_ops(prefix: str, min_ops: int, seconds: float, trace=None) -> list[dict]:
    """Operations until the next one, at the median duration so far, would
    end past ``seconds``. With a tracer, every second operation is traced."""
    ops, durations = [], []
    start = time.perf_counter()
    while len(ops) < min_ops or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        op_start = time.perf_counter()
        index = len(ops)
        if trace is None:
            ops.append(operation(prefix, index, verify_reps=True, sample=True))
        elif index % 2 == 0:
            ops.append(operation(prefix, index, verify_reps=False, sample=False))
        else:
            trace.op = index
            trace.install()
            try:
                ops.append(operation(prefix, index, verify_reps=False, sample=False))
            finally:
                trace.uninstall()
            ops[-1]["traced"] = True
        durations.append(time.perf_counter() - op_start)
    return ops


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    if not job["trace"]:
        result = {"ops": run_ops(job["prefix"], MIN_OPS, job["seconds"])}
    else:
        trace = tracer.Tracer()
        ops = run_ops(job["prefix"], 2 * MIN_TRACED_OPS, job["seconds"], trace)
        result = {
            "ops": ops,
            "per_op": [
                trace.op_metrics(index)
                for index, op in enumerate(ops)
                if op.get("traced") and "error" not in op
            ],
            "span_gaps": trace.subtree_gaps("cli.cmd_color3"),
            "min_self_s": min(trace.self_times(), default=0.0),
            "absent": trace.absent,
        }
        with open(job["spans"], "w") as fh:
            json.dump(trace.dump(), fh)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
