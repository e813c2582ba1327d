"""One workload in one fresh single-threaded process.

Started by ``run.py`` with the monotonic clock reading taken just before the
process was spawned as its only argument, and the job as JSON on stdin.  It
imports ``opgroups`` from the checkout's ``src``, sets up, runs whole input
blocks for the job's seconds of op time (or a fixed number of blocks),
calibrating the host's speed as it goes (``calibrate.py``), then checks the
outputs of the first ops untimed and prints one JSON object on stdout.
Set-up time runs from the spawn to the end of set-up, so it includes starting
the interpreter and importing ``opgroups``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Outputs of this many ops (the first ones of the seed) are checked, and their
# inputs described, so that check time and the memory the benchmark itself
# holds stay bounded however fast the program gets, and the checks see the
# same ops however slow it is.
CHECKED_OPS = 500
CALIBRATE_EVERY_S = 0.1  # op time between two calibrations
SETUP_CALIBRATIONS = 5   # calibrations after set-up; the median scales it
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import OP_ERRORS, WORKLOADS, Checks  # noqa: E402


def clock() -> float:
    # system-wide, so readings of the parent and the child compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def timed_phase(job: dict, state, op, tracer) -> dict:
    """Run whole blocks until ``seconds`` of op time have passed or, when the
    job names a number of ``blocks``, exactly that many.  The host's speed is
    calibrated before the first op, after the last and between ops after
    every ``CALIBRATE_EVERY_S`` of op time; each op's latency is also given
    scaled to the reference speed by the mean of the two calibrations around
    it.  Generating a block, the garbage collection before it and
    calibrating are not op time.  Returns the latencies, raw and scaled, the
    failures, the op time, the number of blocks, the calibrations and the
    first ``CHECKED_OPS`` records with their outputs (None for a failed
    op)."""
    latencies, scaled, errors, kept, cals = [], [], [], [], [calibrate()]
    failed, elapsed, blocks, since = 0, 0.0, 0, 0.0

    def calibrate_segment():
        cals.append(calibrate())
        factor = REFERENCE_S / ((cals[-2] + cals[-1]) / 2)
        scaled.extend(t * factor for t in latencies[len(scaled):])

    while (blocks < job["blocks"]) if job["blocks"] else (elapsed < job["seconds"]):
        recs = gen.block(job["workload"], job["seed"], blocks)
        blocks += 1
        gc.collect()
        for rec in recs:
            t0 = perf_counter()
            tracer.begin_op(len(latencies))
            try:
                out = op(state, rec, tracer)
            except OP_ERRORS as e:
                out = None
                failed += 1
                errors.append(f"{type(e).__name__}: {e}")
            finally:
                tracer.end_op()
            t = perf_counter() - t0
            latencies.append(t)
            elapsed += t
            since += t
            if len(kept) < CHECKED_OPS:
                kept.append((rec, out))
            if since >= CALIBRATE_EVERY_S:
                calibrate_segment()
                since = 0.0
    if len(scaled) < len(latencies):
        calibrate_segment()
    return {"latencies": latencies, "scaled": scaled, "failed": failed, "errors": errors,
            "elapsed": elapsed, "blocks": blocks, "calibrations": cals, "kept": kept}


def fill_checked(job: dict, state, op, kept: list, next_block: int) -> None:
    """Run, untimed, the first ``CHECKED_OPS`` ops that the timed phase did
    not reach, and keep them with their outputs."""
    tracer = Tracer(False)
    while len(kept) < CHECKED_OPS:
        for rec in gen.block(job["workload"], job["seed"], next_block)[:CHECKED_OPS - len(kept)]:
            try:
                out = op(state, rec, tracer)
            except OP_ERRORS:
                out = None
            kept.append((rec, out))
        next_block += 1


def main() -> int:
    spawned = float(sys.argv[1])
    job = json.load(sys.stdin)
    wl = WORKLOADS[job["workload"]]
    state = wl.setup(job["fixed"])
    result: dict = {"setup_s": clock() - spawned,
                    "setup_calibration": statistics.median(
                        calibrate() for _ in range(SETUP_CALIBRATIONS))}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = Tracer(job["trace"])
    timed = timed_phase(job, state, wl.op, tracer)
    kept = timed.pop("kept")
    result.update(timed, errors=timed["errors"][:3],
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  counts=dict(tracer.counts))
    if job["checks"]:
        fill_checked(job, state, wl.op, kept, timed["blocks"])
        checks = Checks()
        for i, (rec, out) in enumerate(kept):
            if out is not None:
                wl.check_op(state, i, rec, out, checks)
        wl.check_end(state, checks)
        result.update(described=len(kept),
                      inputs=gen.describe(job["workload"], [rec for rec, _ in kept]),
                      correct=checks.correct, checks=dict(checks.total),
                      wrong=dict(checks.failed), witness=checks.witness)
    if job["trace"]:
        result["self_s"] = tracer.self_seconds()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{job['workload']}-seed{job['seed']}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
