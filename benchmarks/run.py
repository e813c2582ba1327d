"""The opgroups benchmark.

    python3 benchmarks/run.py --workload rb_products --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run drives the public ``opgroups`` API
from the checkout's ``src`` on one workload:

* ``rb_products``   parse two Rota-Baxter words, diamond them, print the result;
* ``diff_derive``   parse a derived-letter word, derive it 3-6 times, print it;
* ``lab_eval``      relabel a group of order <= 8, validate it, enumerate the
  operators of one law, check and convert them and evaluate words into them;
* ``operated_text`` parse two bracketed words, multiply, raise to a power
  2-120, bracket, invert and print.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several fresh processes), throughput, median and 90th-percentile op latency,
the share of ops that completed, the share of checks that passed and peak
memory.  Times are scaled to a reference speed of the host, calibrated in
the same process next to the ops and the set-up (``calibrate.py``); the
report also prints them unscaled.  With ``--trace 1`` it runs the workload
untraced for ``--seconds`` and then traced over a fixed number of whole
blocks (``TRACE_BLOCKS``), in two fresh processes, and prints per-layer
calls, self time and work counts; with the work fixed, these repeat exactly
for a seed and compare across versions.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each workload runs in fresh single-threaded processes (see ``worker.py``),
one at a time; inputs come from ``gen.py`` and depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7          # fresh processes whose set-up time is measured
RUN_LIMIT_S = 170       # the whole command, all child processes included
# Blocks of the traced run: about 7-9 s of untraced op time on a 2-vCPU VM.
TRACE_BLOCKS = {"rb_products": 8, "diff_derive": 16, "lab_eval": 2, "operated_text": 28}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "completed_ratio": "ratio",
    "checks_passed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Functions the ops call, by module, with the work counts each reports.
LAYER_FUNCTIONS = {
    "words.parse_word": ("chars_in",),
    "words.format_word": ("chars_out",),
    "words.Word.mul": (),
    "words.Word.pow": ("atoms_out",),
    "words.Word.inverse": (),
    "operated.bracket": (),
    "operated.evaluate": (),
    "rota_baxter.diamond": ("atoms_out", "guard_errors"),
    "rota_baxter.evaluate": (),
    "rota_baxter.RBTarget": (),
    "differential.parse_diff_word": (),
    "differential.format_diff_word": ("chars_out",),
    "differential.derive_power": ("letters_out",),
    "differential.evaluate": (),
    "differential.DiffTarget": (),
    "finite.validate_group": (),
    "finite.adjoint_action": (),
    "finite.enumerate_operators": ("operators_found",),
    "finite.check_identity": ("violations",),
    "finite.convert_weight": (),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn, work in LAYER_FUNCTIONS.items():
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units.update({f"{fn}.{w}": "count" for w in work})
    units["bench.op.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(job: dict, deadline: float) -> dict:
    spawned = clock()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), repr(spawned)],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=max(deadline - clock(), 1), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    """The end-to-end metrics; ``setups`` and the latencies are scaled."""
    lat = res["scaled"]
    checks, wrong = sum(res["checks"].values()), sum(res["wrong"].values())
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": (len(lat) - res["failed"]) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "completed_ratio": (len(lat) - res["failed"]) / len(lat),
        "checks_passed_ratio": (checks - wrong) / checks if checks else 1.0,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def per_layer(base: dict, traced: dict) -> dict[str, float]:
    counts, self_s = traced["counts"], traced["self_s"]
    # self times are scaled to the reference speed like the op latencies
    speed = sum(traced["scaled"]) / sum(traced["latencies"])
    out = {}
    for name in per_layer_units():
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0) * speed
        elif name != "trace.overhead_ratio":
            out[name] = counts.get(name, 0)
    # untraced over traced scaled op time on the ops both runs made: both
    # start at the seed's first block
    m = min(len(base["scaled"]), len(traced["scaled"]))
    out["trace.overhead_ratio"] = sum(base["scaled"][:m]) / sum(traced["scaled"][:m])
    return out


def report(args, res: dict, metrics: dict, units: dict) -> None:
    lat, cals = res["latencies"], res["calibrations"]
    print(f"workload {args.workload}, seed {args.seed}: {len(lat)} ops attempted, "
          f"{res['failed']} failed, {res['blocks']} blocks, {res['elapsed']:.2f} s of op time")
    print(f"  unscaled: throughput {(len(lat) - res['failed']) / res['elapsed']:.4f} 1/s, "
          f"p50 {statistics.median(lat) * 1e3:.4f} ms, "
          f"p90 {statistics.quantiles(lat, n=10)[-1] * 1e3:.4f} ms")
    print(f"  calibrations: {len(cals)}, median {statistics.median(cals) * 1e3:.3f} ms, "
          f"range {min(cals) * 1e3:.3f}-{max(cals) * 1e3:.3f} ms "
          f"(reference {calibrate.REFERENCE_S * 1e3:.3f} ms)")
    for line in res["inputs"]:
        print(f"  input  {line} (first {res['described']} ops)")
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[-1]
        above = sum(1 for t in lat if t > p90)
        note = "" if above >= 10 else "  (fewer than 10: run longer)"
        print(f"  ops above the 90th percentile: {above}{note}")
    total, wrong = sum(res["checks"].values()), sum(res["wrong"].values())
    failed = res["failed"]
    print(f"  error_ratio {failed / max(len(lat), 1):.6f} ({failed} of {len(lat)} ops)"
          f"; wrong_ratio {wrong / max(total, 1):.6f} ({wrong} of {total} checks)")
    for kind, n in sorted(res["checks"].items()):
        print(f"  check  {kind}: {n - res['wrong'].get(kind, 0)} of {n} passed")
    for kind, text in sorted(res["witness"].items()):
        print(f"  wrong  {kind}: {text}")
    for text in res["errors"]:
        print(f"  failed op: {text}")
    print("counts " + json.dumps(dict(sorted(res["counts"].items()))))
    work = {k: v for k, v in sorted(res["counts"].items()) if not k.endswith(".calls")}
    if work and lat:
        print("  work per op: " + ", ".join(f"{k} {v / len(lat):.1f}" for k, v in work.items()))
    self_s = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    if self_s:
        by_layer: dict[str, float] = {}
        for name, v in self_s.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + v
        total_s = sum(by_layer.values())
        print("  self time by layer: " + ", ".join(
            f"{k} {v / total_s:.1%}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "opgroups" / "__init__.py").is_file():
        print(f"error: no opgroups sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = clock() + RUN_LIMIT_S
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "blocks": None, "fixed": gen.fixed_inputs(args.workload, args.seed),
           "trace": False, "checks": True, "setup_only": False}
    if args.trace:
        base = run_child({**job, "checks": False}, deadline)
        res = run_child({**job, "trace": True, "blocks": TRACE_BLOCKS[args.workload]},
                        deadline)
        metrics, units = per_layer(base, res), per_layer_units()
        print(f"spans written to {res['spans_file']}")
    else:
        setups = [run_child({**job, "setup_only": True}, deadline)
                  for _ in range(SETUP_REPS - 1)]
        res = run_child(job, deadline)
        setups = [r["setup_s"] * calibrate.REFERENCE_S / r["setup_calibration"]
                  for r in setups + [res]]
        metrics, units = end_to_end(setups, res), END_TO_END
    report(args, res, metrics, units)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": len(res["latencies"]),
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
