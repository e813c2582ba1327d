"""Quick test of the benchmark itself.

    python3 -m pytest -q benchmarks/test_bench.py

A short run of every workload prints every declared metric with its unit,
and repeats every exact count for a fixed seed.  A tiny ``--seconds`` runs
one whole block untraced; the traced run always runs ``run.TRACE_BLOCKS``
blocks.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402

SEED = 7
TINY_SECONDS = "0.001"
# The layer whose self time each workload is built to stress, and layers it
# must not call at all.
DOMINANT = {
    "rb_products": ("rota_baxter.diamond",),
    "diff_derive": ("differential.derive_power",),
    "lab_eval": ("finite.", "rota_baxter.evaluate", "rota_baxter.RBTarget",
                 "differential.evaluate", "differential.DiffTarget", "operated.evaluate"),
    "operated_text": ("words.", "operated.bracket"),
}
BYPASSED = {
    "rb_products": ("differential.", "finite.", "operated.", "words.Word."),
    "diff_derive": ("words.", "rota_baxter.", "finite.", "operated."),
    "lab_eval": ("words.", "rota_baxter.diamond", "differential.derive_power",
                 "differential.parse_diff_word", "operated.bracket"),
    "operated_text": ("rota_baxter.", "differential.", "finite.", "operated.evaluate"),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    counts = json.loads(next(ln for ln in lines if ln.startswith("counts "))[len("counts "):])
    return json.loads(lines[-1]), counts


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declaration_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run(workload):
    plain, plain_counts = bench(workload, 0)
    again, again_counts = bench(workload, 0)
    traced, _ = bench(workload, 1)

    for res, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared(kind)
    block = len(gen.block(workload, SEED, 0))
    assert plain["attempted"] == block
    assert traced["attempted"] == block * run.TRACE_BLOCKS[workload]
    # work counts (operators found, atoms and letters out, guard errors, ...),
    # failed ops and failed checks repeat exactly
    assert plain_counts == again_counts
    assert plain["failed"] == again["failed"]
    for ratio in ("completed_ratio", "checks_passed_ratio"):
        assert plain["metrics"][ratio] == again["metrics"][ratio]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    layer = traced["metrics"]
    self_s = {k[:-len(".self_s")]: v["value"] for k, v in layer.items()
              if k.endswith(".self_s") and not k.startswith("bench.")}
    mine = sum(v for k, v in self_s.items() if k.startswith(DOMINANT[workload]))
    assert mine > 0.5 * sum(self_s.values())
    for name, m in layer.items():
        if name.endswith(".calls") and name.startswith(BYPASSED[workload]):
            assert m["value"] == 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rb_products", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_ops_are_counted_timed_and_survived():
    import worker
    from spans import Tracer
    from workloads import DiamondLimitError

    calls = []

    def op(state, rec, tr):
        calls.append(rec)
        if len(calls) % 3 == 0:
            raise DiamondLimitError("diamond recursion guard exceeded")
        return "1"

    # a tiny time limit runs one whole block of 21 ops
    job = {"workload": "diff_derive", "seed": 1, "seconds": 1e-9, "blocks": None}
    res = worker.timed_phase(job, None, op, Tracer(False))
    assert (res["blocks"], len(res["scaled"]), res["failed"], len(res["errors"])) == (1, 21, 7, 7)
    assert [out for _, out in res["kept"]].count(None) == 7
    res.update(checks={"k": 4}, wrong={"k": 1}, peak_rss_kb=1024)
    m = run.end_to_end([0.1], res)
    assert m["throughput_ops_s"] == pytest.approx(14 / sum(res["scaled"]))
    assert m["completed_ratio"] == pytest.approx(14 / 21)
    assert m["checks_passed_ratio"] == pytest.approx(3 / 4)
