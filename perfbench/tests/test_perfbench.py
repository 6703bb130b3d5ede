"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    doc = _run(workload, 0)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric():
    doc = _run("cli-tables", 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert doc["metrics"]["cli.main.calls"]["value"] > 0
    assert doc["metrics"]["catalog.log_deriv.airy.points"]["value"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_op_list(workload):
    refs = workloads.load_refs()

    def keys(seed):
        return [[op.key() for op in deck] for deck in workloads.make_decks(workload, seed, refs, 4)]

    assert keys(7) == keys(7)
    assert keys(7) != keys(8)


def test_timed_decks_hold_no_known_defect_op():
    refs = workloads.load_refs()
    groups = {(e["op"], e["group"], json.dumps(e["s"]), workloads.spec_key(e["spec"]))
              for e in refs["continue"] if (e["op"], e["group"]) in workloads.DEFECT_GROUPS}
    for deck in workloads.make_decks("continue", 7, refs, 8):
        for op in deck:
            assert all((op.kind, g, json.dumps(op.args["s"]), workloads.spec_key(op.spec))
                       not in groups for g in ("noninteger", "negative"))
    probe = workloads.defect_ops(7, refs)
    assert len(probe) == 9
    assert [op.key() for op in probe] == [op.key() for op in workloads.defect_ops(7, refs)]


def test_calibration_scales_to_the_reference_speed():
    cal = run.calib.Calibration()
    for _ in range(5):
        cal.sample()
    assert len(cal.wall) == len(cal.cpu) == 5
    assert cal.wall_factor() * sum(cal.wall) / 5 == pytest.approx(run.calib.REF_S)


def test_perturbed_result_counts_as_failed():
    decks = workloads.make_decks("continue", 5, decks=1)
    ops = [op for op in decks[0] if op.kind == "continued" and op.spec["model"] == "riemann"]
    plan = {"workload": "continue", "models": [{"model": "riemann"}], "zeros": {},
            "sum_rule": []}
    mods, models = workloads.prepare(plan)
    clean = run.Loop(mods, models)
    clean.run_deck(ops)
    assert run.check_records(clean.records)[0] == []

    original = mods.evaluate.continued_zeta
    mods.evaluate.continued_zeta = lambda *a, **k: original(*a, **k) * (1.0 + 1e-6)
    try:
        perturbed = run.Loop(mods, models)
        perturbed.run_deck(ops)
    finally:
        mods.evaluate.continued_zeta = original
    failed, wrong, _ = run.check_records(perturbed.records)
    assert len(failed) == len(ops) == len(wrong)
