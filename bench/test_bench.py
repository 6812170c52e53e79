"""Fast self-check of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads
from workloads import Scale, run

TINY = Scale(images=8, setup_repeats=2, save_repeats=1, single_images=2, min_ops=1)
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = run(name, seed=3, seconds=0.01, trace=trace, workdir=workdir,
                                   scale=TINY)[0]
    return out


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == workloads.END_TO_END
    assert _units("per_layer") == workloads.per_layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(results, name, trace):
    result = results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _layers(results, name):
    return {k: v["value"] for k, v in results[name, True]["metrics"].items()}


def test_layers_where_they_run(results):
    full, b128, pred = (_layers(results, n) for n in workloads.WORKLOADS)
    for module in workloads.MODULES:
        assert full[f"{module}.fwd_ms"] > 0 and full[f"{module}.bwd_ms"] > 0, module
    assert full["tensor.conv2d.k3.c8_h32_s1.bwd_ms"] > 0
    assert full["tensor.conv2d.k3.c8_h64_s1.fwd_ms"] == 0
    assert full["training.other_ms"] > 0
    assert full["training.checkpoint.save_ms"] > 0 and full["training.checkpoint.bytes"] > 0
    # preset B: style, attention, FPN, resample, adversary and GCN do no work
    for module in ("style.gram", "style.stack_grams", "style.inter_layer", "hoa.attention",
                   "hoa.fpn_fuse", "hoa.adversary", "gcn.forward"):
        assert b128[f"{module}.fwd_ms"] == 0, module
    assert b128["tensor.resample_nearest.calls"] == 0
    assert b128["tensor.conv2d.k3.c8_h64_s1.bwd_ms"] > 0
    # predict is forward only: no backward, no SGD, no training step
    assert all(v == 0 for k, v in pred.items() if k.endswith("bwd_ms"))
    for key in ("training.backward_ms", "training.sgd_ms", "training.step_ms.p50",
                "tensor.backward.walk_ms"):
        assert pred[key] == 0, key
    assert pred["tensor.tape_nodes"] > 0 and pred["training.checkpoint.load_ms"] > 0
    for layers in (full, b128, pred):
        assert 0 < layers["trace.overhead_share"]


def test_matmul_calls_per_forward_pass(results):
    full, b128, pred = (_layers(results, n) for n in workloads.WORKLOADS)
    grams, gcn = 3, 5            # one per Gram tap; static 2, dynamic adjacency 1, dynamic 2
    adversary = 2 * 2 * 2        # 2 stages x 2 orders x (fc1, fc2) Dense layers per train step
    assert pred["tensor.matmul.calls"] == grams + gcn
    assert full["tensor.matmul.calls"] == grams + gcn + adversary
    assert b128["tensor.matmul.calls"] == 0


def test_unreported_conv_row_counts_as_failed():
    tr = workloads.Tracer()
    for key in ("tensor.conv2d.k3", "tensor.conv2d.k3.c5_h7_s1"):
        tr.calls[key] += 1
        tr.fwd[key] += 1e-3
    check = workloads.Operation("rows")
    workloads.check_conv_rows(tr, check)
    assert not check.ok


def test_restore_check_sees_a_leftover_patch():
    before = workloads.snapshot()
    tr = workloads.Tracer()
    tr.install()
    try:
        assert not workloads.unchanged(before)
    finally:
        tr.restore()
    assert workloads.unchanged(before)


def test_injected_bad_output_counts_as_failed(tmp_path, monkeypatch):
    predict_batch = workloads.training.predict_batch

    def skewed(model, images, batch_size=16):
        return predict_batch(model, images, batch_size) * 1.5

    monkeypatch.setattr(workloads.training, "predict_batch", skewed)
    result = run("predict", seed=3, seconds=0.01, trace=False, workdir=tmp_path, scale=TINY)[0]
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "predict", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_work").exists()
