"""The benchmark (`bench/workloads.py`) drives styledl through its public
API: `training.build_model`, `Checkpoint.velocity`, `model.STYLE_WIDTHS`,
`BackboneConfig().stage_channels` and more. A change that breaks one of
these names fails here, in seconds, instead of only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)  # puts bench/ on sys.path and imports `tracer`
        yield module
    finally:
        sys.path[:] = saved_path
        sys.modules.pop(spec.name)
        sys.modules.pop("tracer", None)


def _tiny_run(workloads, tmp_path, name, trace):
    assert name in workloads.WORKLOADS
    scale = workloads.Scale(images=8, setup_repeats=2, save_repeats=1, single_images=2,
                            min_ops=1)
    result, _ = workloads.run(name, seed=3, seconds=0.01, trace=trace, workdir=tmp_path,
                              scale=scale)
    assert result["attempted"] > 0 and result["failed"] == 0, result


@pytest.mark.parametrize("name", ["train-full", "train-backbone-128", "predict"])
def test_untraced_workload_runs_without_failures(workloads, tmp_path, name):
    _tiny_run(workloads, tmp_path, name, trace=False)


@pytest.mark.parametrize("name", ["train-full", "train-backbone-128", "predict"])
def test_traced_workload_runs_without_failures(workloads, tmp_path, name):
    """The traced run checks that traced and untraced results are the same
    bits, that the tracer restores every name it patched, and that every
    3x3 conv shape it saw has a row; each failed check counts as failed.
    `train-backbone-128` checks the 128 px conv rows, which the stage
    chains reach through `conv2d`, and SGD applied in the traced walk."""
    _tiny_run(workloads, tmp_path, name, trace=True)
