"""The benchmark's tracer (`bench/tracer.py`) patches styledl functions by
name where the model looks them up; a renamed or deleted name, or one the
forward stops calling, breaks only traced benchmark runs unless checked here."""
import importlib.util
from pathlib import Path

import numpy as np

from styledl.model import EmotionDistributionNet
from styledl.training import TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_model_spans_and_restores():
    tracer = _load_tracer()
    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        net = EmotionDistributionNet(TrainConfig(R=2, input_size=32, seed=0), 3)
        net.adversary(net.forward(np.random.default_rng(0).random((1, 3, 32, 32))))
    finally:
        tr.restore()
    assert tracer.unchanged(before)
    silent = [m for m in tracer.MODULES if m != "losses.pred_loss" and not tr.calls[m]]
    assert not silent, f"no traced call reached {silent}"
