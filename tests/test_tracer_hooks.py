"""The benchmark's tracer (`bench/tracer.py`) patches styledl functions by
name where the model looks them up; a renamed or deleted name, or one the
forward stops calling, breaks only traced benchmark runs unless checked here."""
import importlib.util
from pathlib import Path

import numpy as np

from styledl.losses import pred_loss, total_loss
from styledl.model import EmotionDistributionNet
from styledl.tensor import Tensor
from styledl.training import TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_model_spans_and_restores():
    """Every module span is reached and every patch undone. `ConvBlock`
    runs as one `conv_block` node that calls the public `conv2d`, so the
    12 3x3 convs of `full` (10 backbone, 2 style) are still counted and
    their backward still timed."""
    tracer = _load_tracer()
    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        net = EmotionDistributionNet(TrainConfig(R=2, input_size=32, seed=0), 3)
        r = np.random.default_rng(0)
        out = net.forward(Tensor(r.random((2, 3, 32, 32))))
        total_loss(pred_loss(out.y_e, out.y_emotion, r.dirichlet(np.ones(3), size=2)),
                   net.adversary(out)).backward()
    finally:
        tr.restore()
    assert tracer.unchanged(before)
    silent = [m for m in tracer.MODULES if m != "losses.pred_loss" and not tr.calls[m]]
    assert not silent, f"no traced call reached {silent}"
    assert tr.calls["tensor.conv2d.k3"] == 12
    assert tr.bwd["tensor.conv2d.k3"] > 0
