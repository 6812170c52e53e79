"""The gradient of the whole training loss through the assembled model.

c02 checks each op and three composite paths on their own. This checks
what a training step differentiates: `total_loss` of `pred_loss` and the
adversary loss, through every preset at R 1-3, against central
differences on sampled parameter coordinates.

`total_loss` weighs the adversary loss by c = L_pred / L_adv, which it
detaches, so the numeric side holds c at its value at the starting point.
The adversary heads descend on c * L_adv, while `grad_reverse` hands the
layers upstream of them its negation: the expected gradient is
dL_pred + c dL_adv for `adversary/*` parameters and dL_pred - c dL_adv for
every other one. A flipped sign or an undetached c fails the check.

A coordinate whose two one-sided slopes disagree has a ReLU or max kink
inside the step, where a central difference is not the derivative; such a
coordinate is replaced, not compared.
"""
import numpy as np
import pytest

from styledl.losses import pred_loss, total_loss
from styledl.model import ABLATION_PRESETS
from styledl.tensor import Tensor, no_grad
from styledl.training import TrainConfig, build_model

SIZE, BATCH, LABELS = 32, 2, 4
PER_GROUP = 3  # coordinates checked in each parameter group
STEP = 1e-6
KINK = 1e-5  # one-sided slopes further apart than this straddle a kink
RTOL, ATOL = 1e-4, 1e-8


def _losses(model, images, targets):
    out = model.forward(Tensor(images))
    return pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out)


@pytest.mark.parametrize("R", [1, 2, 3])
@pytest.mark.parametrize("preset", list(ABLATION_PRESETS))
def test_total_loss_gradient_matches_central_differences(preset, R):
    rng = np.random.default_rng(R)
    model = build_model(TrainConfig(ablation=preset, R=R, input_size=SIZE, seed=R), LABELS)
    model.set_static_adjacency(rng.dirichlet(np.ones(LABELS), size=LABELS))
    images = rng.random((BATCH, 3, SIZE, SIZE))
    targets = rng.dirichlet(np.ones(LABELS), size=BATCH)

    l_pred, l_adv = _losses(model, images, targets)
    coeff = l_pred.item() / max(l_adv.item(), 1e-8)
    total_loss(l_pred, l_adv).backward()
    params = model.parameters()
    analytic = {key: t.grad for key, t in params.items()}

    def loss_at(sign):
        with no_grad():
            lp, la = _losses(model, images, targets)
        return lp.item() + sign * coeff * la.item()

    groups: dict[str, list[str]] = {}
    for key in params:
        groups.setdefault(key.split("/")[0], []).append(key)
    assert ("adversary" in groups) == (ABLATION_PRESETS[preset].adversary and R > 1)

    mids = {sign: loss_at(sign) for sign in (1.0, -1.0)}
    for group, keys in sorted(groups.items()):
        sign = 1.0 if group == "adversary" else -1.0
        mid = mids[sign]
        done = 0
        for _ in range(10 * PER_GROUP):
            if done == PER_GROUP:
                break
            key = keys[rng.integers(len(keys))]
            data = params[key].data
            i = np.unravel_index(rng.integers(data.size), data.shape)
            x = data[i]
            data[i] = x + STEP
            up = loss_at(sign)
            data[i] = x - STEP
            down = loss_at(sign)
            data[i] = x
            if abs((up - mid) - (mid - down)) / STEP > KINK:
                continue
            numeric = (up - down) / (2 * STEP)
            got = analytic[key][i]
            assert abs(got - numeric) <= ATOL + RTOL * max(abs(got), abs(numeric)), (
                f"{key}[{i}]: analytic {got:.9e}, numeric {numeric:.9e}")
            done += 1
        assert done == PER_GROUP, f"{group}: only {done} coordinates clear of kinks"
