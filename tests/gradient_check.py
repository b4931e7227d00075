"""Finite-difference check of the toy MLP's analytic gradients.

Central differences of a float64 loss, with the rectifier pattern frozen
at the base point, against ``deltaquant.toy.gradients`` on a sample of
parameters. Shared by the toy-model tests and acceptance criterion 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deltaquant.toy import ToyModel, forward_activations, gradients

# parameter cap, worst relative error that passes, parameters sampled,
# central-difference step, sampling seed
_FDIFF_PARAM_LIMIT = 1000
_FDIFF_TOLERANCE = 1e-3
_FDIFF_SAMPLES = 64
_FDIFF_STEP = 1e-3
_FDIFF_SEED = 0


@dataclass
class FiniteDiffReport:
    max_rel_error: float
    num_checked: int
    tolerance: float
    passed: bool
    worst: tuple[str, str, int] | None  # (layer, 'weight'|'bias', flat index)


def _loss_f64_frozen(
    model: ToyModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    masks: list[np.ndarray],
) -> float:
    """Loss with the rectifier pattern pinned to the base point.

    Freezing the masks keeps the loss exactly quadratic in every single
    parameter, so central differences probe the same piece of the
    piecewise function that the analytic subgradient describes.
    """
    x = inputs.astype(np.float64)
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        z = x @ layer.weight.astype(np.float64).T + layer.bias.astype(np.float64)
        x = z * masks[i] if i < last else z
    d = x - targets.astype(np.float64)
    return float(np.mean(d * d))


def finite_diff_check(
    model: ToyModel,
    inputs: np.ndarray,
    targets: np.ndarray | None = None,
    *,
    grad_fn=None,
) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    Samples up to 64 parameters across all layers, perturbs each by
    +-1e-3, and reports the worst relative error (absolute where both
    gradients are below 1e-6); the check passes at or below 1e-3. The
    rectifier activation pattern is frozen at the base point, so the
    difference quotient stays inside the smooth piece whose derivative the
    analytic path computes. ``grad_fn`` defaults to
    :func:`gradients` and exists so tests can inject deliberately
    corrupted gradients.
    """
    params = sum(layer.weight.size + layer.bias.size for layer in model.layers)
    if params > _FDIFF_PARAM_LIMIT:
        raise ValueError(
            f"model has {params} parameters; finite_diff_check is limited to {_FDIFF_PARAM_LIMIT}"
        )
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    if targets is None:
        targets = np.zeros((inputs.shape[0], model.dims[-1]), dtype=np.float32)
    targets = np.ascontiguousarray(targets, dtype=np.float32)

    _, grads = (grad_fn or gradients)(model, inputs, targets)
    acts = forward_activations(model.layers, inputs)
    masks = [(acts[i + 1] > 0).astype(np.float64) for i in range(len(model.layers) - 1)]

    slots: list[tuple[str, str, int]] = []
    for layer in model.layers:
        slots.extend((layer.name, "weight", j) for j in range(layer.weight.size))
        slots.extend((layer.name, "bias", j) for j in range(layer.bias.size))
    rng = np.random.default_rng(_FDIFF_SEED)
    picked = rng.choice(len(slots), size=min(_FDIFF_SAMPLES, len(slots)), replace=False)

    by_name = {layer.name: layer for layer in model.layers}
    max_err = 0.0
    worst = None
    for raw in sorted(int(i) for i in picked):
        lname, pname, j = slots[raw]
        layer = by_name[lname]
        param = getattr(layer, pname)
        old = param.flat[j]
        param.flat[j] = old + np.float32(_FDIFF_STEP)
        loss_plus = _loss_f64_frozen(model, inputs, targets, masks)
        param.flat[j] = old - np.float32(_FDIFF_STEP)
        loss_minus = _loss_f64_frozen(model, inputs, targets, masks)
        param.flat[j] = old
        numeric = (loss_plus - loss_minus) / (2.0 * _FDIFF_STEP)
        analytic = float(grads[lname][0 if pname == "weight" else 1].reshape(-1)[j])
        denom = max(abs(analytic), abs(numeric))
        err = abs(analytic - numeric) if denom < 1e-6 else abs(analytic - numeric) / denom
        if err > max_err:
            max_err = err
            worst = (lname, pname, j)
    return FiniteDiffReport(
        max_rel_error=max_err,
        num_checked=len(picked),
        tolerance=_FDIFF_TOLERANCE,
        passed=max_err <= _FDIFF_TOLERANCE,
        worst=worst,
    )
