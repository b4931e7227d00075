"""Allocate-per-step reference for toy training.

``forward_activations``, ``gradients`` and ``train`` as they were before
training ran in one preallocated, 64-byte-aligned workspace: every step
allocates its activations, gradients and updates afresh, and the weights are
copied column-major with ``np.asfortranarray``. The arithmetic is the same
operation for operation, in the same memory orders, so the tests require the
trainer's snapshots and divergence step to equal this reference's bit for bit.
The code is the earlier trainer's, except that ``train`` reads the chunk length
as ``toy._CHUNK_STEPS``, so that a test that sets it sets it for both.
"""

from __future__ import annotations

import copy

import numpy as np

from deltaquant import toy
from deltaquant.container import TensorMap
from deltaquant.toy import (
    LinearLayer,
    ToyModel,
    TrainConfig,
    TrainingDivergedError,
    _teacher_for,
    checkpoint_map,
)


def forward_activations(layers: list[LinearLayer], inputs: np.ndarray) -> list[np.ndarray]:
    """Return [input, hidden..., output]; entry i is the input of layer i."""
    acts = [inputs]
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = acts[-1] @ layer.weight.T + layer.bias
        acts.append(np.maximum(z, 0.0, dtype=np.float32) if i < last else z)
    return acts


def gradients(
    model: ToyModel, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Mean-squared-error loss and its analytic gradients per layer.

    Loss is the mean over all batch x output elements of (out - target)^2.
    Returns (loss, {layer name: (dW, db)}).
    """
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    targets = np.ascontiguousarray(targets, dtype=np.float32)
    acts = forward_activations(model.layers, inputs)
    out = acts[-1]
    diff = out - targets
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    grad = diff * np.float32(2.0 / diff.size)
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        dw = (acts[i].T @ grad).T  # [out, in] in the memory order of a column-major weight
        db = grad.sum(axis=0)
        grads[layer.name] = (dw, db)
        if i > 0:
            grad = (grad @ layer.weight) * (acts[i] > 0)
    return loss, grads


def train(
    model: ToyModel, cfg: TrainConfig
) -> tuple[ToyModel, list[tuple[int, TensorMap]]]:
    """Gradient-descent the model against a seeded synthetic teacher.

    Returns the trained model, whose weights are column-major, and row-major
    checkpoint snapshots, always including step 0 (the pre-update weights)
    and the final step.

    Cost: inputs are drawn, and the teacher run, once per chunk of
    ``_CHUNK_STEPS`` (10) steps, the last chunk possibly shorter. Each step
    slices its batch and targets from them and runs the student forward and
    backward once. One draw per chunk yields the values of one draw per
    step, and the tests check that no snapshot depends on the chunk length.

    A non-finite loss raises ``TrainingDivergedError`` at its step, before
    that step's update; a weight or bias that the last update leaves
    non-finite raises it naming the tensor. Overflows raise no numpy warning.
    """
    model = copy.deepcopy(model)
    teacher = _teacher_for(model, cfg.data_seed)
    for layer in model.layers + teacher.layers:  # column-major: acts @ weight.T is untransposed
        layer.weight = np.asfortranarray(layer.weight)
    rng = np.random.default_rng(cfg.data_seed)
    lr = np.float32(cfg.learning_rate)
    extra = {"data_seed": str(cfg.data_seed)}

    snapshot_steps = cfg.snapshot_steps
    snapshots: list[tuple[int, TensorMap]] = [(0, checkpoint_map(model, 0, extra))]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for step in range(1, cfg.steps + 1):
            row = (step - 1) % toy._CHUNK_STEPS * cfg.batch_size
            if row == 0:
                rows = min(toy._CHUNK_STEPS, cfg.steps + 1 - step) * cfg.batch_size
                inputs = rng.standard_normal((rows, model.in_dim), dtype=np.float32)
                targets = forward_activations(teacher.layers, inputs)[-1]
            batch = slice(row, row + cfg.batch_size)
            loss, grads = gradients(model, inputs[batch], targets[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            for layer in model.layers:
                dw, db = grads[layer.name]
                layer.weight -= lr * dw
                layer.bias -= lr * db
            if step in snapshot_steps:
                snapshots.append((step, checkpoint_map(model, step, extra)))
    # no loss covers the last update; an update never makes a non-finite
    # value finite again, so the last snapshot stands for every snapshot
    last = snapshots[-1][1]
    for name in last.names():
        if not np.isfinite(last[name]).all():
            raise TrainingDivergedError(cfg.steps, name)
    return model, snapshots
