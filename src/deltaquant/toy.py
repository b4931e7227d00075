"""Small MLP, synthetic-data trainer, and activation capture.

Everything here exists so that genuine weight-update deltas and calibration
activations are available at desk scale: a rectifier MLP is trained with
plain gradient descent against a seeded teacher network, snapshots of the
weights are taken along the way, and forward passes record the input matrix
of every linear module. All randomness flows from explicit integer seeds;
the same (dims, seed, config) always produces bit-identical snapshots.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .container import TensorMap

# training steps whose inputs are drawn, and teacher targets computed, at once
_CHUNK_STEPS = 10


class TrainingDivergedError(Exception):
    """Training loss, or a tensor after the last step, became non-finite."""

    def __init__(self, step: int, tensor: str | None = None):
        what = "training loss" if tensor is None else f"tensor {tensor!r}"
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass
class LinearLayer:
    name: str
    weight: np.ndarray  # [out_features, in_features] float32
    bias: np.ndarray  # [out_features] float32


@dataclass
class ToyModel:
    layers: list[LinearLayer]
    dims: tuple[int, ...]
    seed: int

    @property
    def in_dim(self) -> int:
        return self.dims[0]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    learning_rate: float = 0.05
    batch_size: int = 32
    data_seed: int = 1
    snapshot_every: int = 100

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # training steps at the float32 rate, so it must not overflow float32
        with np.errstate(over="ignore"):
            rate = np.float32(self.learning_rate)
        if not (self.learning_rate > 0 and np.isfinite(rate)):
            raise ValueError("learning_rate must be > 0 and finite in float32")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # numpy's generators take no negative seed
        if self.data_seed < 0:
            raise ValueError("data_seed must be >= 0")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")

    @property
    def snapshot_steps(self) -> set[int]:
        """The steps ``train`` snapshots: 0, every ``snapshot_every``-th and the last."""
        return {0, self.steps, *range(self.snapshot_every, self.steps, self.snapshot_every)}


@dataclass
class CalibrationSet:
    """Per-module input rows captured from forward passes.

    ``inputs[m]`` is the exact [n_samples, in_features] matrix fed to module
    ``m``. Nothing else is stored: signals that read activation statistics
    derive them from these rows, and every user of the rows checks that
    they are finite.
    """

    inputs: dict[str, np.ndarray] = field(default_factory=dict)

    def to_tensor_map(self, meta: dict[str, str] | None = None) -> TensorMap:
        tmap = TensorMap(meta=meta or {})
        for module in sorted(self.inputs):
            tmap[f"{module}.calib_inputs"] = np.ascontiguousarray(
                self.inputs[module], dtype=np.float32
            )
        return tmap

    @classmethod
    def from_tensor_map(cls, tmap: TensorMap) -> "CalibrationSet":
        """Load the ``<module>.calib_inputs`` matrices; other tensors are ignored.

        Only the rank and dtype are checked here; the rows are not scanned, because
        the ``ModuleLoss`` and the activation signals check them where they use them.
        """
        calib = cls()
        for module in tmap.modules("calib_inputs"):
            inputs = tmap[f"{module}.calib_inputs"]
            if inputs.ndim != 2 or inputs.dtype != np.float32:
                raise ValueError(f"calibration inputs of module {module!r} must be 2-D float32")
            calib.inputs[module] = inputs
        return calib


def init_model(dims: list[int] | tuple[int, ...], seed: int) -> ToyModel:
    """Build a seeded rectifier MLP with the given layer widths.

    Weights are drawn from a normal distribution scaled by 1/sqrt(in)
    per layer; biases start at zero. Deterministic in (dims, seed).
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("dims needs at least an input and an output size")
    if any(d < 1 for d in dims):
        raise ValueError("all dims must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        scale = np.float32(1.0 / np.sqrt(n_in))
        weight = rng.standard_normal((n_out, n_in), dtype=np.float32) * scale
        bias = np.zeros(n_out, dtype=np.float32)
        layers.append(LinearLayer(name=f"layer{i}", weight=weight, bias=bias))
    return ToyModel(layers=layers, dims=dims, seed=int(seed))


def forward_activations(layers: list[LinearLayer], inputs: np.ndarray) -> list[np.ndarray]:
    """Return [input, hidden..., output]; entry i is the input of layer i."""
    acts = [inputs]
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = acts[-1] @ layer.weight.T + layer.bias
        acts.append(np.maximum(z, 0.0, dtype=np.float32) if i < last else z)
    return acts


def forward(model: ToyModel, inputs: np.ndarray) -> tuple[np.ndarray, CalibrationSet]:
    """Run the model on a batch; return its output and a copy of each module's input rows.

    Finite weights can still overflow float32 activations: that raises
    ValueError naming the first module whose activations (ReLU output, or
    the raw output of the last module) are not finite, instead of numpy's
    warning. A hidden pre-activation that overflows to -inf is ReLU's 0.
    """
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    if inputs.ndim != 2 or inputs.shape[1] != model.in_dim:
        raise ValueError(
            f"inputs must be [n, {model.in_dim}], got {tuple(inputs.shape)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        acts = forward_activations(model.layers, inputs)
    for layer, act in zip(model.layers, acts[1:]):
        if not np.isfinite(act).all():
            raise ValueError(f"activations of module {layer.name!r} are not finite")
    calib = CalibrationSet()
    for i, layer in enumerate(model.layers):
        calib.inputs[layer.name] = acts[i].copy()
    return acts[-1], calib


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


def checkpoint_map(model: ToyModel, step: int, extra_meta: dict[str, str] | None = None) -> TensorMap:
    """Snapshot the model weights and biases as a TensorMap."""
    meta = {
        "dims": ",".join(str(d) for d in model.dims),
        "seed": str(model.seed),
        "step": str(step),
    }
    if extra_meta:
        meta.update(extra_meta)
    tmap = TensorMap(meta=meta)
    for layer in model.layers:
        tmap[f"{layer.name}.weight"] = layer.weight.copy()
        tmap[f"{layer.name}.bias"] = layer.bias.copy()
    return tmap


def model_from_map(tmap: TensorMap) -> ToyModel:
    """Rebuild a ToyModel from a checkpoint's tensors; a missing bias reads as zeros, a
    misshaped, non-finite or non-float32 one raises ValueError naming it. The meta is not
    read, so the rebuilt model's seed is 0."""
    modules = sorted(tmap.modules("weight"), key=lambda n: (len(n), n))
    if not modules:
        raise ValueError("checkpoint contains no '.weight' tensors")
    layers = []
    for name in modules:
        weight = tmap[f"{name}.weight"]
        bias_name = f"{name}.bias"
        bias = tmap[bias_name] if bias_name in tmap else np.zeros(weight.shape[0], np.float32)
        if bias.dtype != np.float32 or bias.shape != weight.shape[:1] or not np.isfinite(bias).all():
            raise ValueError(f"{bias_name!r} must hold {weight.shape[0]} finite values in float32")
        layers.append(LinearLayer(name=name, weight=weight.copy(), bias=bias.copy()))
    for prev, nxt in zip(layers[:-1], layers[1:]):
        if prev.weight.shape[0] != nxt.weight.shape[1]:
            raise ValueError(
                f"layer shapes do not chain: {prev.name} -> {nxt.name}"
            )
    dims = (layers[0].weight.shape[1],) + tuple(l.weight.shape[0] for l in layers)
    return ToyModel(layers=layers, dims=dims, seed=0)


def _teacher_for(model: ToyModel, data_seed: int) -> ToyModel:
    # fixed mix keeps the teacher distinct from a student with the same seed
    return init_model(model.dims, seed=(int(data_seed) ^ 0x5EED_7EAC) & 0xFFFFFFFF)


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
            row = (step - 1) % _CHUNK_STEPS * cfg.batch_size
            if row == 0:
                rows = min(_CHUNK_STEPS, cfg.steps + 1 - step) * cfg.batch_size
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
