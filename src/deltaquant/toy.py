"""Small MLP, synthetic-data trainer, and activation capture.

Everything here exists so that genuine weight-update deltas and calibration
activations are available at desk scale: a rectifier MLP is trained with
plain gradient descent against a seeded teacher network, snapshots of the
weights are taken along the way, and forward passes record the input matrix
of every linear module. All randomness flows from explicit integer seeds;
the same (dims, seed, config) always produces bit-identical snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .container import TensorMap, check_tensor, checkpoint_modules

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

        Only ``check_tensor``'s rank and dtype rule applies here; the rows are not scanned,
        because the ``ModuleLoss`` and the activation signals check them where they use them.
        """
        calib = cls()
        for module in tmap.modules("calib_inputs"):
            name = f"{module}.calib_inputs"
            calib.inputs[module] = check_tensor(tmap[name], name, 2)
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


def forward_activations(
    layers: list[LinearLayer], inputs: np.ndarray, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Return [input, hidden..., output]; entry i is the input of layer i.

    Layer i writes its output into ``out[i]``, a C-contiguous float32
    [n, out_features] array; with ``out`` None each is allocated here.
    """
    if out is None:
        out = [np.empty((len(inputs), layer.weight.shape[0]), np.float32) for layer in layers]
    acts = [inputs]
    last = len(layers) - 1
    for i, (layer, z) in enumerate(zip(layers, out)):
        np.matmul(acts[-1], layer.weight.T, out=z)
        np.add(z, layer.bias, out=z)
        if i < last:
            np.maximum(z, 0.0, out=z, dtype=np.float32)
        acts.append(z)
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


def _aligned(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """An uninitialized C-order array whose first byte is on a 64-byte boundary."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(dtype).reshape(shape)


class Workspace:
    """Every array one ``gradients`` call on ``rows`` rows writes, each 64-byte aligned.

    Per layer i of ``dims``: its output ``acts[i]`` [rows, out], which for the
    last layer then holds the output error; ``dw[i]`` [in, out], C-order, so that
    ``dw[i].T`` is the column-major [out, in] gradient; and ``db[i]`` [out]. Per
    hidden layer: the gradient rows back-propagated to its output ``back[i]``
    and its ReLU mask ``masks[i]``. And ``sq``, the float64 squared error.
    """

    def __init__(self, dims: tuple[int, ...], rows: int):
        pairs = list(zip(dims[:-1], dims[1:]))
        self.acts = [_aligned((rows, n_out)) for _, n_out in pairs]
        self.back = [_aligned((rows, n_out)) for _, n_out in pairs[:-1]]
        self.masks = [_aligned((rows, n_out), np.bool_) for _, n_out in pairs[:-1]]
        self.dw = [_aligned(pair) for pair in pairs]
        self.db = [_aligned((n_out,)) for _, n_out in pairs]
        self.sq = _aligned((rows, dims[-1]), np.float64)


def gradients(
    model: ToyModel, inputs: np.ndarray, targets: np.ndarray, work: Workspace | None = None
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Mean-squared-error loss and its analytic gradients per layer.

    Loss is the mean over all batch x output elements of (out - target)^2.
    Returns (loss, {layer name: (dW, db)}). Every array is written in
    ``work``, a ``Workspace`` for the model's dims and the batch's rows; with
    ``work`` None one is allocated here. The gradients are views of it, valid
    until the next call with the same workspace.
    """
    inputs = np.ascontiguousarray(inputs, dtype=np.float32)
    targets = np.ascontiguousarray(targets, dtype=np.float32)
    if work is None:
        work = Workspace(model.dims, len(inputs))
    acts = forward_activations(model.layers, inputs, work.acts)
    grad = np.subtract(acts[-1], targets, out=acts[-1])
    np.square(grad, dtype=np.float64, out=work.sq)
    loss = float(np.add.reduce(work.sq, axis=None) / work.sq.size)
    np.multiply(grad, np.float32(2.0 / grad.size), out=grad)
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        dw = np.matmul(acts[i].T, grad, out=work.dw[i]).T
        db = np.add.reduce(grad, axis=0, out=work.db[i])
        grads[layer.name] = (dw, db)
        if i > 0:
            back = np.matmul(grad, layer.weight, out=work.back[i - 1])
            grad = np.multiply(back, np.greater(acts[i], 0, out=work.masks[i - 1]), out=back)
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
    """``model_from_modules`` of the modules ``checkpoint_modules`` reads from ``tmap``."""
    return model_from_modules(checkpoint_modules(tmap))


def model_from_modules(modules) -> ToyModel:
    """Rebuild a ToyModel from the ``(module, weight, bias)`` that ``checkpoint_modules``
    yielded, in chain order; no meta is read, so the rebuilt model's seed is 0.

    The layers hold the read arrays, not copies: writing a layer's weight or bias in
    place writes the map. ``train`` trains a copy of its model, so the map keeps its values."""
    layers = [LinearLayer(*module) for module in modules]
    for prev, nxt in zip(layers[:-1], layers[1:]):
        if prev.weight.shape[0] != nxt.weight.shape[1]:
            raise ValueError(f"layer shapes do not chain: {prev.name} -> {nxt.name}")
    dims = (layers[0].weight.shape[1],) + tuple(l.weight.shape[0] for l in layers)
    return ToyModel(layers=layers, dims=dims, seed=0)


def _teacher_for(model: ToyModel, data_seed: int) -> ToyModel:
    # fixed mix keeps the teacher distinct from a student with the same seed
    return init_model(model.dims, seed=(int(data_seed) ^ 0x5EED_7EAC) & 0xFFFFFFFF)


def _column_major_copy(model: ToyModel) -> ToyModel:
    """A copy of the model with column-major weights, so that ``acts @ weight.T`` is
    untransposed, and every weight and bias on a 64-byte boundary."""
    layers = []
    for layer in model.layers:
        weight = _aligned(layer.weight.shape[::-1]).T
        bias = _aligned(layer.bias.shape)
        weight[...], bias[...] = layer.weight, layer.bias
        layers.append(LinearLayer(layer.name, weight, bias))
    return replace(model, layers=layers)


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
    Every array a step writes (the chunk's inputs and teacher activations,
    a ``Workspace`` for the student's batch, the weights and biases of the
    student and the teacher) is allocated once per run, 64-byte aligned, and
    every operation writes into it in place: a step allocates no array, and
    the snapshots keep the bits of allocating ones.

    A non-finite loss raises ``TrainingDivergedError`` at its step, before
    that step's update; a weight or bias that the last update leaves
    non-finite raises it naming the tensor. Overflows raise no numpy warning.
    """
    teacher = _column_major_copy(_teacher_for(model, cfg.data_seed))
    model = _column_major_copy(model)
    rng = np.random.default_rng(cfg.data_seed)
    lr = np.float32(cfg.learning_rate)
    extra = {"data_seed": str(cfg.data_seed)}
    chunk_rows = min(_CHUNK_STEPS, cfg.steps) * cfg.batch_size
    chunk_inputs = _aligned((chunk_rows, model.in_dim))
    chunk_acts = [_aligned((chunk_rows, n_out)) for n_out in model.dims[1:]]
    work = Workspace(model.dims, cfg.batch_size)

    snapshot_steps = cfg.snapshot_steps
    snapshots: list[tuple[int, TensorMap]] = [(0, checkpoint_map(model, 0, extra))]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for step in range(1, cfg.steps + 1):
            row = (step - 1) % _CHUNK_STEPS * cfg.batch_size
            if row == 0:
                rows = min(_CHUNK_STEPS, cfg.steps + 1 - step) * cfg.batch_size
                inputs = rng.standard_normal(out=chunk_inputs[:rows], dtype=np.float32)
                out = [acts[:rows] for acts in chunk_acts]
                targets = forward_activations(teacher.layers, inputs, out)[-1]
            batch = slice(row, row + cfg.batch_size)
            loss, grads = gradients(model, inputs[batch], targets[batch], work)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            for layer in model.layers:
                dw, db = grads[layer.name]
                layer.weight -= np.multiply(dw, lr, out=dw)
                layer.bias -= np.multiply(db, lr, out=db)
            if step in snapshot_steps:
                snapshots.append((step, checkpoint_map(model, step, extra)))
    # no loss covers the last update; an update never makes a non-finite
    # value finite again, so the last snapshot stands for every snapshot
    last = snapshots[-1][1]
    for name in last.names():
        if not np.isfinite(last[name]).all():
            raise TrainingDivergedError(cfg.steps, name)
    return model, snapshots
