"""Loss-minimizing per-channel scale search.

The scaling factor of input channel c is s_c = I_c^alpha, the channel's
importance raised to a searched exponent. For a candidate scale the weight
columns are multiplied by s, quantized round-to-nearest, dequantized, and
divided back by s; the loss is the mean squared difference between the
reconstructed and the original layer outputs on calibration inputs. alpha
is searched on an endpoint-inclusive uniform grid (default 20 points over
[0, 1]), so alpha = 0 always reproduces plain unscaled quantization and
the best candidate can never lose to it.

One ``ModuleLoss`` per module serves every candidate. It validates the
calibration rows once; ``loss(recon)`` scores any reconstruction and
``loss.quantized_many(qcfg, scales)`` scores round-to-nearest of the weight
under each of several channel scales: ``search_scale`` scores plain RTN and
the whole grid in one call, ``quant_loss`` and the evaluation report one
scale through ``loss.quantized``. ``search_loss`` searches on a built loss,
so that the pseudo-fine-tuning curve scores plain RTN once per module and
only each snapshot's grid. Candidates are quantized and decoded in
batches of up to ``_BATCH_WEIGHTS`` weights, one call each per batch, which
spares small modules most of the fixed per-call cost; each candidate keeps
its own loss product, so every loss has the bits it has when scored alone.
With at least ``in_features`` calibration rows it scores through
the Gram matrix ``H = X.T @ X``, with fewer it multiplies by the rows
directly. The choice depends only on the shapes, and both forms give the
same loss up to float64 rounding.

Importance vectors are normalized by sqrt(max * min) before
exponentiation. This recentres the scale range around one without moving
the argmin: rescaling the importance by a constant changes neither the
normalized base nor any candidate loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .container import TensorMap
from .quant import (
    QuantConfig,
    QuantizedTensor,
    checked_channel_scale,
    dequantize,
    rtn_quantize,
    select_protected,
)
from .toy import CalibrationSet

# weights per batch of search candidates quantized and decoded by one call each
_BATCH_WEIGHTS = 1 << 18


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 20
    alpha_lo: float = 0.0
    alpha_hi: float = 1.0
    max_calib_rows: int = 512

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not -np.inf < self.alpha_lo < self.alpha_hi < np.inf:
            raise ValueError("need finite alpha_lo < alpha_hi")
        if self.max_calib_rows < 1:
            raise ValueError("max_calib_rows must be >= 1")

    def alphas(self) -> list[float]:
        span = self.alpha_hi - self.alpha_lo
        return [
            self.alpha_lo + k * span / (self.grid_points - 1)
            for k in range(self.grid_points)
        ]


@dataclass
class SearchResult:
    module: str
    alpha_star: float
    scale: np.ndarray  # float32 [in]
    loss_curve: list[tuple[float, float]]
    rtn_loss: float
    best_loss: float


class ModuleLoss:
    """Output-error loss of reconstructions of one weight on fixed calibration rows.

    Built once per module: the weight is kept as float32 and the rows are
    validated and cast to float64 here, not per candidate. With ``n`` rows
    and ``E = recon - weight`` the loss is ``mean((X @ E.T)**2)`` over
    ``n * out`` outputs. When ``n >= in_features`` only the Gram matrix
    ``H = X.T @ X`` is kept and the loss is ``sum((E @ H) * E) / (n * out)``,
    which costs ``out * in**2`` instead of ``n * in * out`` per candidate;
    with fewer rows ``X`` is kept and the direct form used. The choice
    depends only on the shapes. The two forms agree up to float64 rounding
    (about 1e-15 relative). ``module`` names the errors.

    ``quantized_many`` scores channel-scale candidates in batches: one
    quantize and one decode per batch of up to ``_BATCH_WEIGHTS`` weights,
    then one loss product per candidate.
    """

    def __init__(self, weight: np.ndarray, calib_inputs: np.ndarray, module: str = "") -> None:
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        x = np.asarray(calib_inputs)
        where = f" for module {module!r}" if module else ""
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(f"calibration inputs{where} must be [n, in_features]")
        if x.shape[0] < 1:
            raise ValueError(f"need at least one calibration row{where}")
        x64 = np.asarray(x, dtype=np.float32).astype(np.float64)
        # a float64 sum of float32 values cannot overflow, so it is finite
        # exactly when every value is; no mask temporary is allocated
        if not np.isfinite(x64.sum()):
            raise ValueError(f"calibration inputs{where} contain non-finite values")
        self.outputs = x64.shape[0] * self.weight.shape[0]
        if x64.shape[0] >= x64.shape[1]:
            self.gram, self.x64 = x64.T @ x64, None
        else:
            self.gram, self.x64 = None, x64

    def __call__(self, recon: np.ndarray) -> float:
        """Mean squared difference between reconstructed and original outputs."""
        # subtracting in float64 without keeping a float64 copy of the weight:
        # a persistent copy measurably slowed the next stage's allocations
        err = np.subtract(recon, self.weight, dtype=np.float64)
        if self.gram is None:
            out_err = self.x64 @ err.T
            return float(np.mean(out_err * out_err))
        # numpy's own row reduction: a BLAS dot would split the sum by thread count
        return float(np.einsum("ij,ij->i", err @ self.gram, err).sum() / self.outputs)

    def quantized_many(self, qcfg: QuantConfig, scales: list) -> list[float]:
        """Losses of round-to-nearest quantization of the weight scaled by each of ``scales``.

        For each channel scale (``None`` for none) the columns are multiplied
        by it, quantized without protection, decoded, and divided by it
        again. Candidates go in batches of at most ``_BATCH_WEIGHTS``
        weights, at least one each. A batch of several stacks its scaled
        weights into one ``[K * out, in]`` matrix for one ``rtn_quantize``
        and one ``dequantize`` call; groups are coded per row and decoding
        is elementwise, so each candidate's row block, divided by its own
        scale, has the bits it has alone, and is scored by its own loss
        product. The scales are checked in order, and the candidates before
        the first invalid one are scored before its error is raised. A
        batch quantizes all its candidates before it decodes any, so there
        an overflow of a product wins over one of a division.
        """
        in_features = self.weight.shape[1]
        checked: list = []
        error = None
        for scale in scales:
            try:
                checked.append(None if scale is None else checked_channel_scale(scale, in_features))
            except ValueError as exc:
                error = exc
                break
        per_batch = max(1, _BATCH_WEIGHTS // self.weight.size)
        losses = []
        for start in range(0, len(checked), per_batch):
            losses += self._batch_losses(qcfg, checked[start : start + per_batch])
        if error is not None:
            raise error
        return losses

    def _batch_losses(self, qcfg: QuantConfig, batch: list) -> list[float]:
        """Losses of one batch of checked channel scales, in order."""
        if len(batch) == 1:
            # a lone candidate is scaled slab by slab inside rtn_quantize and
            # divided inside dequantize: faster than a whole-matrix product
            return [self(dequantize(rtn_quantize(self.weight, qcfg, channel_scale=batch[0])))]
        stacked = np.empty((len(batch), *self.weight.shape), dtype=np.float32)
        with np.errstate(over="ignore"):  # rtn_quantize rejects an overflow to inf
            for block, scale in zip(stacked, batch):
                np.multiply(self.weight, np.float32(1) if scale is None else scale, out=block)
        recon = dequantize(rtn_quantize(stacked.reshape(-1, stacked.shape[2]), qcfg))
        losses = []
        for block, scale in zip(recon.reshape(stacked.shape), batch):
            if scale is not None:
                with np.errstate(over="ignore"):  # an overflow to inf is rejected next
                    block /= scale
                if not np.isfinite(block).all():
                    raise ValueError("dequantization produced non-finite values")
            losses.append(self(block))
        return losses

    def quantized(self, qcfg: QuantConfig, scale: np.ndarray | None = None) -> float:
        """``quantized_many(qcfg, [scale])[0]``: the loss of one channel scale."""
        return self.quantized_many(qcfg, [scale])[0]


def quant_loss(
    weight: np.ndarray, calib_inputs: np.ndarray, scale: np.ndarray, qcfg: QuantConfig
) -> float:
    """Mean squared output error of scaled round-to-nearest quantization.

    ``ModuleLoss(weight, calib_inputs).quantized(qcfg, scale)``: the loss
    ``search_scale`` scores for the candidate ``scale``, reproduced exactly.
    """
    return ModuleLoss(weight, calib_inputs).quantized(qcfg, scale)


def normalize_scale(raw: np.ndarray) -> np.ndarray:
    """Divide by sqrt(max * min), centering the scale range around one."""
    raw = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(raw).all() or (raw <= 0).any():
        raise ValueError("scale base must be positive and finite")
    hi = raw.max()
    lo = raw.min()
    if hi == lo:
        return np.ones_like(raw)
    return raw / np.sqrt(hi * lo)


def search_scale(
    weight: np.ndarray,
    importance: np.ndarray,
    calib_inputs: np.ndarray,
    scfg: SearchConfig,
    qcfg: QuantConfig,
    module: str = "",
) -> SearchResult:
    """Grid-search the scaling exponent that minimizes the loss.

    Evaluates every alpha on the endpoint-inclusive grid with
    s = normalize(I)^alpha; ties go to the smaller alpha. Also reports the
    unscaled loss for reference. ``module`` names the result and the errors.
    """
    loss = ModuleLoss(weight, np.asarray(calib_inputs)[: scfg.max_calib_rows], module)
    return search_loss(loss, importance, scfg, qcfg, module)


def search_loss(
    loss: ModuleLoss, importance: np.ndarray, scfg: SearchConfig, qcfg: QuantConfig,
    module: str = "", rtn_loss: float | None = None,
) -> SearchResult:
    """``search_scale`` on a built ``loss``; plain RTN is scored only when ``rtn_loss`` is None."""
    in_features = loss.weight.shape[1]
    scores = np.asarray(importance, dtype=np.float64)
    where = f" for module {module!r}" if module else ""
    if scores.shape != (in_features,):
        raise ValueError(f"importance length must match in_features{where}")
    if (scores <= 0).any():
        raise ValueError(f"importance scores must be strictly positive{where}")

    base = normalize_scale(scores)
    ones = np.ones(in_features, dtype=np.float32)
    # base**0.0 is exactly one: alpha = 0 is the unscaled candidate, scored once
    alphas = scfg.alphas()
    scales = {alpha: (base**alpha).astype(np.float32) for alpha in alphas if alpha != 0.0}
    if rtn_loss is None:
        rtn_loss, *losses = loss.quantized_many(qcfg, [None, *scales.values()])
    else:
        losses = loss.quantized_many(qcfg, list(scales.values()))
    scored = dict(zip(scales, zip(scales.values(), losses)))

    best_alpha = None
    best_loss = np.inf
    best_scale = ones
    curve: list[tuple[float, float]] = []
    for alpha in alphas:
        s32, value = scored.get(alpha, (ones, rtn_loss))
        curve.append((alpha, value))
        if value < best_loss:
            best_alpha = alpha
            best_loss = value
            best_scale = s32
    return SearchResult(
        module=module,
        alpha_star=float(best_alpha),
        scale=best_scale,
        loss_curve=curve,
        rtn_loss=rtn_loss,
        best_loss=float(best_loss),
    )


def module_losses(post_ckpt: TensorMap, importances, calib: CalibrationSet, scfg: SearchConfig):
    """Yield ``(module, ModuleLoss)`` per module, on its first ``max_calib_rows`` rows.

    ``importances`` names the modules that have importance vectors. The first
    module only one of it and the checkpoint holds, or without calibration
    inputs, raises ValueError naming it.
    """
    modules = post_ckpt.modules("weight")
    if not modules:
        raise ValueError("checkpoint contains no '.weight' tensors")
    unmatched = sorted(set(importances) ^ set(modules))
    if unmatched:
        missing_from = "checkpoint" if unmatched[0] in importances else "importance vectors"
        raise ValueError(f"module {unmatched[0]!r} is missing from the {missing_from}")
    for module in modules:
        if module not in calib.inputs:
            raise ValueError(f"missing calibration inputs for module {module!r}")
        rows = np.asarray(calib.inputs[module])[: scfg.max_calib_rows]
        yield module, ModuleLoss(post_ckpt[f"{module}.weight"], rows, module)


def quantize_model(
    post_ckpt: TensorMap,
    importances: dict[str, np.ndarray],
    calib: CalibrationSet,
    scfg: SearchConfig,
    qcfg: QuantConfig,
) -> tuple[dict[str, QuantizedTensor], list[SearchResult]]:
    """Search, protect, and quantize every linear module of a checkpoint.

    Per module: find the best channel scale, select protected channels by
    importance, then quantize with both applied. Modules are processed in
    sorted name order; the report carries one full loss curve per module.
    """
    artifact: dict[str, QuantizedTensor] = {}
    report: list[SearchResult] = []
    for module, loss in module_losses(post_ckpt, importances, calib, scfg):
        result = search_loss(loss, importances[module], scfg, qcfg, module)
        weight = loss.weight
        del loss  # its rows are freed before the artifact is quantized and the next loss built
        mask = select_protected(importances[module], qcfg.protect_fraction)
        artifact[module] = rtn_quantize(weight, qcfg, channel_scale=result.scale, protected=mask)
        report.append(result)
    return artifact, report


def report_lines(
    report: list[SearchResult], scfg: SearchConfig, qcfg: QuantConfig
) -> list[str]:
    """Render a search report as JSON lines (meta line first)."""
    lines = [
        json.dumps(
            {
                "grid_points": scfg.grid_points,
                "alpha_lo": scfg.alpha_lo,
                "alpha_hi": scfg.alpha_hi,
                "grid_spacing": "endpoint-inclusive",
                "bits": qcfg.bits,
                "group_size": qcfg.group_size,
                "protect_fraction": qcfg.protect_fraction,
            },
            sort_keys=True,
        )
    ]
    for res in report:
        # every field but the scale array, which the artifact already stores
        record = {key: value for key, value in vars(res).items() if key != "scale"}
        lines.append(json.dumps(record, sort_keys=True))
    return lines
