"""Loss-minimizing per-channel scale search.

The scaling factor of input channel c is s_c = I_c^alpha, the channel's
importance raised to a searched exponent. For a candidate scale the weight
columns are multiplied by s, quantized round-to-nearest, dequantized, and
divided back by s; the loss is the mean squared difference between the
reconstructed and the original layer outputs on calibration inputs. alpha
is searched on an endpoint-inclusive uniform grid (default 20 points over
[0, 1]), so alpha = 0 always reproduces plain unscaled quantization and
the best candidate can never lose to it.

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
from .quant import QuantConfig, QuantizedTensor, dequantize, rtn_quantize, select_protected
from .signals import ImportanceVector
from .toy import CalibrationSet, weight_modules


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 20
    alpha_lo: float = 0.0
    alpha_hi: float = 1.0
    normalize_scale: bool = True
    max_calib_rows: int = 512

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not self.alpha_lo < self.alpha_hi:
            raise ValueError("alpha_lo must be < alpha_hi")
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


def reconstruction_mse(weight: np.ndarray, calib_inputs: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared difference between reconstructed and original outputs."""
    err = recon.astype(np.float64) - weight.astype(np.float64)
    out_err = np.asarray(calib_inputs, dtype=np.float32).astype(np.float64) @ err.T
    return float(np.mean(out_err * out_err))


def quant_loss(
    weight: np.ndarray,
    calib_inputs: np.ndarray,
    scale: np.ndarray,
    qcfg: QuantConfig,
) -> float:
    """Mean squared output error of scaled round-to-nearest quantization.

    Quantizes weight columns multiplied by ``scale`` (no protection),
    reconstructs, divides the scale back out, and compares layer outputs
    against the original weight on the calibration rows.
    """
    weight = np.ascontiguousarray(weight, dtype=np.float32)
    x = np.asarray(calib_inputs)
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError("calibration inputs must be [n, in_features]")
    if x.shape[0] < 1:
        raise ValueError("need at least one calibration row")
    recon = dequantize(rtn_quantize(weight, qcfg, channel_scale=scale))
    return reconstruction_mse(weight, x, recon)


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
    importance: ImportanceVector | np.ndarray,
    calib_inputs: np.ndarray,
    scfg: SearchConfig,
    qcfg: QuantConfig,
) -> SearchResult:
    """Grid-search the scaling exponent that minimizes the loss.

    Evaluates every alpha on the endpoint-inclusive grid with
    s = normalize(I)^alpha (normalization optional); ties go to the
    smaller alpha. Also reports the unscaled loss for reference.
    """
    module = getattr(importance, "module", "")
    scores = np.asarray(getattr(importance, "scores", importance), dtype=np.float64)
    weight = np.ascontiguousarray(weight, dtype=np.float32)
    if scores.shape != (weight.shape[1],):
        raise ValueError("importance length must match in_features")
    if (scores <= 0).any():
        raise ValueError("importance scores must be strictly positive")
    x = np.ascontiguousarray(calib_inputs, dtype=np.float32)[: scfg.max_calib_rows]

    base = normalize_scale(scores) if scfg.normalize_scale else scores
    ones = np.ones(weight.shape[1], dtype=np.float32)
    rtn_loss = quant_loss(weight, x, ones, qcfg)

    best_alpha = None
    best_loss = np.inf
    best_scale = ones
    curve: list[tuple[float, float]] = []
    for alpha in scfg.alphas():
        s32 = (base**alpha).astype(np.float32)
        loss = quant_loss(weight, x, s32, qcfg)
        curve.append((alpha, loss))
        if loss < best_loss:
            best_alpha = alpha
            best_loss = loss
            best_scale = s32
    return SearchResult(
        module=module,
        alpha_star=float(best_alpha),
        scale=best_scale,
        loss_curve=curve,
        rtn_loss=rtn_loss,
        best_loss=float(best_loss),
    )


def quantize_model(
    post_ckpt: TensorMap,
    importances: dict[str, ImportanceVector],
    calib: CalibrationSet,
    scfg: SearchConfig,
    qcfg: QuantConfig,
) -> tuple[dict[str, QuantizedTensor], list[SearchResult]]:
    """Search, protect, and quantize every linear module of a checkpoint.

    Per module: find the best channel scale, select protected channels by
    importance, then quantize with both applied. Modules are processed in
    sorted name order; the report carries one full loss curve per module.
    """
    modules = weight_modules(post_ckpt)
    if not modules:
        raise ValueError("checkpoint contains no '.weight' tensors")
    artifact: dict[str, QuantizedTensor] = {}
    report: list[SearchResult] = []
    for module in modules:
        if module not in importances:
            raise ValueError(f"missing importance vector for module {module!r}")
        if module not in calib.inputs:
            raise ValueError(f"missing calibration inputs for module {module!r}")
        weight = post_ckpt[f"{module}.weight"]
        result = search_scale(weight, importances[module], calib.inputs[module], scfg, qcfg)
        result.module = module
        mask = select_protected(importances[module], qcfg.protect_fraction)
        artifact[module] = rtn_quantize(
            weight, qcfg, channel_scale=result.scale, protected=mask, module=module
        )
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
                "normalize_scale": scfg.normalize_scale,
                "bits": qcfg.bits,
                "group_size": qcfg.group_size,
                "protect_fraction": qcfg.protect_fraction,
            },
            sort_keys=True,
        )
    ]
    for res in report:
        lines.append(
            json.dumps(
                {
                    "module": res.module,
                    "alpha_star": res.alpha_star,
                    "rtn_loss": res.rtn_loss,
                    "best_loss": res.best_loss,
                    "loss_curve": [[a, l] for a, l in res.loss_curve],
                },
                sort_keys=True,
            )
        )
    return lines
