"""Loss-minimizing per-channel scale search.

The scaling factor of input channel c is s_c = I_c^alpha, the channel's
importance raised to a searched exponent. For a candidate scale the weight
columns are multiplied by s, quantized round-to-nearest, dequantized, and
divided back by s; the loss is the mean squared difference between the
reconstructed and the original layer outputs on calibration inputs. alpha
is searched on an endpoint-inclusive uniform grid (default 20 points over
[0, 1]), so alpha = 0 always reproduces plain unscaled quantization and
the best candidate can never lose to it.

One loss kernel per module serves every candidate: with at least
``in_features`` calibration rows it scores through the Gram matrix
``H = X.T @ X``, with fewer it multiplies by the rows directly. The choice
depends only on the shapes, and both forms give the same loss up to
float64 rounding.

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


class _LossKernel:
    """Output-error loss of reconstructions of one weight on fixed calibration rows.

    Built once per (weight, calibration rows) pair: the rows are validated
    and cast to float64 here, not per candidate. With ``n`` rows and
    ``E = recon - weight`` the loss is ``mean((X @ E.T)**2)`` over
    ``n * out`` outputs. When ``n >= in_features`` the kernel keeps only the
    Gram matrix ``H = X.T @ X`` and scores ``sum((E @ H) * E) / (n * out)``,
    which costs ``out * in**2`` instead of ``n * in * out`` per candidate;
    with fewer rows it keeps ``X`` and uses the direct form. The choice
    depends only on the shapes. The two forms agree up to float64 rounding
    (about 1e-15 relative).
    """

    def __init__(self, weight: np.ndarray, calib_inputs: np.ndarray, module: str = "") -> None:
        self.weight = np.asarray(weight)
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
        # subtracting in float64 without keeping a float64 copy of the weight:
        # a persistent copy measurably slowed the next stage's allocations
        err = np.subtract(recon, self.weight, dtype=np.float64)
        if self.gram is None:
            out_err = self.x64 @ err.T
            return float(np.mean(out_err * out_err))
        return float(np.vdot(err @ self.gram, err) / self.outputs)


def reconstruction_mse(weight: np.ndarray, calib_inputs: np.ndarray, recon: np.ndarray) -> float:
    """Mean squared difference between reconstructed and original outputs.

    Computed through ``H = X.T @ X`` when the rows number at least
    ``in_features`` (see ``_LossKernel``).
    """
    return _LossKernel(weight, calib_inputs)(recon)


def quant_loss(
    weight: np.ndarray,
    calib_inputs: np.ndarray,
    scale: np.ndarray,
    qcfg: QuantConfig,
) -> float:
    """Mean squared output error of scaled round-to-nearest quantization.

    Quantizes weight columns multiplied by ``scale`` (no protection),
    reconstructs, divides the scale back out, and compares layer outputs
    against the original weight on the calibration rows. Uses the same
    kernel as ``search_scale``, so it reproduces the search's losses exactly.
    """
    weight = np.ascontiguousarray(weight, dtype=np.float32)
    loss = _LossKernel(weight, calib_inputs)
    return loss(dequantize(rtn_quantize(weight, qcfg, channel_scale=scale)))


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
    s = normalize(I)^alpha; ties go to the smaller alpha. Also reports the
    unscaled loss for reference.
    """
    module = getattr(importance, "module", "")
    scores = np.asarray(getattr(importance, "scores", importance), dtype=np.float64)
    weight = np.ascontiguousarray(weight, dtype=np.float32)
    if scores.shape != (weight.shape[1],):
        raise ValueError("importance length must match in_features")
    if (scores <= 0).any():
        raise ValueError("importance scores must be strictly positive")
    x = np.ascontiguousarray(calib_inputs, dtype=np.float32)[: scfg.max_calib_rows]
    loss_of = _LossKernel(weight, x, module)

    base = normalize_scale(scores)
    ones = np.ones(weight.shape[1], dtype=np.float32)
    rtn_loss = loss_of(dequantize(rtn_quantize(weight, qcfg, channel_scale=ones)))

    best_alpha = None
    best_loss = np.inf
    best_scale = ones
    curve: list[tuple[float, float]] = []
    for alpha in scfg.alphas():
        if alpha == 0.0:
            # base**0.0 is exactly one: this is the candidate rtn_loss scored
            s32, loss = ones, rtn_loss
        else:
            s32 = (base**alpha).astype(np.float32)
            loss = loss_of(dequantize(rtn_quantize(weight, qcfg, channel_scale=s32)))
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
