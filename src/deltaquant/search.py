"""Loss-minimizing per-channel scale search.

The scaling factor of input channel c is s_c = I_c^alpha, the channel's
importance raised to a searched exponent. For a candidate scale the weight
columns are multiplied by s, quantized round-to-nearest, dequantized, and
divided back by s; the loss is the mean squared difference between the
reconstructed and the original layer outputs on calibration inputs. alpha
is searched on an endpoint-inclusive uniform grid (default 20 points over
[0, 1]). alpha = 0 reproduces plain unscaled quantization, so on a grid
that contains it, as the default grid does, the best candidate can never
lose to plain RTN; a grid without it searches only its own alphas.

One ``ModuleLoss`` per module serves every candidate. It keeps the weight
only as an in-major (``[in, out]``) float32 copy, transposed once, and
validates the calibration rows once; ``loss(recon)`` scores any
reconstruction and ``loss.quantized_many(qcfg, scales)`` scores
round-to-nearest of the weight under each of several channel scales:
``search_scale`` scores its grid in one call, after plain RTN through
``loss.quantized(qcfg)`` unless given the RTN loss, as the
pseudo-fine-tuning curve is for each snapshot; ``quant_loss`` and the
evaluation report score one scale through ``loss.quantized``.
``quant.candidate_errors`` codes the candidates on that copy, straight
into their float64 in-major errors; each candidate has its own loss
product, so every loss has the bits it has when scored alone, and the
bits ``loss(recon)`` gives its reconstruction. With at least
``in_features`` calibration rows it scores through the Gram matrix
``H = X.T @ X``, with fewer it multiplies by the rows directly. The choice
depends only on the shapes, and both forms give the same loss up to
float64 rounding.

``search_scale`` divides the importance vector by sqrt(max * min) before
exponentiation. This recentres the scale range around one without moving
the argmin: rescaling the importance by a constant changes neither that
base nor any candidate loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .container import TensorMap, check_finite, check_tensor, check_weight, checkpoint_modules
from .quant import (
    QuantConfig,
    QuantizedTensor,
    candidate_errors,
    protected_prefix,
    protection_order,
    rtn_quantize,
    transposed,
)
from .toy import CalibrationSet


@dataclass(frozen=True)
class SearchConfig:
    grid_points: int = 20
    alpha_lo: float = 0.0
    alpha_hi: float = 1.0
    max_calib_rows: int = 512

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        # every k * span of alphas() finite: 0 * inf is NaN, a larger product inf
        span = self.alpha_hi - self.alpha_lo
        if not (self.alpha_lo < self.alpha_hi and np.isfinite((self.grid_points - 1) * span)):
            raise ValueError("need finite alpha_lo < alpha_hi")
        if self.max_calib_rows < 1:
            raise ValueError("max_calib_rows must be >= 1")

    def alphas(self) -> list[float]:
        """``grid_points`` alphas from ``alpha_lo`` to exactly ``alpha_hi``, evenly spaced."""
        span = self.alpha_hi - self.alpha_lo
        last = self.grid_points - 1
        return [self.alpha_lo + k * span / last for k in range(last)] + [self.alpha_hi]


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

    Built once per module: the weight is checked finite and kept only as its
    float32 in-major transpose ``weight_t`` (``[in, out]``), copied once by
    ``transposed``, and the rows are validated and cast to float64 here, not
    per candidate. Every loss is taken on an in-major float64 error
    ``E_t = recon.T - weight_t``: with ``n`` rows it is
    ``mean((X @ E_t)**2)`` over ``n * out`` outputs. When
    ``n >= in_features`` only the Gram matrix ``H = X.T @ X`` is kept and
    the loss is ``sum((H @ E_t) * E_t) / (n * out)``, which costs
    ``out * in**2`` instead of ``n * in * out`` per candidate; with fewer
    rows ``X`` is kept and the direct form used. The choice depends only on
    the shapes. The two forms agree up to float64 rounding (about 1e-15
    relative). ``module`` names the search result and the errors, those of
    the quantizer included.

    ``quantized_many`` scores one loss product per channel-scale candidate.
    ``protected_losses`` scores a reconstruction before and after its
    protected columns are restored from one loss product and a rank-``|P|``
    update, so the evaluation report pays two loss products per module,
    plus that update when channels are protected.
    """

    def __init__(self, weight: np.ndarray, calib_inputs: np.ndarray, module: str = "") -> None:
        weight = np.asarray(weight, dtype=np.float32)
        self.module = module
        prefix = f"{module}." if module else ""
        check_weight(weight, prefix + "weight")
        self.shape = weight.shape
        self.weight_t = transposed(weight)
        x = check_tensor(np.asarray(calib_inputs, dtype=np.float32), prefix + "calib_inputs", 2)
        where = f" for module {module!r}" if module else ""
        if x.shape[1] != self.shape[1]:
            raise ValueError(f"calibration inputs{where} must be [n, in_features]")
        if x.shape[0] < 1:
            raise ValueError(f"need at least one calibration row{where}")
        x64 = check_finite(x, prefix + "calib_inputs").astype(np.float64)
        self.outputs = x64.shape[0] * self.shape[0]
        # what multiplies an error into the loss product: the Gram matrix, else the rows
        self.gram = x64.shape[0] >= x64.shape[1]
        self.basis = x64.T @ x64 if self.gram else x64

    def __call__(self, recon: np.ndarray) -> float:
        """Mean squared difference between reconstructed and original outputs."""
        return self.error_loss(self.error(recon))

    def error(self, recon: np.ndarray) -> np.ndarray:
        """The float64 in-major error ``recon.T - weight_t`` of a [out, in] reconstruction."""
        recon = np.asarray(recon)
        if recon.shape != self.shape:
            raise ValueError(f"reconstruction must be {list(self.shape)}")
        # a float32 transpose, then one contiguous float64 subtraction: faster
        # than subtracting block by block with a cast in each
        return np.subtract(transposed(recon), self.weight_t, dtype=np.float64)

    def error_loss(self, err_t: np.ndarray) -> float:
        """The loss of the float64 in-major error ``err_t``: ``self(recon)`` of its ``recon``."""
        return self._reduce(self.basis @ err_t, err_t)

    def protected_losses(
        self, recon: np.ndarray, protected: np.ndarray, columns: np.ndarray
    ) -> tuple[float, float]:
        """The losses of the [out, in] ``recon`` before and after the columns of
        the boolean mask ``protected`` become the float32 [out, |P|] ``columns``.

        The first loss is ``self(recon)`` bit for bit; the second updates the
        same product by the change ``D`` of the protected in-major error
        rows, adding the protected columns of the Gram matrix (of the rows,
        on the direct path) times ``D`` to it, at a cost proportional to
        their number. It agrees with ``self`` of the patched reconstruction
        up to float64 rounding of that sum, and an exactly zero patched row
        adds exactly zero on the Gram path. With no protected column both
        losses are the first and no update is made.
        """
        err_t = self.error(recon)
        product = self.basis @ err_t
        searched = self._reduce(product, err_t)
        if not protected.any():
            return searched, searched
        rows = np.subtract(columns.T, self.weight_t[protected], dtype=np.float64)
        change = rows - err_t[protected]
        err_t[protected] = rows
        product += self.basis[:, protected] @ change
        return searched, self._reduce(product, err_t)

    def _reduce(self, product: np.ndarray, err_t: np.ndarray) -> float:
        """The loss of ``err_t`` from its product with ``basis``."""
        if self.gram:
            # numpy's own reduction: a BLAS dot would split the sum by thread count
            return float(np.einsum("ij,ij->", product, err_t) / self.outputs)
        return float(np.mean(product * product))

    def quantized_many(self, qcfg: QuantConfig, scales: list[np.ndarray]) -> list[float]:
        """Losses of round-to-nearest quantization of the weight scaled by each of ``scales``.

        For each channel scale, in order, the loss of its ``candidate_errors``
        error: the columns multiplied by it, quantized without protection,
        decoded, and divided by it again.
        With a ``module`` name, an error reads ``module '<name>': <message>``.
        Each error is dropped once scored: a batch is freed before the next is coded.
        """
        return self._losses(qcfg, scales)

    def quantized(self, qcfg: QuantConfig, scale: np.ndarray | None = None) -> float:
        """The loss of one channel ``scale``, or of plain RTN for None."""
        return self._losses(qcfg, None if scale is None else [scale])[0]

    def _losses(self, qcfg: QuantConfig, scales: list[np.ndarray] | None) -> list[float]:
        """The losses of the ``candidate_errors`` of ``scales``."""
        losses = []
        try:
            for err_t in candidate_errors(self.weight_t, qcfg, scales):
                losses.append(self.error_loss(err_t))
                del err_t
        except ValueError as exc:
            if not self.module:
                raise
            raise ValueError(f"module {self.module!r}: {exc}") from exc
        return losses


def quant_loss(
    weight: np.ndarray, calib_inputs: np.ndarray, scale: np.ndarray, qcfg: QuantConfig
) -> float:
    """Mean squared output error of scaled round-to-nearest quantization.

    ``ModuleLoss(weight, calib_inputs).quantized(qcfg, scale)``: the loss
    ``search_scale`` scores for the candidate ``scale``, reproduced exactly.
    """
    return ModuleLoss(weight, calib_inputs).quantized(qcfg, scale)


def search_scale(
    loss: ModuleLoss, importance: np.ndarray, scfg: SearchConfig, qcfg: QuantConfig,
    rtn_loss: float | None = None,
) -> SearchResult:
    """Grid-search the scaling exponent that minimizes ``loss``.

    Evaluates every alpha on the endpoint-inclusive grid with s = base^alpha,
    ``base`` the importance divided by sqrt(max * min), or all ones for a
    constant one; ties go to the smaller alpha. Also reports the unscaled
    loss for reference: ``rtn_loss``, or else ``loss.quantized(qcfg)``,
    scored before the grid, so a weight that plain RTN cannot code raises
    its own error. ``loss.module`` names the result and the errors.
    """
    in_features = loss.shape[1]
    scores = np.asarray(importance, dtype=np.float64)
    where = f" for module {loss.module!r}" if loss.module else ""
    if scores.shape != (in_features,):
        raise ValueError(f"importance length must match in_features{where}")
    if not ((scores > 0) & (scores < np.inf)).all():  # NaN fails both comparisons
        raise ValueError(f"importance scores must be finite and strictly positive{where}")

    hi, lo = scores.max(), scores.min()
    base = np.ones_like(scores) if hi == lo else scores / np.sqrt(hi * lo)
    ones = np.ones(in_features, dtype=np.float32)
    alphas = scfg.alphas()
    # base**0.0 is exactly one: alpha = 0 is the unscaled candidate, scored once
    scaled = [alpha for alpha in alphas if alpha != 0.0]
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        scales = [(base**alpha).astype(np.float32) for alpha in scaled]
    for alpha, scale in zip(scaled, scales):
        if not ((scale > 0) & (scale < np.inf)).all():
            raise ValueError(
                f"channel scale of alpha {alpha!r}{where} is not positive and finite in float32"
            )
    rtn_loss = loss.quantized(qcfg) if rtn_loss is None else rtn_loss
    scored = iter(zip(scales, loss.quantized_many(qcfg, scales)))
    candidates = [(a, *(next(scored) if a != 0.0 else (ones, rtn_loss))) for a in alphas]
    # every loss is finite, and min keeps the first of equal losses: ties go to the smaller alpha
    alpha_star, best_scale, best_loss = min(candidates, key=lambda c: c[2])
    return SearchResult(
        module=loss.module,
        alpha_star=float(alpha_star),
        scale=best_scale,
        loss_curve=[(alpha, value) for alpha, _, value in candidates],
        rtn_loss=rtn_loss,
        best_loss=float(best_loss),
    )


def module_losses(
    modules: list, others, calib: CalibrationSet, max_rows: int | None,
    others_name: str = "importance vectors", post_name: str = "checkpoint",
):
    """Yield the ``ModuleLoss`` of each module, on its first ``max_rows`` rows (all for None).

    ``modules`` is what ``checkpoint_modules`` yielded for the checkpoint; ``others`` names
    the modules of the map the losses are paired with, and ``others_name`` and
    ``post_name`` name that map and the checkpoint in errors. The first module only one of
    the two holds, or without calibration inputs, raises ValueError naming it.
    """
    weights = {module: weight for module, weight, _ in modules}
    unmatched = sorted(set(others) ^ set(weights))
    if unmatched:
        missing_from = post_name if unmatched[0] in others else others_name
        raise ValueError(f"module {unmatched[0]!r} is missing from the {missing_from}")
    for module, weight in weights.items():
        if module not in calib.inputs:
            raise ValueError(f"missing calibration inputs for module {module!r}")
        rows = np.asarray(calib.inputs[module])[:max_rows]
        yield ModuleLoss(weight, rows, module)


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
    chain order; the report carries one full loss curve per module.
    """
    modules = list(checkpoint_modules(post_ckpt))
    weights = {module: weight for module, weight, _ in modules}
    artifact: dict[str, QuantizedTensor] = {}
    report: list[SearchResult] = []
    for loss in module_losses(modules, importances, calib, scfg.max_calib_rows):
        module = loss.module
        result = search_scale(loss, importances[module], scfg, qcfg)
        del loss  # its rows are freed before the artifact is quantized and the next loss built
        mask = protected_prefix(protection_order(importances[module]), qcfg.protect_fraction)
        artifact[module] = rtn_quantize(
            weights[module], qcfg, channel_scale=result.scale, protected=mask
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
        # every field but the scale array, which the artifact already stores
        record = {key: value for key, value in vars(res).items() if key != "scale"}
        lines.append(json.dumps(record, sort_keys=True))
    return lines
