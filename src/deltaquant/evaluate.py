"""Measurement harness: reconstruction error, ablations, and step curves.

Reports per-module mean squared output error for three quantization
variants (plain round-to-nearest, channel-scaled, channel-scaled plus
protection), end-to-end toy-model output divergence, a protection-signal
ablation table, and the quantization-loss-vs-training-step curve for
pseudo-fine-tuning runs. Everything is deterministic: identical inputs
produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .container import TensorMap, checkpoint_modules
from .quant import (
    QuantConfig,
    QuantizedTensor,
    dequantize,
    protected_prefix,
    protection_order,
    rtn_quantize,
)
from .search import SearchConfig, module_losses, search_scale
from .signals import (
    DegenerateDeltasError,
    MappingConfig,
    compute_delta,
    global_delta_stats,
    importance_all,
    importances,
)
from .toy import CalibrationSet, ToyModel, forward, model_from_map

_HELDOUT_SEED = 1013
_HELDOUT_ROWS = 64


@dataclass
class EvalReport:
    per_module: dict[str, dict[str, float]]
    end_to_end: dict[str, float]
    config: dict[str, str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False)


@dataclass
class AblationRow:
    signal: str
    fraction: float
    per_module: dict[str, float]
    mean_mse: float
    end_to_end_mse: float


def _heldout_outputs(model: ToyModel, batch: np.ndarray, weights: str) -> np.ndarray:
    """The outputs of ``model`` on ``batch``; an error also names ``weights``, the weights run."""
    try:
        return forward(model, batch)[0]
    except ValueError as exc:
        raise ValueError(f"held-out {exc} with the {weights} weights") from exc


def _heldout_reference(model: ToyModel):
    """The float model, the seeded held-out batch, and the model's outputs on it."""
    rng = np.random.default_rng(_HELDOUT_SEED)
    batch = rng.standard_normal((_HELDOUT_ROWS, model.in_dim), dtype=np.float32)
    return model, batch, _heldout_outputs(model, batch, "checkpoint")


def _end_to_end(reference, recon: dict[str, np.ndarray]) -> tuple[float, float]:
    """Output MSE and relative Frobenius error of ``recon`` weights on the held-out batch."""
    model, batch, ref = reference
    layers = [replace(layer, weight=recon[layer.name]) for layer in model.layers]
    quant = _heldout_outputs(replace(model, layers=layers), batch, "reconstructed")
    ref = ref.astype(np.float64)
    sq_err = np.square(quant.astype(np.float64) - ref)
    mse = float(np.mean(sq_err))
    # numpy sums, not BLAS norms, so the result does not depend on the thread count
    ref_norm = float(np.sqrt(np.sum(ref * ref)))
    rel = float(np.sqrt(np.sum(sq_err)) / ref_norm) if ref_norm > 0 else 0.0
    return mse, rel


def layer_report(
    post_ckpt: TensorMap,
    artifact: dict[str, QuantizedTensor],
    calib: CalibrationSet,
) -> EvalReport:
    """Per-module errors of an artifact, and end to end on the held-out batch ``config`` records."""
    if not artifact:
        raise ValueError("empty artifact")
    per_module: dict[str, dict[str, float]] = {}
    recon_full: dict[str, np.ndarray] = {}
    for loss in module_losses(post_ckpt, artifact, calib, None, "artifact"):
        module = loss.module
        q = artifact[module]
        if q.shape != loss.shape:
            raise ValueError(
                f"artifact module {module!r} is {list(q.shape)}, its checkpoint weight "
                f"{list(loss.shape)}"
            )
        # plain RTN first: its candidate error is freed before the artifact's is made
        rtn_mse = loss.quantized(QuantConfig(bits=q.bits, group_size=q.group_size))
        # the artifact's codes do not depend on its mask: stripping the
        # protection decodes the scaled search candidate it was built from
        unprotected = replace(
            q, protected=np.zeros_like(q.protected), protected_values=q.protected_values[:, :0]
        )
        try:
            recon = dequantize(unprotected)
        except ValueError as exc:
            raise ValueError(f"module {module!r}: {exc}") from exc
        # one decode and one loss product serve both errors, which differ
        # only in the protected columns; the overwrite ends dequantize(q)
        searched_mse, protected_mse = loss.protected_losses(
            recon, q.protected, q.protected_values
        )
        recon[:, q.protected] = q.protected_values
        recon_full[module] = recon
        per_module[module] = {
            "rtn_mse": rtn_mse,
            "searched_mse": searched_mse,
            "protected_mse": protected_mse,
        }
    reference = _heldout_reference(model_from_map(post_ckpt))
    e2e_mse, rel_fro = _end_to_end(reference, recon_full)
    first = next(iter(artifact.values()))
    return EvalReport(
        per_module=per_module,
        end_to_end={
            "output_mse_fp32_vs_quant": e2e_mse,
            "relative_frobenius": rel_fro,
        },
        config={
            "bits": str(first.bits),
            "group_size": str(first.group_size),
            "heldout_seed": str(_HELDOUT_SEED),
            "heldout_rows": str(_HELDOUT_ROWS),
        },
    )


def _column_sq_err(recon: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-column sums of the float64 squared error of ``recon`` against ``weight``."""
    err = recon.astype(np.float64)
    err -= weight
    np.square(err, out=err)
    # an axis-0 reduction adds each column's rows in order, with no BLAS call
    return err.sum(axis=0)


def ablate_signals(
    pre: TensorMap,
    post: TensorMap,
    calib: CalibrationSet,
    signals: list[MappingConfig],
    fractions: list[float],
    qcfg: QuantConfig,
) -> list[AblationRow]:
    """Mixed-precision protection sweep: plain RTN plus channel protection.

    No scale search is involved; the protection mask is the only thing a
    signal changes, so rows isolate the value of each signal. Per-module
    numbers are weight-space reconstruction MSE, which never rises with the
    protected fraction; output-level divergence is reported end to end, on
    ``layer_report``'s held-out batch, where channel errors may interfere.
    Each fraction, not ``qcfg.protect_fraction``, sets its row's protection.
    Rows are emitted in input order, signals outer, fractions inner, and
    each row is built on its own, so it does not depend on the other rows.

    Cost of a sweep: one delta pass, one global-stats pass per distinct
    ``zero_epsilon`` and one importance pass per module for every signal at
    once. Per module: one quantize, one dequantize and the float64
    per-column sums of the squared error; per signal and module, one
    ``protection_order`` sort. Per row and module: that order's
    ``protected_prefix`` mask (the mask ``quantize_model`` stores for the
    row's fraction), a masked select of the float columns into the plain
    reconstruction (which is exactly what decoding the protected tensor
    gives: the channel scale is all ones and the mask never changes the
    codes) and one sum of the column error sums with the protected columns
    zeroed; plus one held-out forward pass per row. The masks of ascending
    fractions nest and the sum runs over the columns in channel order, so
    ``mse`` cannot rise with the fraction.
    """
    if not signals:
        raise ValueError("need at least one signal")
    bad = [f for f in fractions if not 0.0 <= f <= 1.0]
    if bad:
        raise ValueError(f"fractions must lie in [0, 1], got {bad[0]!r}")
    deltas = compute_delta(pre, post)
    model = model_from_map(post)
    weights = {layer.name: layer.weight for layer in model.layers}
    stats = {eps: global_delta_stats(deltas, eps) for eps in {c.zero_epsilon for c in signals}}
    requests = [(c, stats[c.zero_epsilon]) for c in signals]
    scores = {m: importances(m, deltas[f"{m}.weight"], requests, calib) for m in weights}
    # dropped before the reconstructions so that the two peaks do not add up
    del deltas
    plain, col_err = {}, {}
    for module, weight in weights.items():
        try:
            recon = dequantize(rtn_quantize(weight, qcfg))
        except ValueError as exc:
            raise ValueError(f"module {module!r}: {exc}") from exc
        plain[module], col_err[module] = recon, _column_sq_err(recon, weight)
    # one sort per (signal, module): every row's mask is a prefix of it
    orders = {m: [protection_order(score) for score in scores[m]] for m in weights}
    reference = _heldout_reference(model)
    rows = []
    for s, cfg_sig in enumerate(signals):
        for fraction in fractions:
            recon, per_module = {}, {}
            for module, weight in weights.items():
                mask = protected_prefix(orders[module][s], fraction)
                recon[module] = np.where(mask, weight, plain[module])
                per_module[module] = float(np.where(mask, 0.0, col_err[module]).sum() / weight.size)
            rows.append(AblationRow(
                signal=cfg_sig.signal,
                fraction=float(fraction),
                per_module=per_module,
                mean_mse=float(np.mean(list(per_module.values()))),
                end_to_end_mse=_end_to_end(reference, recon)[0],
            ))
    return rows


def ablation_csv(rows: list[AblationRow]) -> str:
    """CSV with one line per (signal, fraction, module) plus a mean line."""
    lines = ["signal,fraction,module,mse,end_to_end_mse"]
    for row in rows:
        for module in sorted(row.per_module):
            lines.append(
                f"{row.signal},{row.fraction!r},{module},"
                f"{row.per_module[module]!r},{row.end_to_end_mse!r}"
            )
        lines.append(
            f"{row.signal},{row.fraction!r},mean,{row.mean_mse!r},{row.end_to_end_mse!r}"
        )
    return "\n".join(lines) + "\n"


def pseudo_ft_curve(
    snapshots: list[tuple[int, TensorMap]],
    calib: CalibrationSet,
    mapping_cfg: MappingConfig,
    scfg: SearchConfig,
    qcfg: QuantConfig,
) -> tuple[list[tuple[int, float]], float]:
    """Mean searched loss as a function of the training step.

    For each snapshot past step 0, importance is derived from the updates
    between step 0 and that snapshot, and the scale of every module of the
    highest-step snapshot is searched with it. A point is the mean search
    ``best_loss``, which ``qcfg.protect_fraction`` never changes, or NaN where
    a step's deltas are all zero. Returns the points and their least-squares
    slope (NaN when fewer than two points are finite).

    Cost: one ``ModuleLoss`` and one plain-RTN score per module for the whole
    curve; each snapshot adds an importance pass and one ``quantized_many``
    call per module for its alpha grid. No artifact is quantized.
    """
    by_step = sorted(snapshots, key=lambda pair: pair[0])
    if len(by_step) < 2 or by_step[0][0] != 0:
        raise ValueError("need at least two snapshots including step 0")
    (_, base), (final_step, final) = by_step[0], by_step[-1]
    # every snapshot's importance covers the modules of step 0
    losses = [(loss, loss.quantized(qcfg)) for loss in module_losses(
        final, [module for module, _, _ in checkpoint_modules(base)], calib,
        scfg.max_calib_rows, "step-0 checkpoint", f"step-{final_step} checkpoint")]
    points: list[tuple[int, float]] = []
    for step, snap in by_step[1:]:
        try:
            imps = importance_all(base, snap, mapping_cfg, calib)
            best = [search_scale(loss, imps[loss.module], scfg, qcfg, rtn).best_loss
                    for loss, rtn in losses]
            point = float(np.mean(best))
        except DegenerateDeltasError:
            point = math.nan
        points.append((step, point))
    finite = [(s, l) for s, l in points if math.isfinite(l)]
    if len(finite) >= 2:
        xs = np.array([s for s, _ in finite], dtype=np.float64)
        ys = np.array([l for _, l in finite], dtype=np.float64)
        xbar = xs.mean()
        denom = float(np.sum((xs - xbar) ** 2))
        slope = float(np.sum((xs - xbar) * (ys - ys.mean())) / denom) if denom > 0 else math.nan
    else:
        slope = math.nan
    return points, slope


def curve_csv(points: list[tuple[int, float]], slope: float) -> str:
    """CSV of (step, mean_loss) with the regression slope on every row."""
    lines = ["step,mean_loss,slope"]
    for step, loss in points:
        loss_txt = repr(loss) if math.isfinite(loss) else "nan"
        slope_txt = repr(slope) if math.isfinite(slope) else "nan"
        lines.append(f"{step},{loss_txt},{slope_txt}")
    return "\n".join(lines) + "\n"
