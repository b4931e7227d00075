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
from dataclasses import dataclass, replace

import numpy as np

from .container import TensorMap
from .quant import QuantConfig, QuantizedTensor, dequantize, rtn_quantize, select_protected
from .search import SearchConfig, _LossKernel, quantize_model
from .signals import DegenerateDeltasError, MappingConfig, importance_all
from .toy import CalibrationSet, forward, model_from_map, weight_modules

_HELDOUT_SEED = 1013
_HELDOUT_ROWS = 64


@dataclass
class EvalReport:
    per_module: dict[str, dict[str, float]]
    end_to_end: dict[str, float]
    config: dict[str, str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "per_module": self.per_module,
                "end_to_end": self.end_to_end,
                "config": self.config,
            },
            sort_keys=True,
            indent=2,
        )


@dataclass
class AblationRow:
    signal: str
    fraction: float
    per_module: dict[str, float]
    mean_mse: float
    end_to_end_mse: float


def _heldout_batch(in_dim: int, seed: int, rows: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((rows, in_dim), dtype=np.float32)


def _heldout_reference(post_ckpt: TensorMap, seed: int, rows: int):
    """The float model, a fresh seeded batch, and the model's outputs on it."""
    model = model_from_map(post_ckpt)
    batch = _heldout_batch(model.in_dim, seed, rows)
    ref, _ = forward(model, batch)
    return model, batch, ref


def _end_to_end(reference, recon: dict[str, np.ndarray]) -> tuple[float, float]:
    """Output MSE and relative Frobenius error of ``recon`` weights on the held-out batch."""
    model, batch, ref = reference
    layers = [replace(layer, weight=recon[layer.name]) for layer in model.layers]
    quant, _ = forward(replace(model, layers=layers), batch)
    diff = quant.astype(np.float64) - ref.astype(np.float64)
    mse = float(np.mean(diff * diff))
    ref_norm = float(np.linalg.norm(ref.astype(np.float64)))
    rel = float(np.linalg.norm(diff) / ref_norm) if ref_norm > 0 else 0.0
    return mse, rel


def layer_report(
    post_ckpt: TensorMap,
    artifact: dict[str, QuantizedTensor],
    calib: CalibrationSet,
    *,
    heldout_seed: int = _HELDOUT_SEED,
    heldout_rows: int = _HELDOUT_ROWS,
) -> EvalReport:
    """Per-module and end-to-end error report for a quantized artifact."""
    if not artifact:
        raise ValueError("empty artifact")
    for module in weight_modules(post_ckpt):
        if module not in artifact:
            raise ValueError(f"artifact does not cover module {module!r}")
    per_module: dict[str, dict[str, float]] = {}
    recon_full: dict[str, np.ndarray] = {}
    for module in sorted(artifact):
        q = artifact[module]
        weight_name = f"{module}.weight"
        if weight_name not in post_ckpt:
            raise ValueError(f"checkpoint is missing {weight_name!r}")
        if module not in calib.inputs:
            raise ValueError(f"missing calibration inputs for module {module!r}")
        weight = post_ckpt[weight_name]
        loss_of = _LossKernel(weight, calib.inputs[module], module)
        qcfg = QuantConfig(bits=q.bits, group_size=q.group_size)
        out_features, in_features = q.shape
        # the artifact's codes do not depend on its mask: stripping the
        # protection decodes the scaled search candidate it was built from
        unprotected = replace(
            q,
            protected=np.zeros(in_features, dtype=bool),
            protected_values=np.zeros((out_features, 0), dtype=np.float32),
        )
        protected_recon = dequantize(q)
        recon_full[module] = protected_recon
        per_module[module] = {
            "rtn_mse": loss_of(dequantize(rtn_quantize(weight, qcfg))),
            "searched_mse": loss_of(dequantize(unprotected)),
            "protected_mse": loss_of(protected_recon),
        }
    reference = _heldout_reference(post_ckpt, heldout_seed, heldout_rows)
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
            "heldout_seed": str(heldout_seed),
            "heldout_rows": str(heldout_rows),
        },
    )


def ablate_signals(
    pre: TensorMap,
    post: TensorMap,
    calib: CalibrationSet,
    signals: list[MappingConfig],
    fractions: list[float],
    qcfg: QuantConfig,
    *,
    heldout_seed: int = _HELDOUT_SEED,
    heldout_rows: int = _HELDOUT_ROWS,
) -> list[AblationRow]:
    """Mixed-precision protection sweep: plain RTN plus channel protection.

    No scale search is involved; the protection mask is the only thing a
    signal changes, so rows isolate the value of each signal. Per-module
    numbers are weight-space reconstruction MSE, which is guaranteed
    non-increasing in the protected fraction (protection zeroes whole
    error columns and leaves other groups untouched); output-level
    divergence is reported end to end, where channel errors may interfere.
    Rows are emitted in input order, signals outer, fractions inner.
    """
    if not signals:
        raise ValueError("need at least one signal")
    modules = weight_modules(post)
    plain = {m: rtn_quantize(post[f"{m}.weight"], qcfg, module=m) for m in modules}
    # importance first: the float model copy is not held through its peak
    signal_imps = [importance_all(pre, post, cfg_sig, calib) for cfg_sig in signals]
    reference = _heldout_reference(post, heldout_seed, heldout_rows)
    rows: list[AblationRow] = []
    for cfg_sig, imps in zip(signals, signal_imps):
        for fraction in fractions:
            per_module: dict[str, float] = {}
            recon_full: dict[str, np.ndarray] = {}
            for module in modules:
                weight = post[f"{module}.weight"]
                mask = select_protected(imps[module], fraction)
                # protection never changes the codes, only the stored columns
                q = replace(plain[module], protected=mask, protected_values=weight[:, mask])
                recon = dequantize(q)
                recon_full[module] = recon
                diff = recon.astype(np.float64) - weight.astype(np.float64)
                per_module[module] = float(np.mean(diff * diff))
            mean_mse = float(np.mean([per_module[m] for m in modules]))
            e2e_mse, _ = _end_to_end(reference, recon_full)
            rows.append(
                AblationRow(
                    signal=cfg_sig.signal,
                    fraction=float(fraction),
                    per_module=per_module,
                    mean_mse=mean_mse,
                    end_to_end_mse=e2e_mse,
                )
            )
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
    final_ref: TensorMap,
    calib: CalibrationSet,
    mapping_cfg: MappingConfig,
    scfg: SearchConfig,
    qcfg: QuantConfig,
) -> tuple[list[tuple[int, float]], float]:
    """Mean searched loss as a function of the training step.

    For each snapshot past step 0, importance is derived from the updates
    between step 0 and that snapshot and the final checkpoint is quantized
    with it. Steps whose deltas are all zero yield NaN instead of failing.
    Returns the (step, loss) points and the least-squares slope over the
    finite points (NaN when fewer than two).
    """
    by_step = sorted(snapshots, key=lambda pair: pair[0])
    if len(by_step) < 2 or by_step[0][0] != 0:
        raise ValueError("need at least two snapshots including step 0")
    base = by_step[0][1]
    points: list[tuple[int, float]] = []
    for step, snap in by_step[1:]:
        try:
            imps = importance_all(base, snap, mapping_cfg, calib)
            _, report = quantize_model(final_ref, imps, calib, scfg, qcfg)
            loss = float(np.mean([r.best_loss for r in report]))
        except DegenerateDeltasError:
            loss = math.nan
        points.append((step, loss))
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
