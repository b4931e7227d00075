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

from .container import TensorMap
from .quant import (
    QuantConfig,
    QuantizedTensor,
    dequantize,
    protected_count,
    protection_order,
    rtn_quantize,
)
from .search import ModuleLoss, SearchConfig, module_losses, search_loss
from .signals import (
    DegenerateDeltasError,
    MappingConfig,
    compute_delta,
    global_delta_stats,
    importance_all,
    importances,
)
from .toy import CalibrationSet, forward_activations, model_from_map

_HELDOUT_SEED = 1013
_HELDOUT_ROWS = 64


@dataclass
class EvalReport:
    per_module: dict[str, dict[str, float]]
    end_to_end: dict[str, float]
    config: dict[str, str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


@dataclass
class AblationRow:
    signal: str
    fraction: float
    per_module: dict[str, float]
    mean_mse: float
    end_to_end_mse: float


def _heldout_reference(post_ckpt: TensorMap):
    """The float model, the seeded held-out batch, and the model's outputs on it."""
    model = model_from_map(post_ckpt)
    rng = np.random.default_rng(_HELDOUT_SEED)
    batch = rng.standard_normal((_HELDOUT_ROWS, model.in_dim), dtype=np.float32)
    return model, batch, forward_activations(model.layers, batch)[-1]


def _end_to_end(reference, recon: dict[str, np.ndarray]) -> tuple[float, float]:
    """Output MSE and relative Frobenius error of ``recon`` weights on the held-out batch."""
    model, batch, ref = reference
    layers = [replace(layer, weight=recon[layer.name]) for layer in model.layers]
    quant = forward_activations(layers, batch)[-1]
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
    for module in post_ckpt.modules("weight"):
        if module not in artifact:
            raise ValueError(f"artifact does not cover module {module!r}")
    per_module: dict[str, dict[str, float]] = {}
    recon_full: dict[str, np.ndarray] = {}
    for module in sorted(artifact):
        q = artifact[module]
        weight_name = f"{module}.weight"
        if weight_name not in post_ckpt:
            raise ValueError(f"checkpoint is missing {weight_name!r}")
        weight = post_ckpt[weight_name]
        if q.shape != weight.shape:
            raise ValueError(
                f"artifact module {module!r} is {list(q.shape)}, its checkpoint weight "
                f"{list(weight.shape)}"
            )
        if module not in calib.inputs:
            raise ValueError(f"missing calibration inputs for module {module!r}")
        loss = ModuleLoss(weight, calib.inputs[module], module)
        qcfg = QuantConfig(bits=q.bits, group_size=q.group_size)
        # the artifact's codes do not depend on its mask: stripping the
        # protection decodes the scaled search candidate it was built from
        unprotected = replace(
            q, protected=np.zeros_like(q.protected), protected_values=q.protected_values[:, :0]
        )
        recon = dequantize(unprotected)
        searched_mse = loss(recon)
        # the overwrite that ends dequantize(q): one decode serves both errors
        recon[:, q.protected] = q.protected_values
        recon_full[module] = recon
        per_module[module] = {
            "rtn_mse": loss.quantized(qcfg),
            "searched_mse": searched_mse,
            "protected_mse": loss(recon),
        }
    reference = _heldout_reference(post_ckpt)
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


def _copy_columns(dst: np.ndarray, src: np.ndarray, cols: np.ndarray) -> None:
    """``dst[:, cols] = src[:, cols]`` for a C-contiguous ``dst``.

    Indexing the flattened arrays with sorted flat indices is several times
    faster than a two-axis column gather and scatter.
    """
    rows, width = dst.shape
    flat = (np.arange(rows)[:, None] * width + np.sort(cols)).ravel()
    dst.reshape(-1)[flat] = src.reshape(-1)[flat]


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
    Rows are emitted in input order, signals outer, fractions inner.

    Cost of a sweep: one delta pass and one global-stats pass per distinct
    ``zero_epsilon``. Per module: one float64 cast of each column block of
    the updates, shared by every signal; one quantize, one dequantize and
    the float64 per-column sums of the squared error; per signal, one sort
    (``protection_order``). Each fraction's mask is a prefix of that order,
    so the fractions are walked in ascending order over one float32
    reconstruction buffer per module. Per row and module: one sum of the
    column error sums with the protected columns zeroed, and a copy of the
    newly protected float columns into the buffer, which is exactly what
    decoding the protected tensor gives (the channel scale is all ones and
    the mask never changes the codes). Plus one held-out forward pass per
    row. The error sum runs over the columns in channel order, so it
    depends only on the protected set and cannot rise when a column joins
    it.
    """
    if not signals:
        raise ValueError("need at least one signal")
    bad = [f for f in fractions if not 0.0 <= f <= 1.0]
    if bad:
        raise ValueError(f"fractions must lie in [0, 1], got {bad[0]!r}")
    modules = post.modules("weight")
    deltas = compute_delta(pre, post)
    stats_by_epsilon = {}
    for cfg_sig in signals:
        eps = cfg_sig.zero_epsilon
        if eps not in stats_by_epsilon:
            stats_by_epsilon[eps] = global_delta_stats(deltas, eps)
    requests = [(cfg_sig, stats_by_epsilon[cfg_sig.zero_epsilon]) for cfg_sig in signals]
    orders = {
        m: [protection_order(s) for s in importances(m, deltas[f"{m}.weight"], requests, calib)]
        for m in modules
    }
    # dropped before the reconstructions so that the two peaks do not add up
    del deltas
    weights, plain, col_err = {}, {}, {}
    for module in modules:
        weight = np.asarray(post[f"{module}.weight"], dtype=np.float32)
        recon = dequantize(rtn_quantize(weight, qcfg))
        weights[module], plain[module], col_err[module] = weight, recon, _column_sq_err(recon, weight)
    reference = _heldout_reference(post)
    ascending = sorted(range(len(fractions)), key=lambda i: fractions[i])
    rows: list = [None] * (len(signals) * len(fractions))
    recon_full = {m: np.empty_like(plain[m]) for m in modules}
    for s, cfg_sig in enumerate(signals):
        for module in modules:
            np.copyto(recon_full[module], plain[module])
        err_left = {m: col_err[m].copy() for m in modules}
        protected = dict.fromkeys(modules, 0)
        for i in ascending:
            per_module: dict[str, float] = {}
            for module in modules:
                weight = weights[module]
                n = protected_count(fractions[i], weight.shape[1])
                new = orders[module][s][protected[module]:n]
                _copy_columns(recon_full[module], weight, new)
                err_left[module][new] = 0.0
                protected[module] = n
                per_module[module] = float(err_left[module].sum() / weight.size)
            e2e_mse, _ = _end_to_end(reference, recon_full)
            rows[s * len(fractions) + i] = AblationRow(
                signal=cfg_sig.signal,
                fraction=float(fractions[i]),
                per_module=per_module,
                mean_mse=float(np.mean([per_module[m] for m in modules])),
                end_to_end_mse=e2e_mse,
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
    base, final = by_step[0][1], by_step[-1][1]
    # every snapshot's importance covers the modules of step 0
    modules = module_losses(final, base.modules("weight"), calib, scfg)
    losses = {m: (loss, loss.quantized(qcfg)) for m, loss in modules}
    points: list[tuple[int, float]] = []
    for step, snap in by_step[1:]:
        try:
            imps = importance_all(base, snap, mapping_cfg, calib)
            best = [search_loss(loss, imps[m], scfg, qcfg, m, rtn).best_loss
                    for m, (loss, rtn) in losses.items()]
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
