"""Weight-update deltas and per-channel importance signals.

A fine-tuning delta is the element-wise absolute difference between a
post- and a pre-fine-tuned checkpoint. Global statistics of all deltas
(smallest positive, median of positives, maximum) anchor a two-branch
restricted quadratic that assigns maximal importance to the smallest and
largest updates ("protect both ends") and minimal importance to the
median. Variants: the reflected mapping that protects intermediate
magnitudes instead, a zero-aware mapping that pins exactly-zero updates to
the minimum score and fits the left branch on positive updates only, and a
zero-count amplifier that multiplies a channel's mean score by one plus
its count of zero updates (optionally divided by ``slices``).
Activation-based signals serve as baselines; their statistics are derived
from the calibration rows where a signal reads them. ``importances`` is the
one evaluator of every signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import (
    TensorMap,
    check_compatible,
    check_weight_shape,
    config_from_text,
    config_to_text,
)
from .toy import CalibrationSet

SIGNALS = ("magnitude", "both_ends", "both_ends_zero", "mid", "activation_sq")

# importance must stay strictly positive; dead activation channels would
# otherwise produce exact zeros and break the scaling search
_SCORE_FLOOR = 1e-12
# columns per block of the update signals: keeps their float64 temporaries
# small; blocks of one width leave each column's mean adding its rows in order
_COLUMN_BLOCK = 64


class DegenerateDeltasError(Exception):
    """Every weight update is zero; no statistics can be derived."""


@dataclass(frozen=True)
class MappingConfig:
    signal: str = "both_ends_zero"  # hyphens read as underscores: "both-ends-zero"
    y_min: float = 1.0
    y_max: float = 10.0
    zero_epsilon: float = 0.0
    slices: int = 1
    multiply_activation: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal", self.signal.replace("-", "_"))
        if self.signal not in SIGNALS:
            raise ValueError(f"unknown signal {self.signal!r}; expected one of {SIGNALS}")
        if not (np.inf > self.y_max > self.y_min > 0):
            raise ValueError("need finite y_max > y_min > 0")
        if not np.inf > self.zero_epsilon >= 0:
            raise ValueError("zero_epsilon must be finite and >= 0")
        if self.slices < 1:
            raise ValueError("slices must be >= 1")

    @property
    def needs_calib(self) -> bool:
        """Whether the signal reads calibration inputs."""
        return self.signal == "activation_sq" or self.multiply_activation


@dataclass(frozen=True)
class DeltaStats:
    """Global statistics of all weight updates across every module."""

    min_positive: float
    median_positive: float
    max: float
    zero_count: int

    @property
    def min_including_zeros(self) -> float:
        return 0.0 if self.zero_count > 0 else self.min_positive


def compute_delta(pre: TensorMap, post: TensorMap) -> TensorMap:
    """Element-wise |post - pre| of every '.weight' tensor.

    Raises ValueError when the checkpoints hold no '.weight' tensor, and
    naming the tensor when it is not a matrix of at least one row and one
    column, when either checkpoint holds a non-finite value there, or when
    the update of finite weights overflows float32, so no NaN or inf
    importance can be derived from it.
    """
    check_compatible(pre, post)
    modules = pre.modules("weight")
    if not modules:
        raise ValueError("checkpoint contains no '.weight' tensors")
    out = TensorMap()
    for module in modules:
        name = f"{module}.weight"
        check_weight_shape(post[name], f"weight {name!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are reported below
            delta = np.subtract(post[name], pre[name], dtype=np.float32)
        np.abs(delta, out=delta)
        # max propagates NaN and inf without allocating a mask
        if not np.isfinite(delta.max(initial=0.0)):
            if np.isfinite(pre[name]).all() and np.isfinite(post[name]).all():
                raise ValueError(f"weight update in {name!r} overflows float32")
            raise ValueError(f"non-finite weight update in {name!r}")
        out[name] = delta
    return out


def global_delta_stats(deltas: TensorMap, zero_epsilon: float = 0.0) -> DeltaStats:
    """Pool all module deltas and extract min/median/max of the positives.

    Updates at or below ``zero_epsilon`` count as zero and are excluded
    from the minimum and the median. The median is the lower middle
    element of the sorted positives for even counts.

    The pooled deltas keep their own dtype. The threshold is compared in
    float64, so a ``zero_epsilon`` that float32 cannot represent keeps its
    meaning under every numpy promotion rule; a partial sort finds the
    median, and reductions the ends.
    """
    if len(deltas) == 0:
        raise ValueError("deltas map is empty")
    vals = np.concatenate([deltas[name].ravel() for name in deltas.names()])
    positives = np.compress(
        np.greater(vals, zero_epsilon, signature=(np.float64, np.float64, None)), vals
    )
    zeros = vals.size - positives.size
    if positives.size == 0:
        raise DegenerateDeltasError(
            f"degenerate deltas: every weight update is at or below zero_epsilon {zero_epsilon}"
            if zero_epsilon > 0 else "degenerate deltas: all weight updates are zero"
        )
    middle = (positives.size - 1) // 2
    positives.partition(middle)
    return DeltaStats(
        min_positive=float(positives.min()),
        median_positive=float(positives[middle]),
        max=float(positives.max()),
        zero_count=int(zeros),
    )


def _restricted_quadratic(
    delta: np.ndarray, lo: float, mid: float, hi: float, y_min: float, y_max: float,
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """Two-branch quadratic: y_max at both ends, y_min at the median.

    delta is a float64 matrix; values outside [lo, hi] are clamped. With a
    ``kept`` mask, the updates it leaves out score y_min. A collapsed left
    branch (mid == lo) returns y_max at its point; a collapsed right branch
    is never reached, because clamping keeps every update at or below
    hi == mid.

    Each element is evaluated once, in place: t = d - mid splits into
    min(t, 0) and max(t, 0), each divided by its own branch width. Exactly
    one part is non-zero, d - mid is the exact negation of mid - d, and
    x + 0 == x, so the sum squared equals the selected branch's square bit
    for bit. A pinned update is set to t = 0, which maps to exactly y_min.
    """
    t = np.clip(delta, lo, hi, out=np.empty_like(delta))
    t -= mid
    # a collapsed left branch scores y_max at its one point, the median
    at_mid = None if mid - lo > 0 else t == 0
    if kept is not None:
        # a multiply by the mask: a masked store branches on every element
        t *= kept
        if at_mid is not None:
            at_mid &= kept
    q = np.minimum(t, 0.0, out=np.empty_like(t))
    np.maximum(t, 0.0, out=t)
    if at_mid is None:
        q /= mid - lo
    if hi - mid > 0:
        t /= hi - mid
    q += t
    np.square(q, out=q)
    q *= y_max - y_min
    q += y_min
    if at_mid is not None:
        np.copyto(q, y_max, where=at_mid)
    return q


def _activation_stat(x: np.ndarray, module: str, width: int, *, square: bool) -> np.ndarray:
    """Per-channel mean of ``x**2`` (or ``|x|``) over a module's calibration rows."""
    if x.shape[0] == 0 or x.shape[1] != width:
        raise ValueError(f"calibration inputs of module {module!r} must be [n >= 1, {width}]")
    if square:
        stat = np.square(x, dtype=np.float64).mean(axis=0)
    else:
        stat = np.mean(np.abs(x), axis=0, dtype=np.float64)
    # rounded through float32 like the statistics older calibration files
    # stored, which keeps the scores byte-identical; an overflow becomes inf
    with np.errstate(over="ignore"):
        stat = stat.astype(np.float32)
    if not np.isfinite(stat).all():
        raise ValueError(f"non-finite calibration statistic for module {module!r}")
    return stat.astype(np.float64)


def importances(
    module: str,
    weight_delta: np.ndarray,
    signals: list[tuple[MappingConfig, DeltaStats]],
    calib: CalibrationSet | None = None,
) -> list[np.ndarray]:
    """Per-input-channel importance of one module under each (config, statistics) pair.

    magnitude        mean |update| down each column
    activation_sq    mean squared calibration input per channel
    both_ends        column mean of the both-ends quadratic
    mid              column mean of the reflected quadratic
    both_ends_zero   column mean of the zero-excluded quadratic times
                     (zero-update count / slices + 1)

    With ``multiply_activation`` a score is further scaled by the mean
    absolute calibration input. Both statistics are derived from
    ``calib.inputs[module]``; empty, misshaped or non-finite rows raise
    ValueError naming the module, as does a score that overflows float64.
    Scores are clamped to a tiny positive floor so they can serve as
    scaling-factor bases.

    Each column block of the updates is cast to float64 once and serves
    every pair. Pairs that share the both-ends quadratic's anchors evaluate
    it once per block, and ``mid`` reflects its values elementwise.
    ``both_ends_zero`` compares each update with ``zero_epsilon`` once: the
    one mask both pins the zero updates in the quadratic and gives each
    column's zero count, which is divided by ``slices``.
    """
    weight_delta = np.asarray(weight_delta)
    if weight_delta.ndim != 2:
        raise ValueError("weight_delta must be a [out, in] matrix")
    rows, width = weight_delta.shape
    for cfg, _ in signals:
        if cfg.needs_calib and (calib is None or module not in calib.inputs):
            raise ValueError(f"signal requires calibration inputs for module {module!r}")
        if cfg.signal == "both_ends_zero" and cfg.slices > rows:
            raise ValueError(f"module {module!r}: slices must be in [1, {rows}], got {cfg.slices}")

    scores = [np.empty(width) for _ in signals]
    updates = [
        (cfg, stats, out)
        for (cfg, stats), out in zip(signals, scores)
        if cfg.signal != "activation_sq"
    ]
    # an overflow becomes inf, which the check below reports with the module
    with np.errstate(over="ignore"):
        for start in range(0, width if updates else 0, _COLUMN_BLOCK):
            # the last block ends at the last column, overlapping the one before
            cols = slice(max(min(start, width - _COLUMN_BLOCK), 0), start + _COLUMN_BLOCK)
            delta = weight_delta[:, cols].astype(np.float64)
            both_ends = {}
            for cfg, stats, out in updates:
                if cfg.signal == "magnitude":
                    out[cols] = delta.mean(axis=0)
                elif cfg.signal == "both_ends_zero":
                    kept = delta > cfg.zero_epsilon
                    # counted before the quadratic, while the mask is in cache
                    zbar = (rows - kept.sum(axis=0)) / cfg.slices
                    q = _restricted_quadratic(
                        delta, stats.min_positive, stats.median_positive, stats.max,
                        cfg.y_min, cfg.y_max, kept,
                    )
                    out[cols] = q.mean(axis=0) * (zbar + 1.0)
                else:  # both_ends, mid
                    anchors = (
                        stats.min_including_zeros, stats.median_positive, stats.max,
                        cfg.y_min, cfg.y_max,
                    )
                    if anchors not in both_ends:
                        both_ends[anchors] = _restricted_quadratic(delta, *anchors)
                    q = both_ends[anchors]
                    if cfg.signal == "mid":
                        q = (cfg.y_min + cfg.y_max) - q
                    out[cols] = q.mean(axis=0)

        floored = []
        for (cfg, _), out in zip(signals, scores):
            if cfg.signal == "activation_sq":
                out = _activation_stat(calib.inputs[module], module, width, square=True)
            if cfg.multiply_activation:
                out = out * _activation_stat(calib.inputs[module], module, width, square=False)
            if not np.isfinite(out).all():
                raise ValueError(f"importance scores of module {module!r} are not finite")
            floored.append(np.maximum(out, _SCORE_FLOOR))
    return floored


def importance_all(
    pre: TensorMap,
    post: TensorMap,
    cfg: MappingConfig,
    calib: CalibrationSet | None = None,
) -> dict[str, np.ndarray]:
    """Compute importance scores for every linear module of a checkpoint pair.

    One global DeltaStats, pooled over all modules, anchors the mappings
    for every module.
    """
    deltas = compute_delta(pre, post)
    stats = global_delta_stats(deltas, cfg.zero_epsilon)
    return {
        module: importances(module, deltas[f"{module}.weight"], [(cfg, stats)], calib)[0]
        for module in deltas.modules("weight")
    }


def importances_to_map(scores: dict[str, np.ndarray], cfg: MappingConfig) -> TensorMap:
    """Serialize importance scores as a float32 container map with ``cfg`` as meta.

    A score that overflows float32 raises ValueError naming its module.
    """
    if not scores:
        raise ValueError("no importance vectors to save")
    tmap = TensorMap(meta=config_to_text(cfg))
    for module in sorted(scores):
        with np.errstate(over="ignore"):
            stored = scores[module].astype(np.float32)
        if not np.isfinite(stored).all():
            raise ValueError(f"importance scores of module {module!r} are not finite in float32")
        tmap[f"{module}.importance"] = stored
    return tmap


def importances_from_map(tmap: TensorMap) -> dict[str, np.ndarray]:
    """Read importance scores by module; a malformed meta value raises ValueError.

    Every score must be finite, positive and float32. The mapping's floor is kept:
    float32 stores it just below ``_SCORE_FLOOR``, which it is raised back to.
    """
    config_from_text(MappingConfig, tmap.meta)
    out: dict[str, np.ndarray] = {}
    for module in tmap.modules("importance"):
        stored = tmap[f"{module}.importance"]
        scores = stored.astype(np.float64)
        if stored.dtype != np.float32 or not np.isfinite(scores).all():
            raise ValueError(f"non-finite or non-float32 importance scores for module {module!r}")
        if (scores <= 0).any():
            raise ValueError(f"non-positive importance scores for module {module!r}")
        out[module] = np.maximum(scores, _SCORE_FLOOR)
    return out
