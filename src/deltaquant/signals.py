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
its (optionally band-averaged) count of zero updates. Activation-based
signals serve as baselines; their statistics are derived from the
calibration rows where a signal reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import TensorMap, check_compatible, config_from_text, config_to_text
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
        if not (self.y_max > self.y_min > 0):
            raise ValueError("need y_max > y_min > 0")
        if not self.zero_epsilon >= 0:
            raise ValueError("zero_epsilon must be >= 0")
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
    total_count: int

    @property
    def zero_fraction(self) -> float:
        return self.zero_count / self.total_count

    @property
    def min_including_zeros(self) -> float:
        return 0.0 if self.zero_count > 0 else self.min_positive


@dataclass
class ImportanceVector:
    """Per-input-channel importance scores for one linear module."""

    module: str
    scores: np.ndarray  # [in_features] float64, strictly positive
    config: MappingConfig


def compute_delta(pre: TensorMap, post: TensorMap) -> TensorMap:
    """Element-wise |post - pre| of every '.weight' tensor.

    Raises ValueError naming the tensor when either checkpoint holds a
    non-finite value there, so no NaN importance can be derived from it.
    """
    check_compatible(pre, post)
    out = TensorMap()
    for name in pre.names():
        if name.endswith(".weight"):
            delta = np.abs(post[name].astype(np.float32) - pre[name].astype(np.float32))
            # max propagates NaN and inf without allocating a mask
            if not np.isfinite(delta.max(initial=0.0)):
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
    positives = vals[np.greater(vals, zero_epsilon, signature=(np.float64, np.float64, None))]
    total = vals.size
    zeros = total - positives.size
    if positives.size == 0:
        raise DegenerateDeltasError(
            "degenerate deltas: all weight updates are zero"
        )
    middle = (positives.size - 1) // 2
    positives.partition(middle)
    return DeltaStats(
        min_positive=float(positives.min()),
        median_positive=float(positives[middle]),
        max=float(positives.max()),
        zero_count=int(zeros),
        total_count=int(total),
    )


def _restricted_quadratic(delta, lo: float, mid: float, hi: float, y_min: float, y_max: float):
    """Two-branch quadratic: y_max at both ends, y_min at the median.

    delta may be a scalar or an ndarray; values outside [lo, hi] are
    clamped. A collapsed branch (zero width) returns y_max at its point.
    """
    d = np.minimum(np.maximum(np.asarray(delta, dtype=np.float64), lo), hi)
    amp = y_max - y_min
    if mid - lo > 0:
        left = y_min + amp * ((mid - d) / (mid - lo)) ** 2
    else:
        left = np.full_like(d, y_max)
    if hi - mid > 0:
        right = y_min + amp * ((d - mid) / (hi - mid)) ** 2
    else:
        right = np.full_like(d, y_max)
    return np.where(d <= mid, left, right)


def _as_input_kind(values: np.ndarray, original) -> float | np.ndarray:
    if np.isscalar(original) or np.ndim(original) == 0:
        return float(values)
    return values


def map_both_ends(delta, stats: DeltaStats, cfg: MappingConfig):
    """Both-ends quadratic with no special zero handling.

    The left anchor is the global minimum including zeros, so when any
    zero update exists f(0) = y_max. Accepts scalars or arrays.
    """
    out = _restricted_quadratic(
        delta, stats.min_including_zeros, stats.median_positive, stats.max,
        cfg.y_min, cfg.y_max,
    )
    return _as_input_kind(out, delta)


def map_both_ends_zero(delta, stats: DeltaStats, cfg: MappingConfig):
    """Zero-excluded both-ends quadratic.

    Exactly-zero updates (<= cfg.zero_epsilon) score y_min; the left
    branch is anchored at the smallest positive update instead of zero,
    so f(min_positive) = f(max) = y_max and f(median) = y_min.
    """
    d = np.asarray(delta, dtype=np.float64)
    out = _restricted_quadratic(
        d, stats.min_positive, stats.median_positive, stats.max,
        cfg.y_min, cfg.y_max,
    )
    out = np.where(d <= cfg.zero_epsilon, cfg.y_min, out)
    return _as_input_kind(out, delta)


def map_mid(delta, stats: DeltaStats, cfg: MappingConfig):
    """Reflection of the both-ends mapping: protects intermediate updates.

    map_mid(d) + map_both_ends(d) == y_min + y_max for every d.
    """
    out = (cfg.y_min + cfg.y_max) - np.asarray(
        map_both_ends(delta, stats, cfg), dtype=np.float64
    )
    return _as_input_kind(out, delta)


def count_zeros_per_channel(
    delta: np.ndarray, zero_epsilon: float = 0.0, slices: int = 1
) -> np.ndarray:
    """Mean per-band zero-update count for each input channel.

    Rows are split into ``slices`` contiguous bands (sizes differ by at
    most one; later bands may be smaller) and the zero count of each
    channel is averaged across bands. With slices=1 this is the plain
    per-channel zero count.
    """
    delta = np.asarray(delta)
    if delta.ndim != 2:
        raise ValueError("delta must be a [out, in] matrix")
    rows = delta.shape[0]
    if slices < 1 or slices > rows:
        raise ValueError(f"slices must be in [1, {rows}], got {slices}")
    counts = np.zeros(delta.shape[1], dtype=np.float64)
    for band in np.array_split(delta, slices, axis=0):
        # compared in float64, like the threshold of global_delta_stats
        zeros = np.less_equal(band, zero_epsilon, signature=(np.float64, np.float64, None))
        counts += zeros.sum(axis=0)
    return counts / slices


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


def importance(
    module: str,
    weight_delta: np.ndarray,
    stats: DeltaStats,
    cfg: MappingConfig,
    calib: CalibrationSet | None = None,
) -> ImportanceVector:
    """Per-input-channel importance of one module under a chosen signal.

    magnitude        mean |update| down each column
    activation_sq    mean squared calibration input per channel
    both_ends        column mean of the both-ends quadratic
    mid              column mean of the reflected quadratic
    both_ends_zero   column mean of the zero-excluded quadratic times
                     (mean zero count per band + 1)

    With ``multiply_activation`` the result is further scaled by the mean
    absolute calibration input. Both statistics are derived from
    ``calib.inputs[module]``; empty, misshaped or non-finite rows raise
    ValueError naming the module. Scores are clamped to a tiny positive
    floor so they can serve as scaling-factor bases.
    """
    weight_delta = np.asarray(weight_delta)
    if weight_delta.ndim != 2:
        raise ValueError("weight_delta must be a [out, in] matrix")
    width = weight_delta.shape[1]
    if cfg.needs_calib and (calib is None or module not in calib.inputs):
        raise ValueError(f"signal requires calibration inputs for module {module!r}")

    if cfg.signal == "activation_sq":
        scores = _activation_stat(calib.inputs[module], module, width, square=True)
    else:
        scores = np.empty(width)
        for start in range(0, width, _COLUMN_BLOCK):
            # the last block ends at the last column, overlapping the one before
            cols = slice(max(min(start, width - _COLUMN_BLOCK), 0), start + _COLUMN_BLOCK)
            delta = weight_delta[:, cols].astype(np.float64)
            if cfg.signal == "magnitude":
                scores[cols] = delta.mean(axis=0)
            elif cfg.signal == "both_ends":
                scores[cols] = map_both_ends(delta, stats, cfg).mean(axis=0)
            elif cfg.signal == "mid":
                scores[cols] = map_mid(delta, stats, cfg).mean(axis=0)
            else:  # both_ends_zero
                zbar = count_zeros_per_channel(delta, cfg.zero_epsilon, cfg.slices)
                scores[cols] = map_both_ends_zero(delta, stats, cfg).mean(axis=0) * (zbar + 1.0)

    if cfg.multiply_activation:
        scores = scores * _activation_stat(calib.inputs[module], module, width, square=False)
    scores = np.maximum(scores, _SCORE_FLOOR)
    return ImportanceVector(module=module, scores=scores, config=cfg)


def importance_all(
    pre: TensorMap,
    post: TensorMap,
    cfg: MappingConfig,
    calib: CalibrationSet | None = None,
) -> dict[str, ImportanceVector]:
    """Compute importance for every linear module of a checkpoint pair.

    One global DeltaStats, pooled over all modules, anchors the mappings
    for every module.
    """
    deltas = compute_delta(pre, post)
    stats = global_delta_stats(deltas, cfg.zero_epsilon)
    return _importance_per_module(deltas, stats, cfg, calib)


def _importance_per_module(
    deltas: TensorMap,
    stats: DeltaStats,
    cfg: MappingConfig,
    calib: CalibrationSet | None,
) -> dict[str, ImportanceVector]:
    """Importance of every module of ``deltas`` under one set of global stats."""
    result: dict[str, ImportanceVector] = {}
    for name in deltas.names():
        module = name[: -len(".weight")]
        result[module] = importance(module, deltas[name], stats, cfg, calib)
    return result


def importances_to_map(imps: dict[str, ImportanceVector]) -> TensorMap:
    """Serialize importance vectors as a container map with config meta."""
    if not imps:
        raise ValueError("no importance vectors to save")
    tmap = TensorMap(meta=config_to_text(next(iter(imps.values())).config))
    for module in sorted(imps):
        tmap[f"{module}.importance"] = imps[module].scores.astype(np.float32)
    return tmap


def importances_from_map(tmap: TensorMap) -> dict[str, ImportanceVector]:
    """Read importance vectors; meta fields that are missing keep their defaults."""
    cfg = config_from_text(MappingConfig, tmap.meta)
    out: dict[str, ImportanceVector] = {}
    for name in tmap.names():
        if name.endswith(".importance"):
            module = name[: -len(".importance")]
            scores = tmap[name].astype(np.float64)
            if not np.isfinite(scores).all():
                raise ValueError(f"non-finite importance scores for module {module!r}")
            scores = np.maximum(scores, _SCORE_FLOOR)
            out[module] = ImportanceVector(module=module, scores=scores, config=cfg)
    return out
