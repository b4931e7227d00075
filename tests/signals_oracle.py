"""Two-branch reference for the update signals.

The mapping, the global statistics and the update deltas the direct way:
both quadratic branches are evaluated over every element and one is picked
with ``np.where``, zero updates are pinned with a second ``np.where``, the
positive deltas are selected with a boolean index, zero updates are counted
band by band with a float64 ``<=``, and each checkpoint is cast to float32
before subtracting. ``signals`` evaluates each element once in place; the
signal tests compare its outputs with these byte for byte. ``loop_importance``
scores every signal again one scalar at a time, for the tolerance tests of the
signal suite and of acceptance criterion 2.
"""

import numpy as np

from deltaquant.container import TensorMap
from deltaquant.signals import DegenerateDeltasError, DeltaStats

COLUMN_BLOCK = 64


def compute_delta(pre: TensorMap, post: TensorMap) -> TensorMap:
    out = TensorMap()
    for name in pre.names():
        if name.endswith(".weight"):
            out[name] = np.abs(post[name].astype(np.float32) - pre[name].astype(np.float32))
    return out


def global_delta_stats(deltas: TensorMap, zero_epsilon: float = 0.0) -> DeltaStats:
    vals = np.concatenate([deltas[name].ravel() for name in deltas.names()])
    positives = vals[np.greater(vals, zero_epsilon, signature=(np.float64, np.float64, None))]
    if positives.size == 0:
        raise DegenerateDeltasError("degenerate deltas: all weight updates are zero")
    middle = (positives.size - 1) // 2
    positives.partition(middle)
    return DeltaStats(
        min_positive=float(positives.min()),
        median_positive=float(positives[middle]),
        max=float(positives.max()),
        zero_count=int(vals.size - positives.size),
    )


def count_zeros_per_channel(delta, zero_epsilon, slices):
    zeros = np.asarray(delta, dtype=np.float64) <= np.float64(zero_epsilon)
    counts = [band.sum(axis=0) for band in np.array_split(zeros, slices)]
    return np.sum(counts, axis=0) / slices


def restricted_quadratic(delta, lo, mid, hi, y_min, y_max):
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


def _as_input_kind(values, original):
    if np.isscalar(original) or np.ndim(original) == 0:
        return float(values)
    return values


def map_both_ends(delta, stats, cfg):
    out = restricted_quadratic(
        delta, stats.min_including_zeros, stats.median_positive, stats.max, cfg.y_min, cfg.y_max
    )
    return _as_input_kind(out, delta)


def map_both_ends_zero(delta, stats, cfg):
    d = np.asarray(delta, dtype=np.float64)
    out = restricted_quadratic(
        d, stats.min_positive, stats.median_positive, stats.max, cfg.y_min, cfg.y_max
    )
    out = np.where(d <= cfg.zero_epsilon, cfg.y_min, out)
    return _as_input_kind(out, delta)


def map_mid(delta, stats, cfg):
    out = (cfg.y_min + cfg.y_max) - np.asarray(map_both_ends(delta, stats, cfg), dtype=np.float64)
    return _as_input_kind(out, delta)


def update_importance(weight_delta, stats, cfg):
    """Floored scores of an update signal, column block by block."""
    weight_delta = np.asarray(weight_delta)
    width = weight_delta.shape[1]
    scores = np.empty(width)
    for start in range(0, width, COLUMN_BLOCK):
        cols = slice(max(min(start, width - COLUMN_BLOCK), 0), start + COLUMN_BLOCK)
        delta = weight_delta[:, cols].astype(np.float64)
        if cfg.signal == "magnitude":
            scores[cols] = delta.mean(axis=0)
        elif cfg.signal == "both_ends":
            scores[cols] = map_both_ends(delta, stats, cfg).mean(axis=0)
        elif cfg.signal == "mid":
            scores[cols] = map_mid(delta, stats, cfg).mean(axis=0)
        else:
            zbar = count_zeros_per_channel(delta, cfg.zero_epsilon, cfg.slices)
            scores[cols] = map_both_ends_zero(delta, stats, cfg).mean(axis=0) * (zbar + 1.0)
    return np.maximum(scores, 1e-12)


def loop_importance(delta, stats, cfg, mean_abs=None, mean_square=None):
    """Independent scalar re-implementation of every importance signal."""
    rows, cols = delta.shape

    def f_zero(d):
        if d <= cfg.zero_epsilon:
            return cfg.y_min
        d = min(max(d, stats.min_positive), stats.max)
        if d <= stats.median_positive:
            lo, mid = stats.min_positive, stats.median_positive
            if mid - lo <= 0:
                return cfg.y_max
            return cfg.y_min + (cfg.y_max - cfg.y_min) * ((mid - d) / (mid - lo)) ** 2
        mid, hi = stats.median_positive, stats.max
        if hi - mid <= 0:
            return cfg.y_max
        return cfg.y_min + (cfg.y_max - cfg.y_min) * ((d - mid) / (hi - mid)) ** 2

    def f_plain(d):
        lo = 0.0 if stats.zero_count else stats.min_positive
        d = min(max(d, lo), stats.max)
        if d <= stats.median_positive:
            mid = stats.median_positive
            if mid - lo <= 0:
                return cfg.y_max
            return cfg.y_min + (cfg.y_max - cfg.y_min) * ((mid - d) / (mid - lo)) ** 2
        mid, hi = stats.median_positive, stats.max
        if hi - mid <= 0:
            return cfg.y_max
        return cfg.y_min + (cfg.y_max - cfg.y_min) * ((d - mid) / (hi - mid)) ** 2

    scores = np.zeros(cols)
    for c in range(cols):
        if cfg.signal == "magnitude":
            scores[c] = sum(delta[r, c] for r in range(rows)) / rows
        elif cfg.signal == "activation_sq":
            scores[c] = mean_square[c]
        elif cfg.signal == "both_ends":
            scores[c] = sum(f_plain(delta[r, c]) for r in range(rows)) / rows
        elif cfg.signal == "mid":
            scores[c] = sum(
                cfg.y_min + cfg.y_max - f_plain(delta[r, c]) for r in range(rows)
            ) / rows
        else:
            mean_f = sum(f_zero(delta[r, c]) for r in range(rows)) / rows
            base, rem = divmod(rows, cfg.slices)
            start = 0
            z_sum = 0.0
            for b in range(cfg.slices):
                size = base + (1 if b < rem else 0)
                band = delta[start : start + size, c]
                z_sum += sum(1 for v in band if v <= cfg.zero_epsilon)
                start += size
            scores[c] = mean_f * (z_sum / cfg.slices + 1.0)
        if cfg.multiply_activation:
            scores[c] *= mean_abs[c]
    return np.maximum(scores, 1e-12)
