"""Delta statistics, quadratic mappings, zero counting, importance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaquant.container import CompatibilityError, TensorMap
from deltaquant.signals import (
    DegenerateDeltasError,
    DeltaStats,
    ImportanceVector,
    MappingConfig,
    compute_delta,
    count_zeros_per_channel,
    global_delta_stats,
    importance,
    importance_all,
    importances_from_map,
    importances_to_map,
    map_both_ends,
    map_both_ends_zero,
    map_mid,
)
from deltaquant.toy import CalibrationSet, TrainConfig, forward, init_model, train

CFG = MappingConfig()  # defaults: both_ends_zero, y 1..10


def _weight_map(arrays: dict[str, np.ndarray]) -> TensorMap:
    return TensorMap({f"{k}.weight": np.asarray(v, np.float32) for k, v in arrays.items()})


def _random_stats(rng) -> DeltaStats:
    # comfortably separated branch anchors
    min_pos = float(rng.uniform(1e-4, 0.2))
    mid = min_pos + float(rng.uniform(0.1, 1.0))
    hi = mid + float(rng.uniform(0.1, 2.0))
    return DeltaStats(
        min_positive=min_pos,
        median_positive=mid,
        max=hi,
        zero_count=int(rng.integers(0, 10)),
        total_count=100,
    )


class TestComputeDelta:
    def test_identical_checkpoints_give_zeros(self):
        a = _weight_map({"m": np.full((3, 3), 0.5)})
        deltas = compute_delta(a, a)
        assert not deltas["m.weight"].any()

    def test_zero_pre_gives_abs_post(self):
        post = np.array([[1.5, -2.0], [0.0, 3.0]], np.float32)
        deltas = compute_delta(
            _weight_map({"m": np.zeros((2, 2))}), _weight_map({"m": post})
        )
        assert np.array_equal(deltas["m.weight"], np.abs(post))

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(0)
        pre = rng.standard_normal((4, 4)).astype(np.float32)
        post = rng.standard_normal((4, 4)).astype(np.float32)
        deltas = compute_delta(_weight_map({"m": pre}), _weight_map({"m": post}))
        for r in range(4):
            for c in range(4):
                assert deltas["m.weight"][r, c] == abs(
                    np.float32(post[r, c] - pre[r, c])
                )

    def test_incompatible_checkpoints_rejected(self):
        with pytest.raises(CompatibilityError):
            compute_delta(
                _weight_map({"m": np.zeros((2, 2))}),
                _weight_map({"m": np.zeros((2, 3))}),
            )

    def test_only_weight_tensors_processed(self):
        a = TensorMap(
            {
                "m.weight": np.zeros((2, 2), np.float32),
                "m.bias": np.ones(2, np.float32),
            }
        )
        deltas = compute_delta(a, a)
        assert deltas.names() == ["m.weight"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["pre", "post"])
    def test_non_finite_update_rejected(self, bad, side):
        rng = np.random.default_rng(1)
        clean = rng.standard_normal((3, 4)).astype(np.float32)
        poisoned = clean.copy()
        poisoned[1, 2] = bad
        maps = {"pre": clean, "post": clean + 0.5}
        maps[side] = poisoned
        pre = _weight_map({"m": maps["pre"], "n": clean})
        post = _weight_map({"m": maps["post"], "n": clean})
        with pytest.raises(ValueError, match="m.weight"):
            compute_delta(pre, post)
        with pytest.raises(ValueError, match="non-finite"):
            importance_all(pre, post, MappingConfig())


def _sorted_stats_oracle(deltas: TensorMap, zero_epsilon: float = 0.0) -> DeltaStats:
    """Global stats the direct way: pool in float64, sort, index."""
    vals = np.concatenate([deltas[n].ravel().astype(np.float64) for n in deltas.names()])
    positives = np.sort(vals[vals > zero_epsilon])
    if positives.size == 0:
        raise DegenerateDeltasError("degenerate deltas")
    return DeltaStats(
        min_positive=float(positives[0]),
        median_positive=float(positives[(positives.size - 1) // 2]),
        max=float(positives[-1]),
        zero_count=int(vals.size - positives.size),
        total_count=int(vals.size),
    )


class TestGlobalStats:
    def test_sort_and_index_oracle(self):
        deltas = _weight_map({"m": np.array([[0.0, 1.0], [2.0, 3.0]])})
        stats = global_delta_stats(deltas, zero_epsilon=0.0)
        assert stats.min_positive == 1.0
        assert stats.median_positive == 2.0
        assert stats.max == 3.0
        assert stats.zero_count == 1
        assert stats.total_count == 4
        assert stats.zero_fraction == 0.25

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateDeltasError, match="degenerate"):
            global_delta_stats(_weight_map({"m": np.zeros((3, 3))}))

    def test_single_positive_value(self):
        stats = global_delta_stats(_weight_map({"m": np.array([[0.0, 0.0, 5.0]])}))
        assert stats.min_positive == stats.median_positive == stats.max == 5.0

    def test_even_count_uses_lower_middle(self):
        stats = global_delta_stats(_weight_map({"m": np.array([[1.0, 2.0, 3.0, 4.0]])}))
        assert stats.median_positive == 2.0

    def test_epsilon_reclassifies_small_updates(self):
        deltas = _weight_map({"m": np.array([[0.001, 1.0, 2.0, 3.0]])})
        stats = global_delta_stats(deltas, zero_epsilon=0.01)
        assert stats.zero_count == 1
        assert stats.min_positive == 1.0

    def test_pools_across_modules(self):
        deltas = _weight_map({"a": np.array([[1.0]]), "b": np.array([[3.0, 5.0]])})
        stats = global_delta_stats(deltas)
        assert stats.median_positive == 3.0
        assert stats.max == 5.0

    def test_epsilon_between_float32_neighbours(self):
        # float32 rounds this epsilon up to v, yet v exceeds it and must count
        v = np.float32(0.1)
        below = float(v) - 1e-12
        for dtype in (np.float32, np.float64):
            deltas = TensorMap({"m.weight": np.array([[0.0, v, 2 * v]], dtype)})
            assert global_delta_stats(deltas, below) == _sorted_stats_oracle(deltas, below)
            assert global_delta_stats(deltas, below).min_positive == float(v)

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3),
        zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        levels=st.sampled_from([None, 3]),
        epsilon=st.sampled_from(["zero", "below", "between", "at"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sort_oracle(self, dtype, shapes, zero_fraction, levels, epsilon, seed):
        rng = np.random.default_rng(seed)
        deltas = TensorMap()
        for i, shape in enumerate(shapes):
            values = rng.exponential(1.0, shape)
            if levels:  # repeated values: ties at the median and the ends
                values = np.ceil(values * levels) / levels
            values[rng.random(shape) < zero_fraction] = 0.0
            deltas[f"m{i}.weight"] = values.astype(dtype)
        pooled = np.concatenate([deltas[n].ravel() for n in deltas.names()])
        v = pooled[rng.integers(pooled.size)]
        up = np.nextafter(v, v.dtype.type(np.inf))
        eps = {
            "zero": 0.0,
            "below": max(float(v) - float(up - v) / 4, 0.0),
            "between": (float(v) + float(up)) / 2,  # no float32 holds it
            "at": float(v),
        }[epsilon]
        try:
            want = _sorted_stats_oracle(deltas, eps)
        except DegenerateDeltasError:
            with pytest.raises(DegenerateDeltasError):
                global_delta_stats(deltas, eps)
            return
        assert global_delta_stats(deltas, eps) == want

    def test_min_including_zeros(self):
        with_zeros = DeltaStats(1.0, 2.0, 3.0, zero_count=1, total_count=4)
        without = DeltaStats(1.0, 2.0, 3.0, zero_count=0, total_count=3)
        assert with_zeros.min_including_zeros == 0.0
        assert without.min_including_zeros == 1.0


class TestMappings:
    # stats with zeros present, so the no-zero-handling left anchor is 0
    ST = DeltaStats(min_positive=0.5, median_positive=2.0, max=6.0, zero_count=1, total_count=10)
    # stats for the zero-excluded variant example
    ST2 = DeltaStats(min_positive=1.0, median_positive=3.0, max=7.0, zero_count=2, total_count=9)

    def test_both_ends_endpoint_identities(self):
        assert map_both_ends(self.ST.median_positive, self.ST, CFG) == 1.0
        assert map_both_ends(self.ST.max, self.ST, CFG) == 10.0

    def test_both_ends_right_branch_hand_value(self):
        # 1 + 9 * ((4-2)/(6-2))^2
        assert map_both_ends(4.0, self.ST, CFG) == pytest.approx(3.25, abs=1e-12)

    def test_both_ends_zero_at_zero(self):
        assert map_both_ends_zero(0.0, self.ST2, CFG) == 1.0

    def test_both_ends_zero_at_min_positive(self):
        assert map_both_ends_zero(self.ST2.min_positive, self.ST2, CFG) == pytest.approx(
            10.0, abs=1e-9
        )

    def test_both_ends_zero_left_branch_hand_value(self):
        # 1 + 9 * ((3-2)/(3-1))^2
        assert map_both_ends_zero(2.0, self.ST2, CFG) == pytest.approx(3.25, abs=1e-12)

    def test_mid_reflects_endpoints(self):
        assert map_mid(self.ST.median_positive, self.ST, CFG) == 10.0
        assert map_mid(self.ST.max, self.ST, CFG) == 1.0

    def test_mid_reflects_hand_value(self):
        assert map_mid(4.0, self.ST, CFG) == pytest.approx(7.75, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reflection_identity(self, seed):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng)
        deltas = rng.uniform(0, stats.max, size=200)
        total = map_mid(deltas, stats, CFG) + map_both_ends(deltas, stats, CFG)
        assert np.abs(total - (CFG.y_min + CFG.y_max)).max() < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_stay_in_range(self, seed):
        rng = np.random.default_rng(100 + seed)
        stats = _random_stats(rng)
        deltas = rng.uniform(0, stats.max, size=500)
        for fn in (map_both_ends, map_both_ends_zero, map_mid):
            vals = fn(deltas, stats, CFG)
            assert (vals >= CFG.y_min - 1e-12).all()
            assert (vals <= CFG.y_max + 1e-12).all()

    def test_monotone_on_both_branches(self):
        stats = self.ST2
        left = np.linspace(stats.min_positive, stats.median_positive, 500)
        right = np.linspace(stats.median_positive, stats.max, 500)
        lv = map_both_ends_zero(left, stats, CFG)
        rv = map_both_ends_zero(right, stats, CFG)
        assert (np.diff(lv) < 0).all()
        assert (np.diff(rv) > 0).all()

    def test_out_of_range_deltas_clamped(self):
        assert map_both_ends(100.0, self.ST, CFG) == 10.0
        assert map_both_ends_zero(-1.0, self.ST2, CFG) == 1.0

    def test_collapsed_branch_returns_y_max(self):
        stats = DeltaStats(5.0, 5.0, 5.0, zero_count=2, total_count=3)
        assert map_both_ends_zero(5.0, stats, CFG) == 10.0
        assert map_both_ends_zero(0.0, stats, CFG) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MappingConfig(y_min=2.0, y_max=1.0)
        with pytest.raises(ValueError):
            MappingConfig(y_min=0.0)
        with pytest.raises(ValueError):
            MappingConfig(slices=0)
        with pytest.raises(ValueError):
            MappingConfig(signal="sideways")
        with pytest.raises(ValueError, match="zero_epsilon"):
            MappingConfig(zero_epsilon=float("nan"))

    def test_default_output_anchors(self):
        assert CFG.y_min == 1.0
        assert CFG.y_max == 10.0


class TestZeroCounting:
    def test_all_zero_matrix(self):
        assert np.array_equal(
            count_zeros_per_channel(np.zeros((4, 3), np.float32)), [4.0, 4.0, 4.0]
        )

    def test_no_zeros(self):
        assert np.array_equal(
            count_zeros_per_channel(np.ones((4, 3), np.float32)), [0.0, 0.0, 0.0]
        )

    def test_two_band_hand_count(self):
        delta = np.ones((4, 2), np.float32)
        delta[0, 0] = 0.0
        delta[1, 0] = 0.0
        assert np.array_equal(count_zeros_per_channel(delta, slices=2), [1.0, 0.0])

    def test_slices_beyond_rows_rejected(self):
        with pytest.raises(ValueError):
            count_zeros_per_channel(np.zeros((4, 2), np.float32), slices=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_slice_equals_exhaustive_count(self, seed):
        rng = np.random.default_rng(seed)
        delta = rng.choice([0.0, 1.0], size=(8, 8)).astype(np.float32)
        got = count_zeros_per_channel(delta, slices=1)
        for c in range(8):
            assert got[c] == sum(1 for r in range(8) if delta[r, c] == 0)

    def test_threshold_compared_in_float64_like_global_stats(self):
        # float32(0.1) lies above the float64 epsilon 0.1, so neither counts it as zero
        delta = np.float32([[0.1], [0.2]])
        assert np.array_equal(count_zeros_per_channel(delta, 0.1), [0.0])
        stats = global_delta_stats(_weight_map({"a": delta}), zero_epsilon=0.1)
        assert stats.zero_count == 0

    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    def test_even_bands_scale_back_to_total(self, slices):
        rng = np.random.default_rng(slices)
        delta = rng.choice([0.0, 1.0], size=(8, 8)).astype(np.float32)
        mean_counts = count_zeros_per_channel(delta, slices=slices)
        totals = count_zeros_per_channel(delta, slices=1)
        assert np.allclose(mean_counts * slices, totals)


def _loop_importance(delta, stats, cfg, mean_abs=None, mean_square=None):
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
            band_sizes = []
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


class TestImportance:
    ST = DeltaStats(min_positive=0.5, median_positive=1.0, max=2.0, zero_count=2, total_count=4)

    def test_worked_column_example(self):
        # column [0, mid, max, 0]: mean f = (1+1+10+1)/4, Z = 2, I = 3.25 * 3
        col = np.array([[0.0], [1.0], [2.0], [0.0]])
        iv = importance("m", col, self.ST, CFG)
        assert iv.scores[0] == pytest.approx(9.75, abs=1e-12)

    def test_all_zero_column_forced_value(self):
        col = np.zeros((5, 1))
        iv = importance("m", col, self.ST, CFG)
        assert iv.scores[0] == pytest.approx(6.0, abs=1e-12)  # y_min * (N + 1)

    @pytest.mark.parametrize("signal", ["magnitude", "both_ends", "both_ends_zero", "mid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, signal, seed):
        rng = np.random.default_rng(seed)
        delta = rng.uniform(0, 1, size=(8, 8))
        delta[rng.uniform(size=(8, 8)) < 0.3] = 0.0
        if not delta.any():
            delta[0, 0] = 0.5
        stats = global_delta_stats(_weight_map({"m": delta}))
        cfg = MappingConfig(signal=signal)
        got = importance("m", delta, stats, cfg).scores
        want = _loop_importance(delta.astype(np.float32).astype(np.float64), stats, cfg)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("signal", ["magnitude", "both_ends", "both_ends_zero", "mid"])
    @pytest.mark.parametrize("width", [63, 64, 65, 130])
    def test_column_blocks_match_whole_matrix_bit_for_bit(self, signal, width):
        rng = np.random.default_rng(width)
        delta = rng.uniform(0, 1, size=(9, width)).astype(np.float32)
        delta[rng.uniform(size=delta.shape) < 0.3] = 0.0
        stats = global_delta_stats(_weight_map({"m": delta}))
        cfg = MappingConfig(signal=signal, slices=2)
        d = delta.astype(np.float64)
        whole = {
            "magnitude": lambda: d.mean(axis=0),
            "both_ends": lambda: map_both_ends(d, stats, cfg).mean(axis=0),
            "mid": lambda: map_mid(d, stats, cfg).mean(axis=0),
            "both_ends_zero": lambda: map_both_ends_zero(d, stats, cfg).mean(axis=0)
            * (count_zeros_per_channel(d, 0.0, 2) + 1.0),
        }[signal]()
        got = importance("m", delta, stats, cfg).scores
        assert got.tobytes() == np.maximum(whole, 1e-12).tobytes()

    @pytest.mark.parametrize("slices", [1, 2, 4])
    def test_sliced_zero_counts_match_oracle(self, slices):
        rng = np.random.default_rng(slices + 10)
        delta = rng.uniform(0, 1, size=(8, 8))
        delta[rng.uniform(size=(8, 8)) < 0.4] = 0.0
        stats = global_delta_stats(_weight_map({"m": delta}))
        cfg = MappingConfig(slices=slices)
        got = importance("m", delta, stats, cfg).scores
        want = _loop_importance(delta.astype(np.float32).astype(np.float64), stats, cfg)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_activation_signals_need_calibration(self):
        with pytest.raises(ValueError, match="calibration"):
            importance("m", np.ones((4, 4)), self.ST, MappingConfig(signal="activation_sq"))
        with pytest.raises(ValueError, match="calibration"):
            importance("m", np.ones((4, 4)), self.ST, MappingConfig(multiply_activation=True))

    def test_activation_sq_and_multiply_match_oracle(self):
        model = init_model([8, 8], seed=0)
        x = np.random.default_rng(1).standard_normal((16, 8), dtype=np.float32)
        _, calib = forward(model, x)
        calib.inputs["m"] = calib.inputs["layer0"]
        rows = calib.inputs["m"].astype(np.float64)
        mean_abs = [sum(abs(v) for v in rows[:, c]) / len(rows) for c in range(8)]
        mean_square = [sum(v * v for v in rows[:, c]) / len(rows) for c in range(8)]
        rng = np.random.default_rng(2)
        delta = rng.uniform(0, 1, size=(8, 8))
        delta[0, 0] = 0.0
        stats = global_delta_stats(_weight_map({"m": delta}))
        for cfg in (
            MappingConfig(signal="activation_sq"),
            MappingConfig(signal="both_ends_zero", multiply_activation=True),
        ):
            got = importance("m", delta, stats, cfg, calib).scores
            want = _loop_importance(
                delta.astype(np.float32).astype(np.float64),
                stats,
                cfg,
                mean_abs=mean_abs,
                mean_square=mean_square,
            )
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize(
        "dims, rows", [([4, 6, 2], 16), ([8, 64, 8], 1000)], ids=["16rows", "1000rows"]
    )
    def test_activation_stats_are_rounded_float64_column_means(self, dims, rows):
        # the exact values older calibration files stored next to the rows
        x = np.random.default_rng(rows).standard_normal((rows, dims[0]), dtype=np.float32)
        _, calib = forward(init_model(dims, seed=2), x)
        for module, mat in calib.inputs.items():
            x64 = mat.astype(np.float64)
            ones = np.ones((1, mat.shape[1]))
            for cfg, want in (
                (MappingConfig(signal="activation_sq"), (x64 * x64).mean(axis=0)),
                (MappingConfig(signal="magnitude", multiply_activation=True),
                 np.abs(x64).mean(axis=0)),
            ):
                got = importance(module, ones, self.ST, cfg, calib).scores
                want = np.maximum(want.astype(np.float32).astype(np.float64), 1e-12)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "signal, multiply, kind",
        [("activation_sq", False, k) for k in ("nan", "inf", "overflow", "no_rows", "width")]
        # a column mean of float32 |x| cannot exceed the float32 maximum
        + [("magnitude", True, k) for k in ("nan", "inf", "no_rows", "width")],
    )
    def test_bad_calibration_rows_rejected(self, signal, multiply, kind):
        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        if kind in ("nan", "inf", "overflow"):
            x[3, 1] = {"nan": np.nan, "inf": -np.inf, "overflow": 1e20}[kind]
            message = "non-finite calibration statistic for module 'm'"
        else:
            x = x[:0] if kind == "no_rows" else x[:, :3]
            message = r"calibration inputs of module 'm' must be \[n >= 1, 4\]"
        cfg = MappingConfig(signal=signal, multiply_activation=multiply)
        with pytest.raises(ValueError, match=message):
            importance("m", np.ones((4, 4)), self.ST, cfg, CalibrationSet(inputs={"m": x}))

    def test_scores_strictly_positive_even_for_dead_channels(self):
        stats = self.ST
        cfg = MappingConfig(signal="magnitude")
        iv = importance("m", np.zeros((4, 4)), stats, cfg)
        assert (iv.scores > 0).all()


class TestImportanceAll:
    def _trained_pair(self):
        model = init_model([6, 10, 4], seed=3)
        _, snaps = train(model, TrainConfig(steps=200, data_seed=5))
        return snaps[0][1], snaps[-1][1]

    def test_identical_checkpoints_surface_degenerate_error(self):
        from deltaquant.toy import checkpoint_map

        ckpt = checkpoint_map(init_model([4, 6, 4], seed=0), 0)
        with pytest.raises(DegenerateDeltasError):
            importance_all(ckpt, ckpt, CFG)

    def test_trained_pair_yields_positive_vectors(self):
        pre, post = self._trained_pair()
        imps = importance_all(pre, post, CFG)
        assert sorted(imps) == ["layer0", "layer1"]
        assert imps["layer0"].scores.shape == (6,)
        assert imps["layer1"].scores.shape == (10,)
        for iv in imps.values():
            assert np.isfinite(iv.scores).all()
            assert (iv.scores > 0).all()

    def test_zero_fraction_is_reported(self):
        pre, post = self._trained_pair()
        stats = global_delta_stats(compute_delta(pre, post))
        # report-only: real fine-tuned models exceed 1%, the toy run may not
        assert 0.0 <= stats.zero_fraction <= 1.0

    def test_container_round_trip_preserves_scores_and_meta(self):
        pre, post = self._trained_pair()
        imps = importance_all(pre, post, MappingConfig(slices=2))
        tmap = importances_to_map(imps)
        assert tmap.meta["signal"] == "both_ends_zero"
        assert tmap.meta["y_min"] == "1.0"
        assert tmap.meta["y_max"] == "10.0"
        assert tmap.meta["slices"] == "2"
        loaded = importances_from_map(tmap)
        assert sorted(loaded) == sorted(imps)
        for name in imps:
            f32 = imps[name].scores.astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded[name].scores, f32)

    def test_every_config_field_round_trips_through_meta(self):
        cfg = MappingConfig(
            signal="mid", y_min=2.0, zero_epsilon=1e-4, slices=3, multiply_activation=True
        )
        imps = {"a": ImportanceVector("a", np.ones(3), cfg)}
        assert importances_from_map(importances_to_map(imps))["a"].config == cfg

    def test_hyphenated_signal_names_read_as_underscores(self):
        assert MappingConfig(signal="both-ends-zero") == MappingConfig()
        with pytest.raises(ValueError, match="unknown signal"):
            MappingConfig(signal="both ends")

    def test_default_meta_text_is_unchanged(self):
        imps = {"a": ImportanceVector("a", np.ones(3), MappingConfig())}
        assert importances_to_map(imps).meta == {
            "signal": "both_ends_zero",
            "y_min": "1.0",
            "y_max": "10.0",
            "zero_epsilon": "0.0",
            "slices": "1",
            "multiply_activation": "false",
        }

    def test_missing_meta_keeps_defaults_and_extra_keys_are_ignored(self):
        tmap = TensorMap({"a.importance": np.ones(3, np.float32)}, meta={"slices": "2", "x": "y"})
        assert importances_from_map(tmap)["a"].config == MappingConfig(slices=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected_on_load(self, bad):
        tmap = TensorMap(
            {"a.importance": np.ones(3, np.float32), "b.importance": np.ones(4, np.float32)},
            meta={"signal": "magnitude"},
        )
        tmap["b.importance"][2] = bad
        with pytest.raises(ValueError, match="non-finite.*'b'"):
            importances_from_map(tmap)
