"""Delta statistics, quadratic mappings, zero counting, importance."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaquant.container import CompatibilityError, TensorMap, config_from_text
from deltaquant.signals import (
    DegenerateDeltasError,
    DeltaStats,
    MappingConfig,
    compute_delta,
    global_delta_stats,
    importance_all,
    importances,
    importances_from_map,
    importances_to_map,
)
from deltaquant.toy import CalibrationSet, TrainConfig, forward, init_model, train
import signals_oracle

CFG = MappingConfig()  # defaults: both_ends_zero, y 1..10


def _weight_map(arrays: dict[str, np.ndarray]) -> TensorMap:
    return TensorMap({f"{k}.weight": np.asarray(v, np.float32) for k, v in arrays.items()})


def _mapped(signal: str, deltas, stats: DeltaStats, cfg: MappingConfig = CFG) -> np.ndarray:
    """Each update's ``signal`` score: the importance of a one-row [1, k] matrix.

    Under both_ends_zero an update at or below epsilon is also counted as a
    zero, so it scores 2 * y_min.
    """
    row = np.reshape(np.asarray(deltas, dtype=np.float64), (1, -1))
    return importances("m", row, [(replace(cfg, signal=signal), stats)])[0]


# every update above epsilon clamps to the median and scores y_min = 1 exactly,
# so a both_ends_zero score is the zero-update count / slices + 1
_FLAT = DeltaStats(5e-31, 1e-30, 1e-30, zero_count=0)


def _zero_counts(delta, zero_epsilon: float = 0.0, slices: int = 1) -> np.ndarray:
    """Per-channel zero-update count divided by ``slices``, read off ``importances``."""
    cfg = MappingConfig(zero_epsilon=zero_epsilon, slices=slices)
    return importances("m", delta, [(cfg, _FLAT)])[0] - 1.0


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

    def test_overflowing_update_of_finite_weights_rejected(self):
        pre = _weight_map({"m": [[0.0, -3e38]], "n": [[1.0, 2.0]]})
        post = _weight_map({"m": [[1.0, 3e38]], "n": [[1.0, 2.0]]})
        for fn in (compute_delta, lambda a, b: importance_all(a, b, MappingConfig())):
            with pytest.raises(ValueError, match="weight update in 'm.weight' overflows float32"):
                fn(pre, post)


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
    )


@pytest.mark.parametrize(
    "call, message",
    [(lambda: global_delta_stats(TensorMap()), "deltas map is empty"),
     (lambda: importances("m", np.ones(4), [(CFG, _FLAT)]),
      r"weight_delta must be a \[out, in\] matrix"),
     (lambda: importances_to_map({}, CFG), "no importance vectors to save")],
    ids=["stats-of-no-deltas", "importances-1d-delta",
         "no-scores-to-save"],
)
def test_malformed_argument_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestGlobalStats:
    def test_sort_and_index_oracle(self):
        deltas = _weight_map({"m": np.array([[0.0, 1.0], [2.0, 3.0]])})
        stats = global_delta_stats(deltas, zero_epsilon=0.0)
        assert stats.min_positive == 1.0
        assert stats.median_positive == 2.0
        assert stats.max == 3.0
        assert stats.zero_count == 1

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

    def test_peak_memory_holds_the_positives_twice(self):
        # the positives of every module and their pooled copy, plus the largest
        # module's mask and np.compress's int64 index: no copy of every update
        rng = np.random.default_rng(35)
        deltas = TensorMap()
        for name, shape in (("a", (512, 512)), ("b", (2048, 512)), ("c", (512, 2048))):
            values = rng.lognormal(np.log(1e-3), 1.0, shape).astype(np.float32)
            values[rng.random(shape) < 0.3] = 0.0
            deltas[f"{name}.weight"] = values
        arrays = [deltas[n] for n in deltas.names()]
        positive_bytes = sum(np.count_nonzero(a) * a.itemsize for a in arrays)
        bound = 2 * positive_bytes + 9 * max(a.size for a in arrays)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            global_delta_stats(deltas)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / 2**20, bound / 2**20)

    def test_min_including_zeros(self):
        with_zeros = DeltaStats(1.0, 2.0, 3.0, zero_count=1)
        without = DeltaStats(1.0, 2.0, 3.0, zero_count=0)
        assert with_zeros.min_including_zeros == 0.0
        assert without.min_including_zeros == 1.0


class TestMappings:
    # stats with zeros present, so the no-zero-handling left anchor is 0
    ST = DeltaStats(min_positive=0.5, median_positive=2.0, max=6.0, zero_count=1)
    # stats for the zero-excluded variant example
    ST2 = DeltaStats(min_positive=1.0, median_positive=3.0, max=7.0, zero_count=2)

    def test_both_ends_endpoint_identities(self):
        ends = [self.ST.median_positive, self.ST.max]
        assert _mapped("both_ends", ends, self.ST).tolist() == [1.0, 10.0]

    def test_both_ends_right_branch_hand_value(self):
        # 1 + 9 * ((4-2)/(6-2))^2
        assert _mapped("both_ends", 4.0, self.ST)[0] == pytest.approx(3.25, abs=1e-12)

    def test_both_ends_zero_at_zero(self):
        # y_min, times (1 + 1) for the one zero update of the column
        assert _mapped("both_ends_zero", 0.0, self.ST2)[0] == 2.0

    def test_both_ends_zero_at_min_positive(self):
        assert _mapped("both_ends_zero", self.ST2.min_positive, self.ST2)[0] == pytest.approx(
            10.0, abs=1e-9
        )

    def test_both_ends_zero_left_branch_hand_value(self):
        # 1 + 9 * ((3-2)/(3-1))^2
        assert _mapped("both_ends_zero", 2.0, self.ST2)[0] == pytest.approx(3.25, abs=1e-12)

    def test_mid_reflects_endpoints(self):
        ends = [self.ST.median_positive, self.ST.max]
        assert _mapped("mid", ends, self.ST).tolist() == [10.0, 1.0]

    def test_mid_reflects_hand_value(self):
        assert _mapped("mid", 4.0, self.ST)[0] == pytest.approx(7.75, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reflection_identity(self, seed):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng)
        deltas = rng.uniform(0, stats.max, size=200)
        total = _mapped("mid", deltas, stats) + _mapped("both_ends", deltas, stats)
        assert np.abs(total - (CFG.y_min + CFG.y_max)).max() < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_stay_in_range(self, seed):
        rng = np.random.default_rng(100 + seed)
        stats = _random_stats(rng)
        deltas = rng.uniform(0, stats.max, size=500)
        for signal in ("both_ends", "both_ends_zero", "mid"):
            vals = _mapped(signal, deltas, stats)
            assert (vals >= CFG.y_min - 1e-12).all()
            assert (vals <= CFG.y_max + 1e-12).all()

    def test_monotone_on_both_branches(self):
        stats = self.ST2
        left = np.linspace(stats.min_positive, stats.median_positive, 500)
        right = np.linspace(stats.median_positive, stats.max, 500)
        lv = _mapped("both_ends_zero", left, stats)
        rv = _mapped("both_ends_zero", right, stats)
        assert (np.diff(lv) < 0).all()
        assert (np.diff(rv) > 0).all()

    def test_out_of_range_deltas_clamped(self):
        assert _mapped("both_ends", 100.0, self.ST)[0] == 10.0
        # below epsilon, so also counted as a zero
        assert _mapped("both_ends_zero", -1.0, self.ST2)[0] == 2.0

    def test_collapsed_branch_returns_y_max(self):
        stats = DeltaStats(5.0, 5.0, 5.0, zero_count=2)
        assert _mapped("both_ends_zero", [5.0, 0.0], stats).tolist() == [10.0, 2.0]

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
        for field in ("y_max", "zero_epsilon"):
            with pytest.raises(ValueError, match="finite"):
                MappingConfig(**{field: math.inf})

    def test_default_output_anchors(self):
        assert CFG.y_min == 1.0
        assert CFG.y_max == 10.0


class TestZeroCounting:
    def test_all_zero_matrix(self):
        assert np.array_equal(_zero_counts(np.zeros((4, 3), np.float32)), [4.0, 4.0, 4.0])

    def test_no_zeros(self):
        assert np.array_equal(_zero_counts(np.ones((4, 3), np.float32)), [0.0, 0.0, 0.0])

    def test_two_band_hand_count(self):
        delta = np.ones((4, 2), np.float32)
        delta[0, 0] = 0.0
        delta[1, 0] = 0.0
        assert np.array_equal(_zero_counts(delta, slices=2), [1.0, 0.0])

    def test_slices_beyond_rows_rejected(self):
        with pytest.raises(ValueError, match=r"'m': slices must be in \[1, 4\]"):
            _zero_counts(np.zeros((4, 2), np.float32), slices=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_slice_equals_exhaustive_count(self, seed):
        rng = np.random.default_rng(seed)
        delta = rng.choice([0.0, 1.0], size=(8, 8)).astype(np.float32)
        got = _zero_counts(delta, slices=1)
        for c in range(8):
            assert got[c] == sum(1 for r in range(8) if delta[r, c] == 0)

    def test_threshold_compared_in_float64_like_global_stats(self):
        # float32(0.1) lies above the float64 epsilon 0.1, so neither counts it as zero
        delta = np.float32([[0.1], [0.2]])
        assert np.array_equal(_zero_counts(delta, 0.1), [0.0])
        stats = global_delta_stats(_weight_map({"a": delta}), zero_epsilon=0.1)
        assert stats.zero_count == 0

    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    def test_even_bands_scale_back_to_total(self, slices):
        rng = np.random.default_rng(slices)
        delta = rng.choice([0.0, 1.0], size=(8, 8)).astype(np.float32)
        mean_counts = _zero_counts(delta, slices=slices)
        totals = _zero_counts(delta, slices=1)
        assert np.allclose(mean_counts * slices, totals)


class TestImportance:
    ST = DeltaStats(min_positive=0.5, median_positive=1.0, max=2.0, zero_count=2)

    def test_worked_column_example(self):
        # column [0, mid, max, 0]: mean f = (1+1+10+1)/4, Z = 2, I = 3.25 * 3
        col = np.array([[0.0], [1.0], [2.0], [0.0]])
        scores = importances("m", col, [(CFG, self.ST)])[0]
        assert scores[0] == pytest.approx(9.75, abs=1e-12)

    def test_all_zero_column_forced_value(self):
        col = np.zeros((5, 1))
        scores = importances("m", col, [(CFG, self.ST)])[0]
        assert scores[0] == pytest.approx(6.0, abs=1e-12)  # y_min * (N + 1)

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
        got = importances("m", delta, [(cfg, stats)])[0]
        want = signals_oracle.loop_importance(delta.astype(np.float32).astype(np.float64), stats, cfg)
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
            "both_ends": lambda: signals_oracle.map_both_ends(d, stats, cfg).mean(axis=0),
            "mid": lambda: signals_oracle.map_mid(d, stats, cfg).mean(axis=0),
            "both_ends_zero": lambda: signals_oracle.map_both_ends_zero(d, stats, cfg).mean(axis=0)
            * (signals_oracle.count_zeros_per_channel(d, 0.0, 2) + 1.0),
        }[signal]()
        got = importances("m", delta, [(cfg, stats)])[0]
        assert got.tobytes() == np.maximum(whole, 1e-12).tobytes()

    @pytest.mark.parametrize("slices", [1, 2, 4])
    def test_sliced_zero_counts_match_oracle(self, slices):
        rng = np.random.default_rng(slices + 10)
        delta = rng.uniform(0, 1, size=(8, 8))
        delta[rng.uniform(size=(8, 8)) < 0.4] = 0.0
        stats = global_delta_stats(_weight_map({"m": delta}))
        cfg = MappingConfig(slices=slices)
        got = importances("m", delta, [(cfg, stats)])[0]
        want = signals_oracle.loop_importance(delta.astype(np.float32).astype(np.float64), stats, cfg)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_activation_signals_need_calibration(self):
        with pytest.raises(ValueError, match="calibration"):
            importances("m", np.ones((4, 4)), [(MappingConfig(signal="activation_sq"), self.ST)])
        with pytest.raises(ValueError, match="calibration"):
            importances("m", np.ones((4, 4)), [(MappingConfig(multiply_activation=True), self.ST)])

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
            got = importances("m", delta, [(cfg, stats)], calib)[0]
            want = signals_oracle.loop_importance(
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
                got = importances(module, ones, [(cfg, self.ST)], calib)[0]
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
            importances("m", np.ones((4, 4)), [(cfg, self.ST)], CalibrationSet(inputs={"m": x}))[0]

    def test_scores_strictly_positive_even_for_dead_channels(self):
        stats = self.ST
        cfg = MappingConfig(signal="magnitude")
        scores = importances("m", np.zeros((4, 4)), [(cfg, stats)])[0]
        assert scores.dtype == np.float64
        assert (scores > 0).all()


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
        assert imps["layer0"].shape == (6,)
        assert imps["layer1"].shape == (10,)
        for scores in imps.values():
            assert np.isfinite(scores).all()
            assert (scores > 0).all()

    def test_zero_fraction_is_reported(self):
        pre, post = self._trained_pair()
        deltas = compute_delta(pre, post)
        stats = global_delta_stats(deltas)
        # report-only: real fine-tuned models exceed 1%, the toy run may not
        total = sum(deltas[name].size for name in deltas.names())
        assert stats.zero_count == _sorted_stats_oracle(deltas).zero_count
        assert 0.0 <= stats.zero_count / total <= 1.0

    def test_container_round_trip_preserves_scores_and_meta(self):
        pre, post = self._trained_pair()
        cfg = MappingConfig(slices=2)
        imps = importance_all(pre, post, cfg)
        tmap = importances_to_map(imps, cfg)
        assert tmap.meta["signal"] == "both_ends_zero"
        assert tmap.meta["y_min"] == "1.0"
        assert tmap.meta["y_max"] == "10.0"
        assert tmap.meta["slices"] == "2"
        loaded = importances_from_map(tmap)
        assert sorted(loaded) == sorted(imps)
        for name in imps:
            f32 = imps[name].astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded[name], f32)

    def test_every_config_field_round_trips_through_meta(self):
        cfg = MappingConfig(
            signal="mid", y_min=2.0, zero_epsilon=1e-4, slices=3, multiply_activation=True
        )
        tmap = importances_to_map({"a": np.ones(3)}, cfg)
        assert config_from_text(MappingConfig, tmap.meta) == cfg
        assert importances_from_map(tmap)["a"].tolist() == [1.0, 1.0, 1.0]

    def test_scores_beyond_float32_name_the_module(self):
        scores = {"a": np.ones(3), "b": np.array([1.0, 1e39, 2.0])}
        with pytest.raises(ValueError, match="'b'.*float32"):
            importances_to_map(scores, MappingConfig())

    @pytest.mark.parametrize("signal", ["both_ends", "both_ends_zero", "mid"])
    def test_scores_beyond_float64_name_the_module(self, signal):
        pre, post = self._trained_pair()
        with pytest.raises(ValueError, match="'layer0'.* not finite"):
            importance_all(pre, post, MappingConfig(signal=signal, y_max=1e308))

    def test_hyphenated_signal_names_read_as_underscores(self):
        assert MappingConfig(signal="both-ends-zero") == MappingConfig()
        with pytest.raises(ValueError, match="unknown signal"):
            MappingConfig(signal="both ends")

    def test_default_meta_text_is_unchanged(self):
        assert importances_to_map({"a": np.ones(3)}, MappingConfig()).meta == {
            "signal": "both_ends_zero",
            "y_min": "1.0",
            "y_max": "10.0",
            "zero_epsilon": "0.0",
            "slices": "1",
            "multiply_activation": "false",
        }

    def test_missing_meta_keeps_defaults_and_extra_keys_are_ignored(self):
        tmap = TensorMap({"a.importance": np.ones(3, np.float32)}, meta={"slices": "2", "x": "y"})
        assert config_from_text(MappingConfig, tmap.meta) == MappingConfig(slices=2)
        assert sorted(importances_from_map(tmap)) == ["a"]

    @pytest.mark.parametrize("key, value", [("slices", "x"), ("signal", "nope"), ("y_min", "-1")])
    def test_malformed_meta_rejected_on_load(self, key, value):
        tmap = TensorMap({"a.importance": np.ones(3, np.float32)}, meta={key: value})
        with pytest.raises(ValueError, match=key):
            importances_from_map(tmap)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected_on_load(self, bad):
        tmap = TensorMap(
            {"a.importance": np.ones(3, np.float32), "b.importance": np.ones(4, np.float32)},
            meta={"signal": "magnitude"},
        )
        tmap["b.importance"][2] = bad
        with pytest.raises(ValueError, match=r"^tensor 'b\.importance' contains non-finite"):
            importances_from_map(tmap)


UPDATE_SIGNALS = ["magnitude", "both_ends", "both_ends_zero", "mid"]
# the reference mappings of signals_oracle, each named after its signal
MAPPINGS = ["map_both_ends", "map_both_ends_zero", "map_mid"]


@st.composite
def _anchor_stats(draw):
    """Float32-exact anchors lo <= mid <= hi; either branch may collapse."""
    lo = float(np.float32(draw(st.floats(1e-4, 1.0))))
    mid = float(np.float32(lo + draw(st.sampled_from([0.0, 1e-3, 0.3, 1.0]))))
    hi = float(np.float32(mid + draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0]))))
    return DeltaStats(lo, mid, hi, zero_count=draw(st.sampled_from([0, 3])))


def _update_matrix(rng, shape, stats, epsilon):
    """Updates drawn from zeros, the anchors, the threshold and values around them."""
    lo, mid, hi = stats.min_positive, stats.median_positive, stats.max
    pool = np.float32([0.0, epsilon, epsilon / 2, lo, mid, hi, 2 * hi, (lo + mid) / 2])
    picked = pool[rng.integers(0, pool.size, shape)]
    spread = rng.uniform(0.0, 1.2 * hi, shape).astype(np.float32)
    return np.where(rng.random(shape) < 0.5, picked, spread)


class TestTwoBranchOracle:
    """Outputs equal the frozen two-branch implementation byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        signal=st.sampled_from(UPDATE_SIGNALS),
        rows=st.integers(1, 12),
        width=st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 140)),
        stats=_anchor_stats(),
        from_data=st.booleans(),
        y_min=st.floats(0.01, 5.0),
        y_span=st.floats(0.01, 20.0),
        epsilon=st.sampled_from([0.0, 1e-5, 0.05]),
        slices=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_importance_matches_oracle(
        self, signal, rows, width, stats, from_data, y_min, y_span, epsilon, slices, seed
    ):
        delta = _update_matrix(np.random.default_rng(seed), (rows, width), stats, epsilon)
        if from_data:
            deltas = _weight_map({"m": delta})
            try:
                stats = global_delta_stats(deltas, epsilon)
            except DegenerateDeltasError:
                pass
            else:
                assert stats == signals_oracle.global_delta_stats(deltas, epsilon)
        cfg = MappingConfig(
            signal=signal, y_min=y_min, y_max=y_min + y_span, zero_epsilon=epsilon,
            slices=min(slices, rows),
        )
        got = importances("m", delta, [(cfg, stats)])[0]
        assert got.tobytes() == signals_oracle.update_importance(delta, stats, cfg).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 70)), min_size=1, max_size=3),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        signal=st.sampled_from(UPDATE_SIGNALS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_importance_all_matches_oracle(self, shapes, zero_fraction, signal, seed):
        rng = np.random.default_rng(seed)
        pre, post = TensorMap(), TensorMap()
        for i, shape in enumerate(shapes):
            base = rng.standard_normal(shape)
            update = rng.lognormal(-3.0, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
            update[rng.random(shape) < zero_fraction] = 0.0
            pre[f"m{i}.weight"] = base.astype(np.float32)
            post[f"m{i}.weight"] = (base + update).astype(np.float32)
        deltas = compute_delta(pre, post)
        want_deltas = signals_oracle.compute_delta(pre, post)
        assert deltas.names() == want_deltas.names()
        for name in deltas.names():
            assert deltas[name].dtype == np.float32
            assert deltas[name].tobytes() == want_deltas[name].tobytes()
        try:
            stats = signals_oracle.global_delta_stats(want_deltas)
        except DegenerateDeltasError:
            with pytest.raises(DegenerateDeltasError):
                importance_all(pre, post, MappingConfig(signal=signal))
            return
        assert global_delta_stats(deltas) == stats
        cfg = MappingConfig(signal=signal)
        got = importance_all(pre, post, cfg)
        for module in want_deltas.modules("weight"):
            want = signals_oracle.update_importance(want_deltas[f"{module}.weight"], stats, cfg)
            assert got[module].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", MAPPINGS)
    @pytest.mark.parametrize("kind", [float, np.float32, np.float64, np.array])
    def test_scalar_and_0d_inputs_return_floats(self, name, kind):
        """A scalar or 0-d update, scored as a [1, 1] matrix, gives the oracle's float."""
        stats = DeltaStats(0.5, 2.0, 6.0, zero_count=1)
        cfg = MappingConfig(y_min=0.1, y_max=0.3)
        signal = name.removeprefix("map_")
        for value in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0):
            want = getattr(signals_oracle, name)(kind(value), stats, cfg)
            if signal == "both_ends_zero" and value <= cfg.zero_epsilon:
                want *= 2.0  # the update is also counted as a zero
            assert _mapped(signal, kind(value), stats, cfg).tolist() == [want]

    @pytest.mark.parametrize("anchors", [(2.0, 2.0, 6.0), (0.5, 2.0, 2.0), (2.0, 2.0, 2.0)],
                             ids=["mid=lo<hi", "lo<mid=hi", "lo=mid=hi"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["no-zeros", "zeros"])
    def test_collapsed_branches_match_oracle(self, anchors, zeros):
        lo, mid, hi = anchors
        stats = DeltaStats(lo, mid, hi, zero_count=3 if zeros else 0)
        values = [0.5 * lo, lo, (lo + mid) / 2, mid, (mid + hi) / 2, hi, 2 * hi]
        extra = [0.0] * 5 if zeros else [lo, mid, hi, mid, lo]
        delta = np.float32(values + extra).reshape(4, 3)
        for epsilon in (0.0, 0.25 * lo):
            cfg = MappingConfig(zero_epsilon=epsilon)
            # no value is at or below epsilon, so each scores its mapping alone
            row = np.array([values])
            for name in MAPPINGS:
                want = getattr(signals_oracle, name)(row, stats, cfg)
                got = _mapped(name.removeprefix("map_"), row, stats, cfg)
                assert got.tobytes() == want.ravel().tobytes()
            for signal in UPDATE_SIGNALS:
                cfg = MappingConfig(signal=signal, zero_epsilon=epsilon, slices=2)
                want = signals_oracle.update_importance(delta, stats, cfg)
                assert importances("m", delta, [(cfg, stats)])[0].tobytes() == want.tobytes()
