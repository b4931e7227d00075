"""Toy model: init, forward capture, training, gradient checking."""

import copy
import os
import subprocess
import warnings

import numpy as np
import pytest

from cli_runner import CLI
from deltaquant import toy
from deltaquant.container import save_container
from deltaquant.toy import (
    TrainConfig,
    TrainingDivergedError,
    Workspace,
    _teacher_for,
    checkpoint_map,
    forward,
    gradients,
    init_model,
    model_from_map,
    train,
)
from gradient_check import finite_diff_check
import train_oracle


def _model_bytes(model) -> bytes:
    return b"".join(l.weight.tobytes() + l.bias.tobytes() for l in model.layers)


def _loop_forward(model, x):
    """Straight-line reference: nested-loop matmuls with a rectifier."""
    acts = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(model.layers):
        w = layer.weight.astype(np.float64)
        b = layer.bias.astype(np.float64)
        out = np.zeros((acts.shape[0], w.shape[0]))
        for r in range(acts.shape[0]):
            for o in range(w.shape[0]):
                s = b[o]
                for c in range(w.shape[1]):
                    s += acts[r, c] * w[o, c]
                out[r, o] = s
        acts = np.maximum(out, 0.0) if i < len(model.layers) - 1 else out
    return acts


class TestInit:
    def test_deterministic(self):
        m1 = init_model([4, 4], seed=7)
        m2 = init_model([4, 4], seed=7)
        assert _model_bytes(m1) == _model_bytes(m2)

    def test_single_dim_rejected(self):
        with pytest.raises(ValueError):
            init_model([2], seed=0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            init_model([4, 0, 4], seed=0)

    def test_weight_std_tracks_fan_in(self):
        model = init_model([8, 16, 4], seed=1)
        for layer in model.layers:
            expected = 1.0 / np.sqrt(layer.weight.shape[1])
            std = layer.weight.std()
            assert abs(std - expected) / expected < 0.30

    def test_layer_shapes_chain(self):
        model = init_model([3, 5, 7, 2], seed=0)
        assert [l.weight.shape for l in model.layers] == [(5, 3), (7, 5), (2, 7)]


class TestForward:
    def test_zero_inputs_zero_biases(self):
        model = init_model([4, 6, 3], seed=0)
        out, calib = forward(model, np.zeros((5, 4), np.float32))
        assert not out.any()
        for mat in calib.inputs.values():
            assert not mat.any()

    def test_identity_layer(self):
        model = init_model([4, 4], seed=0)
        model.layers[0].weight = np.eye(4, dtype=np.float32)
        model.layers[0].bias = np.zeros(4, np.float32)
        x = np.random.default_rng(1).standard_normal((6, 4), dtype=np.float32)
        out, _ = forward(model, x)
        assert np.array_equal(out, x)

    def test_matches_loop_oracle(self):
        model = init_model([5, 7, 3], seed=3)
        x = np.random.default_rng(5).standard_normal((5, 5), dtype=np.float32)
        out, _ = forward(model, x)
        ref = _loop_forward(model, x)
        assert np.abs(out - ref).max() < 1e-5

    def test_shape_mismatch(self):
        model = init_model([4, 4], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 5), np.float32))

    def test_capture_is_exact_prelayer_input(self):
        model = init_model([4, 6, 2], seed=2)
        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, calib = forward(model, x)
        assert np.array_equal(calib.inputs["layer0"], x)
        hidden = np.maximum(x @ model.layers[0].weight.T + model.layers[0].bias, 0)
        assert np.array_equal(calib.inputs["layer1"], hidden)

    def test_capture_does_not_alias_the_batch(self):
        model = init_model([4, 6, 2], seed=2)
        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, calib = forward(model, x)
        before = x.copy()
        x[:] = 0.0
        assert np.array_equal(calib.inputs["layer0"], before)

    @pytest.mark.parametrize("module", ["layer0", "layer1"])
    def test_overflowing_activations_name_the_module(self, module):
        # finite weights whose float32 activations overflow, in the hidden
        # layer or in the output, raise instead of warning
        model = init_model([8, 16, 8], seed=0)
        layer = next(l for l in model.layers if l.name == module)
        layer.weight = np.full_like(layer.weight, 3e38)
        x = np.random.default_rng(1).standard_normal((4, 8), dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"module '{module}' are not finite"):
                forward(model, x)

    def test_capture_reproducible(self):
        model = init_model([4, 6, 2], seed=2)
        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, c1 = forward(model, x)
        _, c2 = forward(model, x)
        for name in c1.inputs:
            assert c1.inputs[name].tobytes() == c2.inputs[name].tobytes()

    def test_calibration_container_round_trip(self, tmp_path):
        model = init_model([4, 6, 2], seed=2)
        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, calib = forward(model, x)
        path = tmp_path / "calib.dqt"
        tmap = calib.to_tensor_map()
        assert tmap.names() == ["layer0.calib_inputs", "layer1.calib_inputs"]
        save_container(tmap, path)
        from deltaquant.container import load_container
        from deltaquant.toy import CalibrationSet

        loaded = CalibrationSet.from_tensor_map(load_container(path))
        assert sorted(loaded.inputs) == ["layer0", "layer1"]
        assert loaded.inputs["layer0"].tobytes() == x.tobytes()

    def test_older_statistics_tensors_ignored_on_load(self):
        from deltaquant.toy import CalibrationSet

        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, calib = forward(init_model([4, 6, 2], seed=2), x)
        tmap = calib.to_tensor_map()
        tmap["layer0.mean_abs"] = np.full(3, np.nan, np.float32)
        tmap["layer1.mean_square"] = np.ones(6, np.float32)
        loaded = CalibrationSet.from_tensor_map(tmap)
        assert sorted(loaded.inputs) == ["layer0", "layer1"]
        for name, rows in calib.inputs.items():
            assert loaded.inputs[name].tobytes() == rows.tobytes()

    def test_non_matrix_inputs_rejected_on_load(self):
        from deltaquant.toy import CalibrationSet

        x = np.random.default_rng(0).standard_normal((8, 4), dtype=np.float32)
        _, calib = forward(init_model([4, 6, 2], seed=2), x)
        tmap = calib.to_tensor_map()
        tmap["layer1.calib_inputs"] = np.ones(6, np.float32)
        with pytest.raises(ValueError, match=r"^tensor 'layer1\.calib_inputs' is 1-D float32, "):
            CalibrationSet.from_tensor_map(tmap)

class TestTrain:
    def test_tiny_learning_rate_keeps_weights(self):
        # small enough that every float32 update underflows to zero
        model = init_model([4, 4], seed=0)
        _, snaps = train(model, TrainConfig(steps=5, learning_rate=1e-50, snapshot_every=5))
        first, last = snaps[0][1], snaps[-1][1]
        for name in first.names():
            assert first[name].tobytes() == last[name].tobytes()

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    def test_infinite_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=float("inf"))

    def test_learning_rate_beyond_float32_rejected(self):
        # training multiplies by np.float32(learning_rate), which is inf here
        with pytest.raises(ValueError, match="finite in float32"):
            TrainConfig(learning_rate=1e39)
        TrainConfig(learning_rate=3e38)

    def test_last_update_divergence_names_the_tensor(self):
        # the loss of step 2 is about 1e57, finite; its update overflows
        # float32 and no later loss sees it
        model = init_model([8, 16, 8], seed=0)
        with pytest.raises(
            TrainingDivergedError, match=r"^non-finite tensor 'layer\d\.(weight|bias)' at step 2$"
        ) as info:
            train(model, TrainConfig(steps=2, learning_rate=1e15))
        assert info.value.step == 2

    def test_loss_decreases(self):
        model = init_model([8, 16, 8], seed=0)
        cfg = TrainConfig(steps=200, data_seed=1)
        final, snaps = train(model, cfg)
        teacher = _teacher_for(model, cfg.data_seed)
        x = np.random.default_rng(123).standard_normal((128, 8), dtype=np.float32)
        target, _ = forward(teacher, x)
        loss_before, _ = gradients(model, x, target)
        loss_after, _ = gradients(final, x, target)
        assert loss_after < loss_before

    def test_snapshots_cover_start_and_end(self):
        model = init_model([4, 6, 4], seed=1)
        cfg = TrainConfig(steps=250, snapshot_every=100)
        _, snaps = train(model, cfg)
        assert [s for s, _ in snaps] == sorted(cfg.snapshot_steps) == [0, 100, 200, 250]

    def test_deterministic_snapshots(self):
        cfg = TrainConfig(steps=50, data_seed=3)
        _, s1 = train(init_model([4, 6, 4], seed=1), cfg)
        _, s2 = train(init_model([4, 6, 4], seed=1), cfg)
        for (st1, m1), (st2, m2) in zip(s1, s2):
            assert st1 == st2 and m1 == m2

    def test_input_model_not_mutated(self):
        # training holds its own copy column-major; the caller's stays row-major
        model = init_model([4, 4], seed=0)
        before = _model_bytes(model)
        train(model, TrainConfig(steps=20))
        assert _model_bytes(model) == before
        assert all(layer.weight.flags.c_contiguous for layer in model.layers)

    def test_divergence_reports_step(self):
        model = init_model([4, 8, 4], seed=0)
        with pytest.raises(TrainingDivergedError, match="step"):
            train(model, TrainConfig(steps=200, learning_rate=1e12))


class TestChunkInvariance:
    """Training draws inputs and runs the teacher once per chunk of steps.

    A chunk of one step is the per-step loop; every snapshot must keep its
    bits under the default chunk, including a short last chunk. A BLAS whose
    float32 GEMM gives a many-row product other row bits than a batch-row
    one fails here.
    """

    @pytest.mark.parametrize("steps,every", [(2000, 200), (7, 3), (23, 5)])
    def test_snapshots_independent_of_chunk(self, monkeypatch, steps, every):
        model = init_model([64, 256, 64], seed=0)
        cfg = TrainConfig(steps=steps, snapshot_every=every)
        _, chunked = train(model, cfg)
        monkeypatch.setattr(toy, "_CHUNK_STEPS", 1)
        _, per_step = train(model, cfg)
        assert [s for s, _ in chunked] == [s for s, _ in per_step]
        for (_, a), (_, b) in zip(chunked, per_step):
            assert a.meta == b.meta
            assert sorted(a.names()) == sorted(b.names())
            for name in a.names():
                assert a[name].tobytes() == b[name].tobytes(), name

    def test_divergence_step_independent_of_chunk(self, monkeypatch):
        model = init_model([4, 8, 4], seed=0)
        steps = []
        for chunk in (toy._CHUNK_STEPS, 1):
            monkeypatch.setattr(toy, "_CHUNK_STEPS", chunk)
            with pytest.raises(TrainingDivergedError) as info:
                train(model, TrainConfig(steps=200, learning_rate=1e12))
            steps.append(info.value.step)
        assert steps[0] == steps[1]


class TestAgainstOracle:
    """``train`` writes every step into one aligned workspace; ``train_oracle``
    allocates every array afresh. Both run the same operations on operands of
    the same memory order, so BLAS gets the same calls and the bits must match.
    """

    @pytest.mark.parametrize(
        "dims,cfg,chunk",
        [
            ([16, 32, 16], TrainConfig(steps=120, snapshot_every=40), None),
            ([5, 7, 3, 4], TrainConfig(steps=57, batch_size=3, snapshot_every=20), None),
            ([4, 3], TrainConfig(steps=23, batch_size=1, snapshot_every=10), None),
            ([64, 256, 64], TrainConfig(steps=45, batch_size=7, snapshot_every=20), None),
            ([5, 7, 3, 4], TrainConfig(steps=57, batch_size=3, snapshot_every=20), 4),
        ],
        ids=["16-32-16", "5-7-3-4", "4-3", "64-256-64", "5-7-3-4-chunk4"],
    )
    def test_snapshots_match_oracle(self, monkeypatch, dims, cfg, chunk):
        if chunk:
            monkeypatch.setattr(toy, "_CHUNK_STEPS", chunk)
        model = init_model(dims, seed=0)
        final, snaps = train(model, cfg)
        want_final, want = train_oracle.train(model, cfg)
        assert [s for s, _ in snaps] == [s for s, _ in want]
        for (_, got), (_, ref) in zip(snaps, want):
            assert got.meta == ref.meta and got.names() == ref.names()
            for name in got.names():
                assert got[name].tobytes() == ref[name].tobytes(), name
        assert _model_bytes(final) == _model_bytes(want_final)

    @pytest.mark.parametrize(
        "dims,cfg",
        [([4, 8, 4], TrainConfig(steps=200, learning_rate=1e12)),
         ([8, 16, 8], TrainConfig(steps=2, learning_rate=1e15))],
        ids=["loss", "last-update"],
    )
    def test_divergence_matches_oracle(self, dims, cfg):
        model = init_model(dims, seed=0)
        with pytest.raises(TrainingDivergedError) as got:
            train(model, cfg)
        with pytest.raises(TrainingDivergedError) as want:
            train_oracle.train(model, cfg)
        assert (got.value.step, str(got.value)) == (want.value.step, str(want.value))


def _fortran_copy(model):
    fortran = copy.deepcopy(model)
    for layer in fortran.layers:
        layer.weight = np.asfortranarray(layer.weight)
    return fortran


class TestMemoryLayout:
    """Training holds the weights column-major; what it hands out is row-major.

    Only values are compared across layouts: BLAS may pick another kernel
    for the other transpose, and with it other last bits.
    """

    def test_snapshots_are_row_major_float32(self):
        _, snaps = train(init_model([16, 32, 16], seed=0), TrainConfig(steps=20, snapshot_every=10))
        assert [step for step, _ in snaps] == [0, 10, 20]
        for _, snap in snaps:
            for name in snap.names():
                assert snap[name].dtype == np.float32, name
                assert snap[name].flags.c_contiguous, name

    def test_trained_model_is_aligned_column_major(self):
        final, _ = train(init_model([5, 7, 3, 4], seed=0), TrainConfig(steps=12, batch_size=3))
        for layer in final.layers:
            assert layer.weight.flags.f_contiguous, layer.name
            assert layer.weight.ctypes.data % 64 == 0, layer.name
            assert layer.bias.ctypes.data % 64 == 0, layer.name

    def test_gradients_keep_their_bits_in_a_used_workspace(self):
        model = _fortran_copy(init_model([16, 32, 16], seed=3))
        rng = np.random.default_rng(4)
        x, t, other = (rng.standard_normal((24, 16), dtype=np.float32) for _ in range(3))
        loss, grads = gradients(model, x, t)
        work = Workspace(model.dims, len(x))
        gradients(model, other, x, work)  # leaves another batch's values in every array
        got_loss, got = gradients(model, x, t, work)
        assert got_loss == loss and got.keys() == grads.keys()
        for name, pair in grads.items():
            for a, b in zip(got[name], pair):
                assert a.flags.f_contiguous == b.flags.f_contiguous
                assert a.tobytes() == b.tobytes(), name

    def test_gradients_agree_across_memory_order(self):
        model = init_model([16, 32, 16], seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, 16), dtype=np.float32)
        t = rng.standard_normal((64, 16), dtype=np.float32)
        loss_c, grads_c = gradients(model, x, t)
        loss_f, grads_f = gradients(_fortran_copy(model), x, t)
        np.testing.assert_allclose(loss_f, loss_c, rtol=1e-6)
        assert grads_f.keys() == grads_c.keys()
        for name, pair in grads_c.items():
            for got, want in zip(grads_f[name], pair):
                # an entry summed from cancelling float32 terms keeps the
                # absolute error of its largest terms, not a relative one
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())

    def test_gradient_check_passes_on_column_major_weights(self):
        model = _fortran_copy(init_model([6, 10, 4], seed=7))
        x = np.random.default_rng(11).standard_normal((24, 6), dtype=np.float32)
        t = np.random.default_rng(12).standard_normal((24, 4), dtype=np.float32)
        report = finite_diff_check(model, x, t)
        assert report.passed, report

    def test_train_toy_outputs_independent_of_blas_threads(self, tmp_path):
        files = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads_{threads or 'default'}"
            res = subprocess.run(
                CLI + ["train-toy", "--dims", "64,256,64", "--steps", "200", "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, res.stderr
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert "calib.dqt" in files[0] and "ckpt_step000200.dqt" in files[0]
        assert files[0] == files[1]


class TestCheckpointMaps:
    def test_round_trip(self):
        model = init_model([4, 6, 2], seed=5)
        rebuilt = model_from_map(checkpoint_map(model, step=0))
        assert _model_bytes(rebuilt) == _model_bytes(model)
        assert rebuilt.dims == model.dims

    def test_meta_carries_dims_seed_step(self):
        tmap = checkpoint_map(init_model([4, 4], seed=9), step=17)
        assert tmap.meta["dims"] == "4,4"
        assert tmap.meta["seed"] == "9"
        assert tmap.meta["step"] == "17"


class TestFiniteDiff:
    def test_linear_model_quadratic_loss(self):
        model = init_model([6, 4], seed=0)
        x = np.random.default_rng(2).standard_normal((32, 6), dtype=np.float32)
        t = np.random.default_rng(3).standard_normal((32, 4), dtype=np.float32)
        report = finite_diff_check(model, x, t)
        assert report.passed, report
        assert report.max_rel_error < 1e-3

    def test_zero_inputs_zero_gradients(self):
        model = init_model([5, 7, 3], seed=1)
        report = finite_diff_check(model, np.zeros((8, 5), np.float32))
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_corrupted_gradient_fails(self):
        model = init_model([5, 7, 3], seed=1)
        x = np.random.default_rng(4).standard_normal((16, 5), dtype=np.float32)
        t = np.random.default_rng(5).standard_normal((16, 3), dtype=np.float32)

        def corrupted(m, inputs, targets):
            loss, grads = gradients(m, inputs, targets)
            dw, db = grads["layer0"]
            grads["layer0"] = (dw * 2.0, db)
            return loss, grads

        report = finite_diff_check(model, x, t, grad_fn=corrupted)
        assert not report.passed

    def test_two_layer_relu_model(self):
        model = init_model([6, 10, 4], seed=7)
        x = np.random.default_rng(11).standard_normal((24, 6), dtype=np.float32)
        t = np.random.default_rng(12).standard_normal((24, 4), dtype=np.float32)
        report = finite_diff_check(model, x, t)
        assert report.passed, report

    def test_samples_at_least_fifty(self):
        model = init_model([6, 10, 4], seed=7)
        x = np.random.default_rng(11).standard_normal((8, 6), dtype=np.float32)
        report = finite_diff_check(model, x)
        assert report.num_checked >= 50

    def test_large_model_rejected(self):
        model = init_model([64, 64], seed=0)
        with pytest.raises(ValueError, match="parameters"):
            finite_diff_check(model, np.zeros((4, 64), np.float32))
