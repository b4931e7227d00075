"""Quantization loss, scale normalization, alpha grid search."""

import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaquant import quant
from deltaquant.quant import QuantConfig, dequantize, rtn_quantize
from deltaquant.search import (
    ModuleLoss,
    SearchConfig,
    quant_loss,
    quantize_model,
    report_lines,
    search_scale,
)
from deltaquant.signals import MappingConfig, importance_all
from deltaquant.toy import TrainConfig, forward, init_model, train
from quant_oracle import oracle_reconstruct

QCFG = QuantConfig(bits=3, group_size=4)


def _loop_quant_loss(weight, x, scale, bits, group_size):
    """Scalar re-implementation of the scaled quantization loss.

    Reconstructs through the scalar quantizer oracle, then takes the mean
    squared output difference over all calibration rows and output channels.
    """
    recon = oracle_reconstruct(weight, scale, bits, group_size)
    out_f, in_f = weight.shape
    total = 0.0
    n = x.shape[0]
    for row in range(n):
        for o in range(out_f):
            acc = 0.0
            for c in range(in_f):
                acc += float(x[row, c]) * (float(recon[o, c]) - float(weight[o, c]))
            total += acc * acc
    return total / (n * out_f)


class TestQuantLoss:
    def test_identity_scale_equals_plain_rtn(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        ones = np.ones(8, np.float32)
        loss = quant_loss(w, x, ones, QCFG)
        recon = dequantize(rtn_quantize(w, QCFG))
        assert loss == ModuleLoss(w, x)(recon)
        assert loss == ModuleLoss(w, x).quantized(QCFG)
        err = recon.astype(np.float64) - w.astype(np.float64)
        direct = float(np.mean((x.astype(np.float64) @ err.T) ** 2))
        assert loss == pytest.approx(direct, rel=1e-12)

    def test_exactly_representable_weight_gives_zero_loss(self):
        rng = np.random.default_rng(1)
        # constant groups are stored exactly; scales constant per group keep them constant
        w = np.repeat(rng.standard_normal((4, 2)).astype(np.float32), 4, axis=1)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        assert quant_loss(w, x, np.ones(8, np.float32), QCFG) == 0.0
        group_scale = np.repeat(np.float32([0.5, 2.0]), 4)
        assert quant_loss(w, x, group_scale, QCFG) == 0.0
        # the all-zero weight is exact under any valid scale
        z = np.zeros((4, 8), np.float32)
        any_scale = np.exp(rng.uniform(-1, 1, 8)).astype(np.float32)
        assert quant_loss(z, x, any_scale, QCFG) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        s = np.exp(rng.uniform(-0.7, 0.7, 8)).astype(np.float32)
        got = quant_loss(w, x, s, QCFG)
        want = _loop_quant_loss(w, x, s, bits=3, group_size=4)
        assert got == pytest.approx(want, rel=1e-6)

    def test_non_positive_scale_rejected(self):
        w = np.ones((2, 2), np.float32)
        x = np.ones((2, 2), np.float32)
        with pytest.raises(ValueError, match="positive"):
            quant_loss(w, x, np.array([1.0, -1.0], np.float32), QCFG)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quant_loss(
                np.ones((2, 3), np.float32),
                np.ones((2, 2), np.float32),
                np.ones(3, np.float32),
                QCFG,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_calibration_rejected(self, bad):
        w, x, scores = _instance(0)
        x[3, 5] = bad
        ones = np.ones(8, np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            quant_loss(w, x, ones, QCFG)
        with pytest.raises(ValueError, match="non-finite"):
            ModuleLoss(w, x)
        with pytest.raises(ValueError, match="non-finite"):
            search_scale(ModuleLoss(w, x), scores, SearchConfig(), QCFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_before_any_candidate(self, bad):
        # the weight check names the tensor; the product check of the
        # quantizer would blame a channel scale that is not at fault
        w, x, _ = _instance(0)
        w[1, 2] = bad
        with pytest.raises(ValueError, match="^tensor 'weight' contains non-finite values$"):
            ModuleLoss(w, x)
        with pytest.raises(ValueError, match="^tensor 'layer0.weight' contains non-finite"):
            ModuleLoss(w, x, "layer0")
        with pytest.raises(ValueError, match="^tensor 'weight' contains non-finite values$"):
            quant_loss(w, x, np.ones(8, np.float32), QCFG)

    @pytest.mark.parametrize("shape", [(0, 8), (4, 0), (8,), (2, 2, 2)])
    def test_weight_that_is_not_a_matrix_rejected(self, shape):
        # an empty weight would divide by zero when batching the candidates
        x = np.ones((3, shape[1] if len(shape) == 2 else 8), np.float32)
        message = (rf"has shape \[{', '.join(map(str, shape))}\]; it needs at least one row"
                   if len(shape) == 2 else f"is {len(shape)}-D float32, not 2-D float32$")
        with pytest.raises(ValueError, match=f"^tensor 'weight' {message}"):
            ModuleLoss(np.zeros(shape, np.float32), x)
        with pytest.raises(ValueError, match=f"^tensor 'layer1.weight' {message}"):
            ModuleLoss(np.zeros(shape, np.float32), x, "layer1")

    def test_reconstruction_of_another_shape_rejected(self):
        w, x, _ = _instance(0)
        with pytest.raises(ValueError, match=r"^reconstruction must be \[8, 8\]$"):
            ModuleLoss(w, x)(w[:, :7])


class TestModuleLoss:
    @settings(max_examples=60, deadline=None)
    @given(
        out_features=st.integers(1, 12),
        in_features=st.integers(2, 24),
        rows=st.sampled_from(["below", "equal", "above"]),
        zero_column=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_formula(self, out_features, in_features, rows, zero_column, seed):
        # rows >= in_features takes the Gram-matrix path, fewer rows the direct one
        n = {"below": in_features - 1, "equal": in_features, "above": 2 * in_features}[rows]
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((out_features, in_features)).astype(np.float32)
        x = rng.standard_normal((n, in_features)).astype(np.float32)
        if zero_column:
            x[:, rng.integers(in_features)] = 0.0
        recon = (w + 0.1 * rng.standard_normal(w.shape)).astype(np.float32)
        err = recon.astype(np.float64) - w.astype(np.float64)
        direct = float(np.mean((x.astype(np.float64) @ err.T) ** 2))
        loss = ModuleLoss(w, x)
        assert loss.gram == (n >= in_features)
        assert loss(recon) == pytest.approx(direct, rel=1e-12)
        assert loss(w) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        out_features=st.integers(1, 12),
        in_features=st.integers(2, 24),
        rows=st.sampled_from(["below", "equal", "above"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_and_direct_forms_agree(self, out_features, in_features, rows, seed):
        n = {"below": in_features - 1, "equal": in_features, "above": 2 * in_features}[rows]
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((out_features, in_features)).astype(np.float32)
        x = rng.standard_normal((n, in_features)).astype(np.float32)
        recon = (w + 0.1 * rng.standard_normal(w.shape)).astype(np.float32)
        loss = ModuleLoss(w, x)(recon)
        if n < in_features:
            # zero rows add nothing to the error sum but reach the Gram form;
            # the mean then divides by more outputs
            padded = np.vstack([x, np.zeros((in_features - n, in_features), np.float32)])
            other = ModuleLoss(w, padded)
            assert other.gram
            other_loss = other(recon) * in_features / n
        else:
            # zero columns add nothing to the outputs but reach the direct form
            pad = ((0, 0), (0, n + 1 - in_features))
            other = ModuleLoss(np.pad(w, pad), np.pad(x, pad))
            assert not other.gram
            other_loss = other(np.pad(recon, pad))
        assert other_loss == pytest.approx(loss, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        out_features=st.integers(1, 12),
        in_features=st.integers(2, 24),
        rows=st.sampled_from(["below", "equal", "above"]),
        protect=st.floats(0.0, 1.0),
        move=st.sampled_from([0.0, 1e-4, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(out_features=5, in_features=7, rows="below", protect=1.0, move=0.0, seed=0)
    @example(out_features=5, in_features=7, rows="above", protect=1.0, move=0.0, seed=0)
    def test_protected_losses_update_the_searched_product(
        self, out_features, in_features, rows, protect, move, seed
    ):
        n = {"below": in_features - 1, "equal": in_features, "above": 2 * in_features}[rows]
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((out_features, in_features)).astype(np.float32)
        x = rng.standard_normal((n, in_features)).astype(np.float32)
        recon = (w + 0.1 * rng.standard_normal(w.shape)).astype(np.float32)
        # protected columns as an artifact stores them: the weight's own
        # (move 0), nudged, or another checkpoint's
        mask = rng.random(in_features) < protect
        values = (w[:, mask] + move * rng.standard_normal((out_features, mask.sum()))).astype(
            np.float32
        )
        patched = recon.copy()
        patched[:, mask] = values
        loss = ModuleLoss(w, x)
        searched, protected = loss.protected_losses(recon, mask, values)
        assert searched == loss(recon)
        if not mask.any():
            assert protected == searched
        # the update sums in another order than the full product; a bound
        # relative to the full loss alone would fail where protection
        # removes nearly all of the searched loss
        full = loss(patched)
        assert abs(protected - full) <= 1e-12 * max(full, searched)


def _failing_candidate(kind):
    """(weight, calibration rows, bad scale, message) of a candidate failing in ``kind`` way.

    Scales within 10% of one pass on the weight; the bad scale fails with
    the message that scoring it alone raises.
    """
    rng = np.random.default_rng(11)
    w = rng.standard_normal((4, 8)).astype(np.float32)
    x = rng.standard_normal((16, 8)).astype(np.float32)
    bad = np.ones(8, np.float32)
    if kind == "length":
        return w, x, np.ones(9, np.float32), "channel_scale length must match in_features"
    if kind in ("zero", "negative", "nan", "inf"):
        bad[2] = {"zero": 0.0, "negative": -1.0, "nan": np.nan, "inf": np.inf}[kind]
        return w, x, bad, "channel_scale entries must be positive and finite"
    if kind == "product":
        w[1, 2] = 1e38
        bad[2] = 10.0
        return w, x, bad, "weight times channel_scale contains non-finite values"
    # a product that rounds up to a whole quantization step, divided by a tiny scale
    w[0, 0], w[0, 1] = np.float32(0.56) * np.finfo(np.float32).max, -1.0
    bad[:2] = 1e-10, 2.2e29
    return w, x, bad, "dequantization produced non-finite values"


_FAILURES = ["length", "zero", "negative", "nan", "inf", "product", "division"]


def _weight_of_kind(rng, kind, shape):
    """A float32 weight whose groups are of ``kind``; every kind also has ragged tails."""
    w = rng.standard_normal(shape)
    if kind == "constant":  # equal values along each row: every group is constant
        w = np.repeat(w[:, :1], shape[1], axis=1)
    elif kind == "collapsed":  # nearly equal, same sign: codes collapse without a constant
        w = 1.0 + 1e-7 * w
    elif kind == "half_steps":  # ties: [-3.5, 3.5] codes 3.5 one past the range at 3 bits
        w = rng.integers(-4, 4, shape) + 0.5
    elif kind == "subnormal":
        w = w * 1e-41
    elif kind == "near_max":  # products, decodes and divisions near the float32 maximum
        w = np.where(rng.random(shape) < 0.3, np.sign(w) * 3.3e38, w)
    return w.astype(np.float32)


def _outcome(fn):
    """fn()'s value, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


class TestCandidatePath:
    @settings(max_examples=300, deadline=None)
    @given(
        out_features=st.integers(1, 9),
        in_features=st.integers(2, 24),
        group_size=st.integers(1, 10),
        bits=st.sampled_from([3, 4]),
        kind=st.sampled_from(
            ["random", "constant", "collapsed", "half_steps", "subnormal", "near_max"]
        ),
        rows=st.sampled_from(["below", "at_least"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_equals_public_path(
        self, out_features, in_features, group_size, bits, kind, rows, seed, data
    ):
        # quantized_many scores each candidate as the public quantize, decode
        # and loss calls do, bit for bit, alone on one tile or many (a budget
        # below the weight) or stacked on one tile per group width, and
        # quantized(cfg) so scores plain RTN; a failing candidate raises what
        # those calls raise
        rng = np.random.default_rng(seed)
        w = _weight_of_kind(rng, kind, (out_features, in_features))
        chunk = data.draw(
            st.sampled_from([8, 40, w.size, 2 * w.size, 4 * w.size, quant._CHUNK_ELEMENTS]),
            label="chunk",
        )
        per_batch = max(1, chunk // w.size)
        n = in_features - 1 if rows == "below" else in_features + 2
        x = rng.standard_normal((n, in_features)).astype(np.float32)
        candidates = data.draw(st.integers(1, 6), label="candidates")
        scales = [np.exp(rng.uniform(-3, 3, in_features)).astype(np.float32)
                  for _ in range(candidates)]
        cfg = QuantConfig(bits=bits, group_size=group_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quant, "_CHUNK_ELEMENTS", chunk)
            rtn, *public = [
                _outcome(lambda s=s: rtn_quantize(w, cfg, channel_scale=s)) for s in [None, *scales]
            ]
            rtn, *public = [
                q if isinstance(q, str) else _outcome(lambda q=q: ModuleLoss(w, x)(dequantize(q)))
                for q in [rtn, *public]
            ]
            assert _outcome(lambda: ModuleLoss(w, x).quantized(cfg)) == rtn
            got = _outcome(lambda: ModuleLoss(w, x).quantized_many(cfg, scales))
        if not any(isinstance(p, str) for p in public):
            assert got == public
            return
        # the first batch with a failure raises; within it a quantizer error
        # wins over a division one, and alone a candidate raises its own
        batches = [public[i : i + per_batch] for i in range(0, len(public), per_batch)]
        failed = next(b for b in batches if any(isinstance(p, str) for p in b))
        messages = [p for p in failed if isinstance(p, str)]
        division = "dequantization produced non-finite values"
        coding = [m for m in messages if m != division]
        assert got in (coding or messages)
        if per_batch == 1:
            assert got == messages[0]


class TestBatchedScoring:
    @settings(max_examples=80, deadline=None)
    @given(
        out_features=st.integers(1, 9),
        in_features=st.integers(2, 24),
        group_size=st.integers(1, 10),
        bits=st.sampled_from([3, 4]),
        rows=st.sampled_from(["below", "at_least"]),
        candidates=st.integers(1, 7),
        per_batch=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_losses_equal_one_at_a_time(
        self, out_features, in_features, group_size, bits, rows, candidates, per_batch, seed,
    ):
        # per_batch from 1 up gives batches of one, of several, and a ragged last batch
        n = in_features - 1 if rows == "below" else in_features + 3
        rng = np.random.default_rng(seed)
        w = (rng.standard_normal((out_features, in_features)) * 10.0 ** rng.uniform(-3, 3))
        w = w.astype(np.float32)
        x = rng.standard_normal((n, in_features)).astype(np.float32)
        scales = [
            np.exp(rng.uniform(-2, 2, in_features)).astype(np.float32) for _ in range(candidates)
        ]
        cfg = QuantConfig(bits=bits, group_size=group_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quant, "_CHUNK_ELEMENTS", per_batch * w.size)
            losses = ModuleLoss(w, x).quantized_many(cfg, scales)
        assert losses == [quant_loss(w, x, s, cfg) for s in scales]

    @pytest.mark.parametrize("kind", _FAILURES)
    @pytest.mark.parametrize("position", range(7))
    def test_error_at_any_position_in_a_batch(self, monkeypatch, kind, position):
        w, x, bad, message = _failing_candidate(kind)
        with pytest.raises(ValueError, match=message):
            quant_loss(w, x, bad, QCFG)
        # four candidates per batch: positions 0-3 fall in the first, 4-6 in the second
        monkeypatch.setattr(quant, "_CHUNK_ELEMENTS", 4 * w.size)
        rng = np.random.default_rng(position)
        scales = [np.exp(rng.uniform(-0.1, 0.1, 8)).astype(np.float32) for _ in range(6)]
        ModuleLoss(w, x).quantized_many(QCFG, scales)
        scales.insert(position, bad)
        with pytest.raises(ValueError, match=message):
            ModuleLoss(w, x).quantized_many(QCFG, scales)

    @pytest.mark.parametrize("kind", _FAILURES)
    def test_error_of_a_named_loss_names_the_module(self, kind):
        w, x, bad, message = _failing_candidate(kind)
        ones = np.ones(8, np.float32)
        with pytest.raises(ValueError, match=f"^module 'layer3': {message}"):
            ModuleLoss(w, x, "layer3").quantized_many(QCFG, [ones, bad])
        with pytest.raises(ValueError, match=f"^{message}"):
            ModuleLoss(w, x).quantized_many(QCFG, [ones, bad])

    @pytest.mark.parametrize("kind", ["length", "zero", "nan"])
    def test_invalid_scale_is_raised_before_any_candidate(self, monkeypatch, kind):
        # every scale is checked first: a later invalid scale wins over an
        # earlier candidate's overflow, and no candidate is quantized
        monkeypatch.setattr(quant, "_CHUNK_ELEMENTS", 4 * 32)
        calls = Counter()

        def counted(*args, _original=quant._coded_tiles):
            calls["_coded_tiles"] += 1
            return _original(*args)

        monkeypatch.setattr(quant, "_coded_tiles", counted)
        w, x, overflow, _ = _failing_candidate("product")
        _, _, invalid, message = _failing_candidate(kind)
        with pytest.raises(ValueError, match=f"^module 'layer2': {message}"):
            ModuleLoss(w, x, "layer2").quantized_many(QCFG, [overflow, invalid])
        assert calls["_coded_tiles"] == 0

    def test_product_overflow_wins_within_a_batch(self, monkeypatch):
        # a batch quantizes all its candidates before decoding any: a later
        # candidate's product overflow wins over an earlier one's division overflow
        monkeypatch.setattr(quant, "_CHUNK_ELEMENTS", 4 * 32)
        w, x, division, _ = _failing_candidate("division")
        w[1, 2] = 1e38
        product = np.ones(8, np.float32)
        product[2] = 10.0
        with pytest.raises(ValueError, match="dequantization produced non-finite"):
            ModuleLoss(w, x).quantized_many(QCFG, [division])
        with pytest.raises(ValueError, match="weight times channel_scale"):
            ModuleLoss(w, x).quantized_many(QCFG, [division, product])
        ones = np.ones(8, np.float32)
        with pytest.raises(ValueError, match="dequantization produced non-finite"):
            ModuleLoss(w, x).quantized_many(QCFG, [ones] * 3 + [division, product])

    @pytest.mark.parametrize(
        "shape, batches", [((64, 128), [1, 16, 3]), ((512, 512), [1] * 20)],
        ids=["64x128", "512x512"],
    )
    def test_search_quantizes_once_per_batch(self, monkeypatch, shape, batches):
        # plain RTN alone, then the 19 scaled candidates: of 64 x 128 they fit
        # in two batches; one of 512 x 512 fills a batch
        stacks = []

        def counted(weight_t, qcfg, cscale, _original=quant._coded_tiles):
            stacks.append(1 if cscale is None else len(cscale))
            return _original(weight_t, qcfg, cscale)

        monkeypatch.setattr(quant, "_coded_tiles", counted)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(shape).astype(np.float32)
        x = rng.standard_normal((16, shape[1])).astype(np.float32)
        scores = np.exp(rng.uniform(-1.0, 2.0, shape[1]))
        search_scale(ModuleLoss(w, x), scores, SearchConfig(), QuantConfig())
        assert stacks == batches

    def test_one_candidate_error_is_alive_at_a_time(self):
        # a 2^20-weight module codes one candidate per batch; each float64 error
        # must be freed before the next candidate is coded
        rng = np.random.default_rng(8)
        out_features = in_features = 1024
        rows = 64  # below in_features: the direct product, [rows, out]
        w = rng.standard_normal((out_features, in_features), dtype=np.float32)
        loss = ModuleLoss(w, rng.standard_normal((rows, in_features), dtype=np.float32))
        scales = [np.exp(rng.normal(0.0, 0.3, in_features)).astype(np.float32)
                  for _ in range(4)]
        cfg = QuantConfig(group_size=128)
        assert w.size >= quant._CHUNK_ELEMENTS
        error = 8 * w.size
        product = 2 * 8 * rows * out_features  # the product and its square
        # a tile holds at most 2 * _CHUNK_ELEMENTS weights (see quant._tiles), each
        # as a float32 scaled value, a float64 step and a float32 decoded value
        tile = (4 + 8 + 4) * 2 * quant._CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            losses = loss.quantized_many(cfg, scales)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= error + product + tile, (peak / 2**20, error / 2**20)
        assert losses == [loss.quantized(cfg, scale) for scale in scales]

    def test_stacked_batch_is_one_tile_per_group_width(self, monkeypatch):
        # plain RTN alone, then 19 candidates of 64 x 130 in batches of 15 and 4
        # (2^17 // 8320 per batch); each batch codes one tile of its full group
        # and one of its ragged 2-channel group, so the quantizer kernel runs 6 times
        tiles = []

        def counted(values, bits, _original=quant._code_groups):
            tiles.append(values.shape)
            return _original(values, bits)

        monkeypatch.setattr(quant, "_code_groups", counted)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((64, 130)).astype(np.float32)
        x = rng.standard_normal((16, 130)).astype(np.float32)
        scores = np.exp(rng.uniform(-1.0, 2.0, 130))
        search_scale(ModuleLoss(w, x), scores, SearchConfig(), QuantConfig(group_size=128))
        assert tiles == [(1, 128, 64), (1, 2, 64), (15, 128, 64), (15, 2, 64),
                         (4, 128, 64), (4, 2, 64)]


def _scored_scales(monkeypatch):
    """Every channel scale ``ModuleLoss.quantized_many`` is given, in call order."""
    scored = []
    original = ModuleLoss.quantized_many

    def recording(self, qcfg, scales):
        scored.extend(scales)
        return original(self, qcfg, scales)

    monkeypatch.setattr(ModuleLoss, "quantized_many", recording)
    return scored


def _assert_equal_importances_score_ones(monkeypatch, importance):
    """Every alpha > 0 candidate's scale is all ones and scores the plain RTN loss."""
    w, x, _ = _instance(1, n_in=importance.size)
    scored = _scored_scales(monkeypatch)
    res = search_scale(ModuleLoss(w, x), importance, SearchConfig(), QCFG)
    assert len(scored) == 19  # alpha > 0; plain RTN is scored on its own
    for scale in scored:
        assert scale.dtype == np.float32 and np.array_equal(scale, np.ones(importance.size))
    assert all(loss == res.rtn_loss for _, loss in res.loss_curve)


class TestNormalizeScale:
    """``search_scale`` divides the importance by sqrt(max * min) before raising it to alpha."""

    def test_all_ones_fixed_point(self, monkeypatch):
        _assert_equal_importances_score_ones(monkeypatch, np.ones(8))

    def test_constant_vector_maps_to_ones(self, monkeypatch):
        _assert_equal_importances_score_ones(monkeypatch, np.full(8, 7.3))

    def test_tiny_constant_vector_maps_to_ones(self, monkeypatch):
        _assert_equal_importances_score_ones(monkeypatch, np.full(8, 2.0**-20))

    def test_power_zero_base_is_identity(self, monkeypatch):
        # any importance raised to the power 0 is the all-ones vector
        _assert_equal_importances_score_ones(monkeypatch, np.array([2.0, 8.0] * 4) ** 0.0)

    def test_non_positive_rejected(self):
        w, x, _ = _instance(1)
        with pytest.raises(ValueError, match="strictly positive"):
            search_scale(ModuleLoss(w, x), np.array([1.0, 0.0] * 4), SearchConfig(), QCFG)

    def test_hand_example(self, monkeypatch):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        x = rng.standard_normal((6, 2)).astype(np.float32)
        scored = _scored_scales(monkeypatch)
        search_scale(ModuleLoss(w, x), np.array([1.0, 100.0]), SearchConfig(grid_points=2),
                     QuantConfig(group_size=2))
        # alpha 1, the only candidate besides plain RTN
        assert len(scored) == 1
        assert np.array_equal(scored[0], np.float32([0.1, 10.0]))

    def test_geometric_symmetry(self, monkeypatch):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        x = rng.standard_normal((6, 3)).astype(np.float32)
        scored = _scored_scales(monkeypatch)
        search_scale(ModuleLoss(w, x), np.array([0.25, 1.0, 4.0]), SearchConfig(grid_points=5),
                     QuantConfig(group_size=3))
        assert len(scored) == 4
        for scale in scored:
            assert scale[1] == 1.0
            assert float(scale[0]) * float(scale[2]) == pytest.approx(1.0, rel=1e-6)
        # at alpha 1 the base itself, in which sqrt(4 * 0.25) changes nothing
        assert np.array_equal(scored[-1], np.float32([0.25, 1.0, 4.0]))


def _instance(seed, n_in=8, n_out=8, rows=16):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_out, n_in)).astype(np.float32)
    x = rng.standard_normal((rows, n_in)).astype(np.float32)
    scores = np.exp(rng.uniform(-1.0, 2.0, n_in))
    return w, x, scores


class TestSearchScale:
    def test_constant_importance_reduces_to_rtn(self):
        w, x, _ = _instance(0)
        res = search_scale(ModuleLoss(w, x), np.full(8, 3.0), SearchConfig(), QCFG)
        assert res.alpha_star == 0.0
        assert res.best_loss == res.rtn_loss
        assert np.array_equal(res.scale, np.ones(8, np.float32))

    @pytest.mark.parametrize("alpha_lo, alpha_hi", [(0.0, 1.0), (-1.0, 1.0), (0.25, 1.0)])
    def test_curve_matches_quant_loss_at_every_alpha(self, alpha_lo, alpha_hi):
        # alpha = 0 reuses the unscaled loss instead of quantizing again
        w, x, scores = _instance(4)
        scfg = SearchConfig(grid_points=5, alpha_lo=alpha_lo, alpha_hi=alpha_hi)
        res = search_scale(ModuleLoss(w, x), scores, scfg, QCFG)
        base = scores / np.sqrt(scores.max() * scores.min())
        for alpha, loss in res.loss_curve:
            assert loss == quant_loss(w, x, (base**alpha).astype(np.float32), QCFG)
        assert res.rtn_loss == quant_loss(w, x, np.ones(8, np.float32), QCFG)

    def test_two_point_grid_hits_endpoints(self):
        assert SearchConfig(grid_points=2).alphas() == [0.0, 1.0]

    def test_grid_includes_both_endpoints(self):
        alphas = SearchConfig(grid_points=20).alphas()
        assert len(alphas) == 20
        assert alphas[0] == 0.0
        assert alphas[-1] == 1.0

    @given(
        ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2,
                      unique=True),
        points=st.integers(2, 64),
    )
    @example(ends=[0.2, 0.9], points=7)  # 0.2 + 6 * 0.7 / 6 is 0.8999999999999999
    @example(ends=[-1e308, 1e308], points=3)  # the span overflows
    @example(ends=[-1e308, 0.7e308], points=4)  # 2 * span overflows
    def test_grid_runs_from_lo_to_exactly_hi(self, ends, points):
        lo, hi = sorted(ends)
        if not np.isfinite((points - 1) * (hi - lo)):
            with pytest.raises(ValueError, match="finite"):
                SearchConfig(grid_points=points, alpha_lo=lo, alpha_hi=hi)
            return
        alphas = SearchConfig(grid_points=points, alpha_lo=lo, alpha_hi=hi).alphas()
        assert (alphas[0], alphas[-1], len(alphas)) == (lo, hi, points)
        assert np.isfinite(alphas).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_argmin_matches_independent_reevaluation(self, seed):
        w, x, scores = _instance(seed)
        scfg = SearchConfig(grid_points=12)
        res = search_scale(ModuleLoss(w, x), scores, scfg, QCFG)
        base = scores / np.sqrt(scores.max() * scores.min())
        best_alpha, best_loss = None, np.inf
        for alpha in scfg.alphas():
            loss = quant_loss(w, x, (base**alpha).astype(np.float32), QCFG)
            if loss < best_loss:
                best_alpha, best_loss = alpha, loss
        assert res.alpha_star == best_alpha
        assert res.best_loss == best_loss

    @pytest.mark.parametrize("seed", range(6))
    def test_never_worse_than_rtn(self, seed):
        w, x, scores = _instance(seed + 50)
        res = search_scale(ModuleLoss(w, x), scores, SearchConfig(), QCFG)
        assert res.best_loss <= res.rtn_loss + 1e-9

    @pytest.mark.parametrize("factor", [0.25, 2.0, 64.0])
    def test_argmin_invariant_to_rescaling(self, factor):
        w, x, scores = _instance(7)
        res1 = search_scale(ModuleLoss(w, x), scores, SearchConfig(), QCFG)
        res2 = search_scale(ModuleLoss(w, x), scores * factor, SearchConfig(), QCFG)
        assert res1.alpha_star == res2.alpha_star
        assert np.array_equal(res1.scale, res2.scale)
        assert res1.loss_curve == res2.loss_curve

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.integers(2, 25),
        zero_at=st.sampled_from(["below", "low_end", "inside"]),
        lo_steps=st.integers(1, 24),
        step=st.floats(0.01, 0.5),
        exact_weight=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_selection_is_the_first_minimum_of_the_curve(
        self, points, zero_at, lo_steps, step, exact_weight, seed
    ):
        if zero_at == "inside":
            # alpha = 0 is grid point k: with quarter steps, k * span / last is
            # exactly k / 4, so lo + k * span / last is exactly 0
            points = max(points, 3)
            k = 1 + lo_steps % (points - 2)
            lo, hi = -k / 4, (points - 1 - k) / 4
        else:
            lo = 0.0 if zero_at == "low_end" else step
            hi = lo + step * lo_steps
        scfg = SearchConfig(grid_points=points, alpha_lo=lo, alpha_hi=hi)
        w, x, scores = _instance(seed)
        if exact_weight:  # zero loss at every alpha: every candidate ties
            w = np.zeros_like(w)
        loss = ModuleLoss(w, x, "layer0")
        res = search_scale(loss, scores, scfg, QCFG)
        alphas = [alpha for alpha, _ in res.loss_curve]
        values = [value for _, value in res.loss_curve]
        assert alphas == scfg.alphas()
        assert (0.0 in alphas) == (zero_at != "below")
        first = values.index(min(values))
        assert (res.alpha_star, res.best_loss) == res.loss_curve[first]
        base = scores / np.sqrt(scores.max() * scores.min())
        assert np.array_equal(res.scale, (base**res.alpha_star).astype(np.float32))
        assert all(value == res.rtn_loss for alpha, value in res.loss_curve if alpha == 0.0)
        given = search_scale(loss, scores, scfg, QCFG, rtn_loss=res.rtn_loss)
        assert (given.alpha_star, given.best_loss, given.rtn_loss, given.loss_curve) == (
            res.alpha_star, res.best_loss, res.rtn_loss, res.loss_curve
        )
        assert np.array_equal(given.scale, res.scale)

    def test_ties_go_to_smaller_alpha(self):
        # an exactly representable weight has zero loss everywhere on the grid
        w = np.zeros((4, 8), np.float32)
        _, x, scores = _instance(3)
        res = search_scale(ModuleLoss(w, x), scores, SearchConfig(), QCFG)
        assert res.alpha_star == 0.0

    def test_curve_length_matches_grid(self):
        w, x, scores = _instance(9)
        res = search_scale(ModuleLoss(w, x), scores, SearchConfig(grid_points=20), QCFG)
        assert len(res.loss_curve) == 20

    def test_non_positive_importance_rejected(self):
        w, x, scores = _instance(1)
        with pytest.raises(ValueError):
            search_scale(ModuleLoss(w, x), scores * 0.0, SearchConfig(), QCFG)

    @pytest.mark.parametrize("lo, hi, first", [(0.0, 200.0, 4), (-200.0, 1.0, 0)])
    def test_alpha_whose_scale_leaves_float32_is_named(self, lo, hi, first):
        # base [0.1, 10]: 10**42.1 (alpha 4 * 200 / 19) and 0.1**-200 overflow
        # float32; 0.1**42.1 is a positive subnormal
        scfg = SearchConfig(alpha_lo=lo, alpha_hi=hi)
        alpha = scfg.alphas()[first]
        w, x, _ = _instance(4)
        scores = np.where(np.arange(w.shape[1]) % 2, 100.0, 1.0)
        message = (
            f"channel scale of alpha {re.escape(repr(alpha))} for module 'layer2' "
            "is not positive and finite in float32"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            search_scale(ModuleLoss(w, x, "layer2"), scores, scfg, QCFG)

    def test_weight_plain_rtn_cannot_code_is_named_before_the_scale(self):
        # scaled up, the first channels overflow float32 first; the search
        # scores plain RTN first, and so reports the unscaled weight's own failure
        w, x, _ = _instance(2)
        w[0, :2] = np.finfo(np.float32).max, -np.finfo(np.float32).max
        scores = np.where(np.arange(w.shape[1]) < 2, 100.0, 1.0)
        loss = ModuleLoss(w, x, "layer0")
        with pytest.raises(ValueError, match="weight times channel_scale"):
            loss.quantized_many(QCFG, [scores.astype(np.float32)])
        message = "^module 'layer0': a group of the weight decodes beyond the float32 range$"
        with pytest.raises(ValueError, match=message):
            loss.quantized(QCFG)
        with pytest.raises(ValueError, match=message):
            search_scale(loss, scores, SearchConfig(), QCFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_points=1)
        with pytest.raises(ValueError):
            SearchConfig(alpha_lo=1.0, alpha_hi=0.5)
        for lo, hi in ((0.0, float("inf")), (float("-inf"), 1.0)):
            with pytest.raises(ValueError, match="finite"):
                SearchConfig(alpha_lo=lo, alpha_hi=hi)


class TestQuantizeModel:
    def _setup(self, steps=200):
        model = init_model([8, 16, 8], seed=1)
        _, snaps = train(model, TrainConfig(steps=steps, data_seed=2))
        pre, post = snaps[0][1], snaps[-1][1]
        final = snaps[-1][1]
        batch = np.random.default_rng(33).standard_normal((64, 8), dtype=np.float32)
        from deltaquant.toy import model_from_map

        _, calib = forward(model_from_map(final), batch)
        imps = importance_all(pre, post, MappingConfig(), calib)
        return post, imps, calib

    def test_searched_never_worse_per_module(self):
        post, imps, calib = self._setup()
        _, report = quantize_model(post, imps, calib, SearchConfig(), QCFG)
        assert len(report) == 2
        for res in report:
            assert res.best_loss <= res.rtn_loss + 1e-9

    def test_full_protection_reproduces_weights(self):
        post, imps, calib = self._setup()
        qcfg = QuantConfig(bits=3, group_size=4, protect_fraction=1.0)
        artifact, _ = quantize_model(post, imps, calib, SearchConfig(), qcfg)
        from deltaquant.toy import forward as fwd, model_from_map

        recon_model = model_from_map(post)
        for layer in recon_model.layers:
            recon = dequantize(artifact[layer.name])
            assert np.array_equal(recon, post[f"{layer.name}.weight"])
            layer.weight = recon
        batch = np.random.default_rng(5).standard_normal((16, 8), dtype=np.float32)
        ref, _ = fwd(model_from_map(post), batch)
        got, _ = fwd(recon_model, batch)
        assert np.abs(got - ref).max() < 1e-5

    def test_missing_importance_named(self):
        post, imps, calib = self._setup()
        del imps["layer1"]
        with pytest.raises(ValueError, match="layer1"):
            quantize_model(post, imps, calib, SearchConfig(), QCFG)

    def test_missing_calibration_named(self):
        post, imps, calib = self._setup()
        del calib.inputs["layer0"]
        with pytest.raises(ValueError, match="layer0"):
            quantize_model(post, imps, calib, SearchConfig(), QCFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_importance_named(self, bad):
        post, imps, calib = self._setup()
        imps["layer1"][3] = bad
        with pytest.raises(ValueError, match="finite and strictly positive for module 'layer1'"):
            quantize_model(post, imps, calib, SearchConfig(), QCFG)

    def test_non_finite_calibration_named(self):
        post, imps, calib = self._setup()
        calib.inputs["layer1"][0, 0] = np.nan
        with pytest.raises(ValueError, match="layer1.*non-finite"):
            quantize_model(post, imps, calib, SearchConfig(), QCFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_named(self, bad):
        post, imps, calib = self._setup()
        post["layer1.weight"][2, 3] = bad
        with pytest.raises(ValueError, match="'layer1.weight' contains non-finite values"):
            quantize_model(post, imps, calib, SearchConfig(), QCFG)

    def test_searched_beats_or_ties_unscaled_3bit(self):
        post, imps, calib = self._setup(steps=300)
        _, report = quantize_model(post, imps, calib, SearchConfig(), QCFG)
        for res in report:
            assert res.best_loss <= res.rtn_loss

    def test_report_lines_shape(self):
        post, imps, calib = self._setup()
        scfg = SearchConfig(grid_points=20)
        _, report = quantize_model(post, imps, calib, scfg, QCFG)
        lines = report_lines(report, scfg, QCFG)
        meta = json.loads(lines[0])
        assert meta["grid_points"] == 20
        assert meta["grid_spacing"] == "endpoint-inclusive"
        mods = [json.loads(l) for l in lines[1:]]
        assert [m["module"] for m in mods] == ["layer0", "layer1"]
        for m in mods:
            assert len(m["loss_curve"]) == 20
            assert m["best_loss"] <= m["rtn_loss"] + 1e-9
