"""RTN group quantization, packing bijection, channel protection."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaquant import quant
from deltaquant.container import load_container, save_container
from deltaquant.quant import (
    QuantConfig,
    artifact_from_map,
    artifact_to_map,
    dequantize,
    pack_codes,
    rtn_quantize,
    unpack_codes,
)
from quant_oracle import oracle_reconstruct, rtn_oracle, select_protected


FLT_MAX = np.finfo(np.float32).max


def _rand_weight(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _mixed_rows(w):
    """Give rows the group kinds the canonical forms and zero extension handle."""
    for r in range(w.shape[0]):
        kind = r % 5
        if kind == 1:
            w[r] = w[r, 0]  # constant groups
        elif kind == 2:
            w[r] = np.abs(w[r])
        elif kind == 3:
            w[r] = -np.abs(w[r])
        elif kind == 4 and r % 2:
            w[r] = 0.0
    return w


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the error or numpy warning it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


class TestRtnQuantize:
    def test_worked_row(self):
        w = np.array([[0.0, 0.5, 1.0, 1.5]], np.float32)
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4))
        assert q.scales[0, 0] == pytest.approx(1.5 / 7, rel=1e-5)
        assert q.zero_points[0, 0] == 0
        assert q.codes.tolist() == [[0, 2, 5, 7]]
        err = np.abs(dequantize(q) - w)
        assert err.max() <= q.scales[0, 0] / 2

    def test_all_zero_weight(self):
        q = rtn_quantize(np.zeros((3, 8), np.float32), QuantConfig(bits=3, group_size=4))
        assert (q.codes == q.zero_points.repeat(4, axis=1)).all()
        assert not dequantize(q).any()

    @pytest.mark.parametrize("c", [0.7, -1.25, 3.0])
    def test_constant_row_reconstructs_exactly(self, c):
        w = np.full((1, 4), c, np.float32)
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4))
        assert np.array_equal(dequantize(q), w)

    def test_non_finite_rejected(self):
        w = np.array([[1.0, np.inf]], np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            rtn_quantize(w, QuantConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [5, 9], ids=["full-group", "ragged-group"])
    @pytest.mark.parametrize("protect", [False, True])
    def test_non_finite_rejected_in_every_group(self, bad, col, protect):
        # 10 columns at group 4: two full groups and a ragged group of width 2
        w = _rand_weight(np.random.default_rng(5), (3, 10))
        w[1, col] = bad
        mask = np.arange(10) == col if protect else None
        with pytest.raises(ValueError, match="non-finite"):
            rtn_quantize(w, QuantConfig(bits=3, group_size=4), protected=mask)

    def test_channel_scale_overflow_rejected(self):
        # every weight and scale is finite, but 1e38 * 10 overflows float32
        w = np.full((2, 8), 1e38, np.float32)
        scale = np.ones(8, np.float32)
        scale[6] = 10.0
        with pytest.raises(ValueError, match="non-finite"):
            rtn_quantize(w, QuantConfig(bits=3, group_size=4), channel_scale=scale)

    def test_group_count(self):
        w = _rand_weight(np.random.default_rng(0), (4, 10))
        q = rtn_quantize(w, QuantConfig(bits=4, group_size=4))
        assert q.scales.shape == (4, 3)  # ceil(10 / 4), tail group of width 2

    @pytest.mark.parametrize("bits", [3, 4])
    @pytest.mark.parametrize("group_size", [4, 128])
    def test_half_step_bound(self, bits, group_size):
        rng = np.random.default_rng(bits * 100 + group_size)
        w = _rand_weight(rng, (32, 96), scale=rng.uniform(0.1, 3.0))
        q = rtn_quantize(w, QuantConfig(bits=bits, group_size=group_size))
        err = np.abs(dequantize(q) - w)
        for g, sl in enumerate(range(0, 96, group_size)):
            cols = slice(sl, min(sl + group_size, 96))
            bound = np.abs(q.scales[:, g : g + 1]) / 2 + 1e-6
            assert (err[:, cols] <= bound).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotence_exact(self, seed):
        rng = np.random.default_rng(seed)
        w = _rand_weight(rng, (8, 8))
        if seed % 2:
            w = np.abs(w)  # same-sign groups exercise the zero-extension path
        cfg = QuantConfig(bits=3 + seed % 2, group_size=4)
        q1 = rtn_quantize(w, cfg)
        q2 = rtn_quantize(dequantize(q1), cfg)
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.scales, q2.scales)
        assert np.array_equal(q1.zero_points, q2.zero_points)

    @settings(max_examples=100, deadline=None)
    @given(
        out_features=st.integers(1, 12),
        full_groups=st.integers(0, 4),
        group_size=st.integers(2, 16),
        bits=st.sampled_from([3, 4]),
        chunk=st.sampled_from([16, quant._CHUNK_ELEMENTS]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_requantize_reproduces_ragged(
        self, out_features, full_groups, group_size, bits, chunk, seed, data
    ):
        tail = data.draw(st.integers(1, group_size - 1), label="tail")
        rng = np.random.default_rng(seed)
        w = _rand_weight(
            rng, (out_features, full_groups * group_size + tail), scale=10.0 ** rng.uniform(-3, 3)
        )
        w = _mixed_rows(w)
        cfg = QuantConfig(bits=bits, group_size=group_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quant, "_CHUNK_ELEMENTS", chunk)
            q1 = rtn_quantize(w, cfg)
            q2 = rtn_quantize(dequantize(q1), cfg)
        assert q1.scales.shape[1] == full_groups + 1
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.scales, q2.scales)
        assert np.array_equal(q1.zero_points, q2.zero_points)

    @pytest.mark.parametrize(
        "values,bits,raises",
        [
            ([-0.0, 1e-45], 3, False),  # a scale that rounded to 0 divided 0 by 0
            ([-0.0, 1e-45], 4, False),
            ([FLT_MAX, np.float32(0.99999) * FLT_MAX], 3, True),  # stored an inf scale
            ([FLT_MAX, 0.0], 3, True),  # quantized, then failed to decode
            ([FLT_MAX, 0.0], 4, True),
        ],
    )
    def test_float32_range_ends(self, values, bits, raises):
        w = np.array([values], np.float32)
        cfg = QuantConfig(bits=bits, group_size=2)
        if raises:
            with pytest.raises(ValueError, match="beyond the float32 range"):
                rtn_quantize(w, cfg)
            return
        q = rtn_quantize(w, cfg)
        assert q.scales.min() >= 2.0**-126
        assert np.array_equal(rtn_quantize(dequantize(q), cfg).codes, q.codes)

    @pytest.mark.parametrize("bits", [3, 4])
    def test_code_past_the_range_is_clipped(self, bits):
        # scale 1 and zero point 4 (8 at 4 bits): rint(3.5) + 4 is one code
        # past 7, so 3.5 takes the top code, as the scalar oracle's clip does
        half = (1 << bits) / 2 - 0.5
        w = np.array([[-half, half, 0.25]], np.float32)
        cfg = QuantConfig(bits=bits, group_size=2)
        q = rtn_quantize(w, cfg)
        codes, scales, zeros = rtn_oracle(w, np.ones(3, np.float32), bits, 2)
        assert q.codes[0, 1] == (1 << bits) - 1
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zero_points, zeros)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 12),
        group_size=st.integers(1, 8),
        bits=st.sampled_from([3, 4]),
        data=st.data(),
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_total_on_finite_float32(self, rows, cols, group_size, bits, data):
        # subnormals, signed zeros and values near the float32 maximum
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
        w = np.array(values, np.float32).reshape(rows, cols)
        cfg = QuantConfig(bits=bits, group_size=group_size)
        got = _outcome(rtn_quantize, w, cfg)
        want = _outcome(rtn_oracle, w, np.ones(cols, np.float32), bits, group_size)
        if isinstance(got, tuple):
            assert got == (ValueError, "a group of the weight decodes beyond the float32 range")
            assert want == got
            return
        assert np.array_equal(got.codes, want[0])
        assert got.scales.tobytes() == want[1].tobytes()
        assert np.array_equal(got.zero_points, want[2])
        again = rtn_quantize(dequantize(got), cfg)
        assert np.array_equal(again.codes, got.codes)
        assert again.scales.tobytes() == got.scales.tobytes()
        assert np.array_equal(again.zero_points, got.zero_points)

    @pytest.mark.parametrize("bits", [3, 4])
    @pytest.mark.parametrize("shape,group_size", [((13, 23), 5), ((37, 10), 4), ((6, 70), 32)])
    def test_row_chunked_slabs_match_scalar_oracle(self, monkeypatch, shape, group_size, bits):
        # a 24-weight budget splits the full groups and the ragged group of
        # each shape into tiles of a few groups and output channels each
        monkeypatch.setattr(quant, "_CHUNK_ELEMENTS", 24)
        assert shape[1] % group_size
        assert len(list(quant._tiles(shape, group_size))) > 3
        rng = np.random.default_rng(shape[0] * 100 + bits)
        w = _mixed_rows(_rand_weight(rng, shape, scale=3.0))
        scale = np.exp(rng.uniform(-1, 1, shape[1])).astype(np.float32)
        mask = rng.random(shape[1]) < 0.2
        mask[-1] = True  # a protected column inside the ragged group
        cfg = QuantConfig(bits=bits, group_size=group_size)
        q = rtn_quantize(w, cfg, channel_scale=scale, protected=mask)
        codes, scales, zeros = rtn_oracle(w, scale, bits, group_size)
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zero_points, zeros)
        expected = oracle_reconstruct(w, scale, bits, group_size)
        expected[:, mask] = w[:, mask]
        assert dequantize(q).tobytes() == expected.tobytes()

    def test_codes_within_bit_range(self):
        rng = np.random.default_rng(5)
        for bits in (3, 4):
            q = rtn_quantize(_rand_weight(rng, (16, 16)), QuantConfig(bits=bits, group_size=8))
            assert q.codes.max() <= 2**bits - 1
            assert q.zero_points.max() <= 2**bits - 1

    @settings(max_examples=80, deadline=None)
    @given(
        out_features=st.integers(1, 6),
        in_features=st.integers(1, 40),
        group_size=st.integers(1, 16),
        bits=st.sampled_from([3, 4]),
        scaled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_scalar_oracle(
        self, out_features, in_features, group_size, bits, scaled, seed, data
    ):
        rng = np.random.default_rng(seed)
        w = _rand_weight(rng, (out_features, in_features), scale=10.0 ** rng.uniform(-3, 3))
        kinds = data.draw(
            st.lists(
                st.sampled_from(["mixed", "constant", "positive", "negative", "quarter"]),
                min_size=out_features,
                max_size=out_features,
            )
        )
        for r, kind in enumerate(kinds):
            if kind == "constant":
                w[r] = w[r, 0]
            elif kind == "positive":
                w[r] = np.abs(w[r])
            elif kind == "negative":
                w[r] = -np.abs(w[r])
            elif kind == "quarter":
                w[r] = np.round(w[r] * 4) / 4
        scale = np.ones(in_features, np.float32)
        if scaled:
            scale = np.exp(rng.uniform(-1, 1, in_features)).astype(np.float32)
        q = rtn_quantize(w, QuantConfig(bits=bits, group_size=group_size), channel_scale=scale)
        codes, scales, zeros = rtn_oracle(w, scale, bits, group_size)
        assert np.array_equal(q.codes, codes)
        assert np.array_equal(q.scales, scales)
        assert np.array_equal(q.zero_points, zeros)


class TestFieldShapes:
    def test_fields_that_disagree_are_rejected(self):
        w = _rand_weight(np.random.default_rng(6), (4, 10))
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4), protected=np.arange(10) < 3)
        with pytest.raises(ValueError, match="scales and zero points must be \\[4, 3\\]"):
            dataclasses.replace(q, scales=q.scales[:, :2], zero_points=q.zero_points[:, :2])
        with pytest.raises(ValueError, match="scales and zero points"):
            dataclasses.replace(q, group_size=8)
        with pytest.raises(ValueError, match="protected_values must be \\[4, 3\\]"):
            dataclasses.replace(q, protected_values=q.protected_values[:3])
        with pytest.raises(ValueError, match="protected_values"):
            dataclasses.replace(q, protected=np.arange(10) < 4)


class TestChannelScale:
    def test_scale_applied_and_divided_back(self):
        rng = np.random.default_rng(7)
        w = _rand_weight(rng, (6, 8))
        s = np.exp(rng.uniform(-1, 1, size=8)).astype(np.float32)
        q = rtn_quantize(w, QuantConfig(bits=4, group_size=4), channel_scale=s)
        recon = dequantize(q)
        # reconstruction approximates the unscaled weight
        assert np.abs(recon - w).max() < np.abs(w).max()
        # and re-scaling plus re-quantizing reproduces identical codes
        q2 = rtn_quantize(recon * s, QuantConfig(bits=4, group_size=4))
        assert np.array_equal(q2.codes, q.codes)

    def test_non_positive_scale_rejected(self):
        w = np.ones((2, 2), np.float32)
        with pytest.raises(ValueError, match="positive"):
            rtn_quantize(w, QuantConfig(), channel_scale=np.array([1.0, 0.0], np.float32))

    @settings(max_examples=100, deadline=None)
    @given(
        out_features=st.integers(1, 6),
        in_features=st.integers(1, 24),
        group_size=st.integers(1, 8),
        bits=st.sampled_from([3, 4]),
        data=st.data(),
    )
    def test_unscaled_skips_are_exact(self, out_features, in_features, group_size, bits, data):
        # rtn_quantize without a scale skips the multiply, dequantize skips the
        # division by an all-ones scale; x * 1 == x / 1 == x down to the bytes
        edges = [-0.0, 1e-45, -1e-45, 1e-40, -1.1e-38, np.finfo(np.float32).max,
                 -np.finfo(np.float32).max, 3.4e38, -1.7e38]
        values = data.draw(st.lists(
            st.sampled_from(edges) | st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=out_features * in_features, max_size=out_features * in_features,
        ))
        w = np.array(values, np.float32).reshape(out_features, in_features)
        cfg = QuantConfig(bits=bits, group_size=group_size)
        ones = np.ones(in_features, np.float32)
        skipped = _outcome(rtn_quantize, w, cfg)
        multiplied = _outcome(rtn_quantize, w, cfg, channel_scale=ones)
        if isinstance(skipped, tuple):
            assert skipped == multiplied
            return
        for field in ("codes", "scales", "zero_points", "channel_scale"):
            assert getattr(skipped, field).tobytes() == getattr(multiplied, field).tobytes()
        groups = np.arange(in_features) // group_size
        with np.errstate(over="ignore"):  # codes near the float32 maximum may decode to inf
            divided = skipped.codes.astype(np.float32) - skipped.zero_points[:, groups]
            divided *= skipped.scales[:, groups]
            divided /= ones
        if np.isfinite(divided).all():
            assert dequantize(skipped).tobytes() == divided.tobytes()
        else:
            with pytest.raises(ValueError, match="non-finite"):
                dequantize(skipped)


class TestProtection:
    def test_full_protection_identity(self):
        rng = np.random.default_rng(3)
        w = _rand_weight(rng, (5, 6))
        q = rtn_quantize(
            w, QuantConfig(bits=3, group_size=4, protect_fraction=1.0),
            protected=np.ones(6, bool),
        )
        assert np.array_equal(dequantize(q), w)

    def test_full_protection_identity_with_scaling(self):
        rng = np.random.default_rng(4)
        w = _rand_weight(rng, (5, 6))
        s = np.exp(rng.uniform(-1, 1, size=6)).astype(np.float32)
        q = rtn_quantize(w, QuantConfig(bits=3), channel_scale=s, protected=np.ones(6, bool))
        assert np.array_equal(dequantize(q), w)

    def test_protected_columns_bit_exact(self):
        rng = np.random.default_rng(5)
        w = _rand_weight(rng, (4, 8))
        mask = np.zeros(8, bool)
        mask[[1, 5]] = True
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4), protected=mask)
        recon = dequantize(q)
        assert np.array_equal(recon[:, mask], w[:, mask])

    def test_error_non_increasing_in_fraction(self):
        rng = np.random.default_rng(6)
        w = _rand_weight(rng, (8, 16))
        scores = rng.uniform(0.5, 2.0, size=16)
        prev = np.inf
        for fraction in (0.0, 0.25, 0.5, 1.0):
            mask = select_protected(scores, fraction)
            q = rtn_quantize(w, QuantConfig(bits=3, group_size=4), protected=mask)
            err = float(np.linalg.norm(dequantize(q) - w))
            assert err <= prev + 1e-12
            prev = err
        assert prev == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        out_features=st.integers(1, 6),
        in_features=st.integers(1, 40),
        group_size=st.integers(1, 16),
        bits=st.sampled_from([3, 4]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_mask_never_changes_codes(
        self, out_features, in_features, group_size, bits, seed, data
    ):
        # ablate quantizes each module once and only swaps the mask afterwards
        w = _rand_weight(np.random.default_rng(seed), (out_features, in_features))
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=in_features, max_size=in_features))
        )
        cfg = QuantConfig(bits=bits, group_size=group_size)
        plain = rtn_quantize(w, cfg)
        masked = rtn_quantize(w, cfg, protected=mask)
        assert np.array_equal(masked.codes, plain.codes)
        assert np.array_equal(masked.scales, plain.scales)
        assert np.array_equal(masked.zero_points, plain.zero_points)


class TestPacking:
    def test_worked_4bit_pair(self):
        assert pack_codes(np.array([0x3, 0xA], np.uint8), 4).tolist() == [0xA3]

    def test_worked_3bit_block(self):
        buf = pack_codes(np.array([1, 2, 3, 4, 5, 6, 7, 0], np.uint8), 3)
        # little-endian bytes of 0b000'111'110'101'100'011'010'001 == 0x1F58D1
        assert buf.tolist() == [0xD1, 0x58, 0x1F]

    def test_empty_input(self):
        assert pack_codes(np.zeros(0, np.uint8), 3).size == 0
        assert pack_codes(np.zeros(0, np.uint8), 4).size == 0

    def test_unpack_worked_4bit(self):
        assert unpack_codes(np.array([0xA3], np.uint8), 2, 4).tolist() == [0x3, 0xA]

    def test_unpack_count_zero(self):
        assert unpack_codes(np.zeros(0, np.uint8), 0, 3).size == 0
        assert unpack_codes(np.zeros(0, np.uint8), 0, 4).size == 0

    @pytest.mark.parametrize("bits", [3, 4])
    def test_round_trip_random_vectors(self, bits):
        rng = np.random.default_rng(bits)
        for _ in range(200):
            n = int(rng.integers(1, 70))
            codes = rng.integers(0, 2**bits, size=n).astype(np.uint8)
            assert np.array_equal(unpack_codes(pack_codes(codes, bits), n, bits), codes)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            pack_codes(np.array([8], np.uint8), 3)
        with pytest.raises(ValueError, match="out of range"):
            pack_codes(np.array([16], np.uint8), 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            unpack_codes(np.zeros(2, np.uint8), 8, 3)
        with pytest.raises(ValueError, match="length mismatch"):
            unpack_codes(np.zeros(3, np.uint8), 2, 4)

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.zeros(4, np.uint8), 5)

    @settings(max_examples=300, deadline=None)
    @given(bits=st.sampled_from([1, 3, 4]), data=st.data())
    def test_round_trip_every_width_and_length(self, bits, data):
        n = data.draw(st.integers(0, 300), label="n")
        values = np.array(
            data.draw(st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n)), np.uint8
        )
        packed = pack_codes(values, bits)
        # value k at bits [bits*k, bits*k + bits) of a little-endian stream,
        # padded to whole blocks of 8 / gcd(bits, 8) values
        per_block = {1: 8, 3: 8, 4: 2}[bits]
        n_bytes = -(-n // per_block) * per_block * bits // 8
        stream = sum(int(v) << (bits * k) for k, v in enumerate(values))
        assert packed.tobytes() == stream.to_bytes(n_bytes, "little")
        if bits == 1:
            assert packed.tobytes() == np.packbits(values, bitorder="little").tobytes()
        assert np.array_equal(unpack_codes(packed, n, bits), values)


class TestSelectProtected:
    SCORES = np.array([5.0, 1.0, 9.0, 9.0])

    def test_zero_fraction(self):
        assert not select_protected(self.SCORES, 0.0).any()

    def test_full_fraction(self):
        assert select_protected(self.SCORES, 1.0).all()

    def test_top_half(self):
        mask = select_protected(self.SCORES, 0.5)
        assert np.where(mask)[0].tolist() == [2, 3]

    def test_ties_break_low_index(self):
        mask = select_protected(np.array([9.0, 9.0, 1.0, 9.0]), 0.5)
        assert np.where(mask)[0].tolist() == [0, 1]

    def test_count_matches_rounding(self):
        for fraction in (0.05, 0.3, 0.33, 0.5):
            for n in (8, 16, 100):
                mask = select_protected(np.arange(n, dtype=float), fraction)
                assert mask.sum() == round(fraction * n)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            select_protected(self.SCORES, 1.5)


def _assert_same_modules(got, want):
    """Every field equal in dtype and value, and a bit-equal dequantization."""
    for field in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name
    assert dequantize(got).tobytes() == dequantize(want).tobytes()


class TestArtifactContainer:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        out_features=st.integers(1, 7),
        in_features=st.integers(1, 37),
        group_size=st.integers(1, 16),
        bits=st.sampled_from([3, 4]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_file_round_trip_derives_packed_lengths(
        self, tmp_path, out_features, in_features, group_size, bits, seed, data
    ):
        # ragged last groups and code counts that do not fill whole packed blocks
        rng = np.random.default_rng(seed)
        mask = data.draw(st.lists(st.booleans(), min_size=in_features, max_size=in_features))
        q = rtn_quantize(
            _rand_weight(rng, (out_features, in_features)),
            QuantConfig(bits=bits, group_size=group_size),
            channel_scale=np.exp(rng.uniform(-1, 1, in_features)).astype(np.float32),
            protected=np.array(mask),
        )
        path = tmp_path / "artifact.dqt"
        save_container(artifact_to_map({"m": q}), path)
        _assert_same_modules(artifact_from_map(load_container(path))["m"], q)

    def test_artifact_with_element_counts_loads(self):
        # written by the earlier format, whose u8 records also carry an
        # ``elements`` count; the reader ignores it and derives the counts
        path = Path(__file__).parent / "data" / "artifact_elements_format.dqt"
        assert path.read_bytes().count(b'"elements"') == 3
        protected = np.zeros(10, bool)
        protected[[2, 7]] = True
        want = rtn_quantize(
            np.random.default_rng(20).standard_normal((3, 10)).astype(np.float32),
            QuantConfig(bits=3, group_size=4),
            channel_scale=np.linspace(0.5, 2.0, 10, dtype=np.float32),
            protected=protected,
        )
        loaded = artifact_from_map(load_container(path))
        assert list(loaded) == ["layer0"]
        _assert_same_modules(loaded["layer0"], want)

    def test_round_trip_preserves_reconstruction(self, tmp_path):
        rng = np.random.default_rng(11)
        artifact = {}
        for i, shape in enumerate([(6, 8), (4, 6)]):
            w = _rand_weight(rng, shape)
            mask = select_protected(rng.uniform(size=shape[1]), 0.25)
            artifact[f"layer{i}"] = rtn_quantize(
                w,
                QuantConfig(bits=3, group_size=4, protect_fraction=0.25),
                channel_scale=np.exp(rng.uniform(-0.5, 0.5, shape[1])).astype(np.float32),
                protected=mask,
            )
        tmap = artifact_to_map(artifact, {"protect_fraction": "0.25"})
        path = tmp_path / "artifact.dqt"
        save_container(tmap, path)
        loaded = artifact_from_map(load_container(path))
        assert sorted(loaded) == sorted(artifact)
        for module, q in artifact.items():
            lq = loaded[module]
            assert np.array_equal(lq.codes, q.codes)
            assert np.array_equal(lq.scales, q.scales)
            assert np.array_equal(lq.zero_points, q.zero_points)
            assert np.array_equal(lq.protected, q.protected)
            assert np.array_equal(dequantize(lq), dequantize(q))

    def test_meta_carries_config(self):
        w = np.ones((2, 4), np.float32) * 0.5
        q = rtn_quantize(w, QuantConfig(bits=4, group_size=2))
        tmap = artifact_to_map({"m": q})
        assert tmap.meta["bits"] == "4"
        assert tmap.meta["group_size"] == "2"
        assert tmap["m.codes"].shape == (4,)  # 8 4-bit codes

    @pytest.mark.parametrize(
        "cfg_b", [QuantConfig(bits=4, group_size=4), QuantConfig(group_size=2)]
    )
    def test_modules_with_different_widths_rejected(self, cfg_b):
        # the meta records one bits/group_size, so a second one would not load back
        w = _rand_weight(np.random.default_rng(0), (2, 4))
        artifact = {
            "a": rtn_quantize(w, QuantConfig(bits=3, group_size=4)),
            "b": rtn_quantize(w, cfg_b),
        }
        with pytest.raises(ValueError, match="module 'b'"):
            artifact_to_map(artifact)

    def test_corrupt_packing_length_rejected(self):
        # 8 3-bit codes fill 3 bytes; the tables fix the count, not the buffer
        w = _rand_weight(np.random.default_rng(0), (2, 4))
        tmap = artifact_to_map({"m": rtn_quantize(w, QuantConfig(bits=3, group_size=4))})
        tmap["m.codes"] = np.append(tmap["m.codes"], np.uint8(0))
        with pytest.raises(ValueError, match="corrupt codes of module 'm'.*length mismatch"):
            artifact_from_map(tmap)

    @pytest.mark.parametrize("key, value", [("bits", "4"), ("group_size", "5")])
    def test_meta_contradicting_modules_rejected(self, key, value):
        w = _rand_weight(np.random.default_rng(3), (3, 8))
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4))
        with pytest.raises(ValueError, match=f"{key} '{value}'.*{key} {getattr(q, key)}"):
            artifact_to_map({"m": q}, {key: value})
        same = {"bits": "3", "group_size": "4", "protect_fraction": "0.0"}
        assert artifact_to_map({"m": q}, same).meta == same

    def test_worked_packed_zero_points(self):
        w = np.array(
            [[-1, 0, 0, 6, -3, 0, 0, 4],
             [0, 1, 2, 7, -7, 0, 0, 0]], np.float32
        )
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4))
        assert q.zero_points.tolist() == [[1, 3], [0, 7]]
        tmap = artifact_to_map({"m": q})
        # 3-bit stream 1 | 3 << 3 | 0 << 6 | 7 << 9 == 0x000E19
        assert tmap["m.zeros"].dtype == np.uint8
        assert tmap["m.zeros"].tolist() == [0x19, 0x0E, 0x00]
        assert np.array_equal(artifact_from_map(tmap)["m"].zero_points, q.zero_points)

    def test_short_protected_buffer_rejected(self):
        w = _rand_weight(np.random.default_rng(1), (2, 16))
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=8), protected=np.ones(16, bool))
        tmap = artifact_to_map({"m": q})
        tmap["m.protected"] = tmap["m.protected"][:1]
        with pytest.raises(ValueError, match="'m'"):
            artifact_from_map(tmap)

    def test_float_zero_points_rejected(self):
        w = _rand_weight(np.random.default_rng(2), (2, 8))
        q = rtn_quantize(w, QuantConfig(bits=3, group_size=4))
        tmap = artifact_to_map({"m": q})
        tmap["m.zeros"] = q.zero_points.astype(np.float32)
        with pytest.raises(ValueError, match=r"^tensor 'm\.zeros' is 2-D float32, not 1-D uint8$"):
            artifact_from_map(tmap)

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("scales", (0, 1), np.nan),
            ("protected_values", (1, 0), np.inf),
            ("channel_scale", 5, -0.5),
            ("channel_scale", 3, 0.0),
            ("channel_scale", 0, np.inf),
        ],
    )
    def test_non_finite_or_non_positive_field_rejected(self, field, index, value):
        rng = np.random.default_rng(3)
        w = _rand_weight(rng, (3, 8))
        q = rtn_quantize(
            w, QuantConfig(bits=3, group_size=4),
            channel_scale=np.exp(rng.uniform(-0.5, 0.5, 8)).astype(np.float32),
            protected=np.arange(8) < 2,
        )
        tmap = artifact_to_map({"m": q})
        tmap[f"m.{field}"][index] = value
        message = (f"{field} of module 'm' must be positive" if np.isfinite(value)
                   else f"tensor 'm\\.{field}' contains non-finite values")
        with pytest.raises(ValueError, match=f"^{message}$"):
            artifact_from_map(tmap)

    @staticmethod
    def _protected_map():
        w = _rand_weight(np.random.default_rng(4), (3, 8))
        return artifact_to_map(
            {"m": rtn_quantize(w, QuantConfig(bits=3, group_size=4), protected=np.arange(8) < 2)}
        )

    @pytest.mark.parametrize(
        "field", ["zeros", "protected", "scales", "channel_scale", "protected_values"]
    )
    def test_missing_field_rejected(self, field):
        tmap = self._protected_map()
        del tmap.entries[f"m.{field}"]
        with pytest.raises(ValueError, match=f"module 'm' is missing its {field} tensor"):
            artifact_from_map(tmap)

    @pytest.mark.parametrize(
        "field, reshape",
        [("scales", np.ravel), ("protected_values", np.ravel), ("channel_scale", np.atleast_2d)],
    )
    def test_wrong_rank_rejected(self, field, reshape):
        tmap = self._protected_map()
        tmap[f"m.{field}"] = reshape(tmap[f"m.{field}"])
        with pytest.raises(ValueError, match=f"^tensor 'm\\.{field}' is [12]-D float32, not "):
            artifact_from_map(tmap)

    @pytest.mark.parametrize(
        "key, value", [("bits", "x"), ("bits", "3.0"), ("group_size", "x"), ("group_size", "0")]
    )
    def test_malformed_meta_rejected(self, key, value):
        tmap = self._protected_map()
        tmap.meta[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be"):
            artifact_from_map(tmap)

    def test_non_artifact_container_rejected(self):
        from deltaquant.container import TensorMap

        with pytest.raises(ValueError, match="meta"):
            artifact_from_map(TensorMap({"w": np.zeros(2, np.float32)}))
        with pytest.raises(ValueError, match="no quantized modules"):
            artifact_from_map(TensorMap(meta={"bits": "3", "group_size": "4"}))
        w = _rand_weight(np.random.default_rng(0), (2, 8))
        tmap = artifact_to_map({"m": rtn_quantize(w, QuantConfig(bits=3, group_size=8))})
        tmap.meta["bits"] = "1"  # a width the codec packs, but not a code width
        with pytest.raises(ValueError, match="bits"):
            artifact_from_map(tmap)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: rtn_quantize(np.zeros(4, np.float32), QuantConfig()),
      r"weight must be a \[out, in\] matrix"),
     (lambda: rtn_quantize(np.zeros((2, 4), np.float32), QuantConfig(group_size=4),
                           protected=np.zeros(3, bool)),
      "protected mask length must match in_features"),
     (lambda: unpack_codes(np.zeros(0, np.uint8), -1, 3), "count must be >= 0"),
     (lambda: artifact_to_map({}), "empty artifact")],
    ids=["rtn-1d-weight", "rtn-mask-length", "unpack-negative-count", "empty-artifact"],
)
def test_malformed_argument_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestQuantConfig:
    def test_bits_range(self):
        for bits in (0, 2, 5, 8, 9):
            with pytest.raises(ValueError):
                QuantConfig(bits=bits)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            QuantConfig(protect_fraction=-0.1)
