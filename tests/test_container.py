"""Container format: round trips, validation, compatibility checks."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaquant.container import (
    ALIGNMENT,
    CompatibilityError,
    ContainerError,
    TensorMap,
    check_compatible,
    config_from_text,
    config_to_text,
    load_container,
    save_container,
)
from deltaquant.quant import QuantConfig
from deltaquant.signals import MappingConfig


def _map_ab() -> TensorMap:
    rng = np.random.default_rng(42)
    tmap = TensorMap(meta={"kind": "test", "seed": "42"})
    tmap["a"] = rng.standard_normal((4, 4), dtype=np.float32)
    tmap["b"] = rng.standard_normal(8, dtype=np.float32)
    return tmap


def _crafted(path, header: bytes) -> None:
    """Write a container with this header over 256 zero data bytes."""
    body = b"DQTC" + struct.pack("<IQ", 1, len(header)) + header
    data_start = (len(body) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
    path.write_bytes(body + b"\x00" * (data_start - len(body) + 256))


def _valid_container(path) -> bytes:
    tmap = _map_ab()
    tmap.put_packed("codes", np.arange(5, dtype=np.uint8), elements=9)
    save_container(tmap, path)
    return path.read_bytes()


class TestRoundTrip:
    def test_empty_map(self, tmp_path):
        path = tmp_path / "empty.dqt"
        save_container(TensorMap(), path)
        loaded = load_container(path)
        assert len(loaded) == 0
        assert loaded.meta == {}
        header = json.loads(path.read_bytes()[16:])
        assert header["tensors"] == {}

    def test_zero_tensor_layout(self, tmp_path):
        path = tmp_path / "z.dqt"
        tmap = TensorMap()
        tmap["w"] = np.zeros((2, 3), dtype=np.float32)
        save_container(tmap, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        rec = header["tensors"]["w"]
        assert rec == {"dtype": "f32", "shape": [2, 3], "offset": 0, "nbytes": 24}
        data_start = (16 + hlen + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        assert raw[data_start : data_start + 24] == b"\x00" * 24

    def test_two_tensor_byte_equality(self, tmp_path):
        path = tmp_path / "ab.dqt"
        tmap = _map_ab()
        save_container(tmap, path)
        loaded = load_container(path)
        assert sorted(loaded.entries) == ["a", "b"]
        for name in ("a", "b"):
            assert loaded[name].dtype == tmap[name].dtype
            assert loaded[name].shape == tmap[name].shape
            assert loaded[name].tobytes() == tmap[name].tobytes()
        assert loaded.meta == tmap.meta
        assert loaded == tmap

    def test_packed_u8_round_trip(self, tmp_path):
        path = tmp_path / "p.dqt"
        tmap = TensorMap()
        tmap.put_packed("codes", np.arange(7, dtype=np.uint8), elements=13)
        save_container(tmap, path)
        loaded = load_container(path)
        assert loaded.elements["codes"] == 13
        assert loaded["codes"].tobytes() == bytes(range(7))

    def test_empty_tensor_shares_offset_with_next(self, tmp_path):
        path = tmp_path / "e.dqt"
        tmap = TensorMap({"a": np.zeros((3, 0), np.float32), "b": np.ones(4, np.float32)})
        save_container(tmap, path)
        header = json.loads(path.read_bytes()[16:].split(b"\x00")[0])
        assert header["tensors"]["a"]["offset"] == header["tensors"]["b"]["offset"]
        assert load_container(path) == tmap

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "m1.dqt", tmp_path / "m2.dqt"
        save_container(_map_ab(), p1)
        save_container(_map_ab(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_all_offsets_aligned(self, tmp_path):
        path = tmp_path / "many.dqt"
        rng = np.random.default_rng(0)
        tmap = TensorMap()
        for i in range(5):
            tmap[f"t{i}"] = rng.standard_normal(i + 1, dtype=np.float32)
        save_container(tmap, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        for rec in header["tensors"].values():
            assert rec["offset"] % ALIGNMENT == 0


class TestLoadValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dqt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ContainerError, match="bad magic"):
            load_container(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.dqt"
        save_container(TensorMap(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="version"):
            load_container(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.dqt"
        tmap = TensorMap()
        tmap["w"] = np.ones((8, 8), dtype=np.float32)
        save_container(tmap, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ContainerError, match="truncated data"):
            load_container(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "s.dqt"
        path.write_bytes(b"DQTC\x01")
        with pytest.raises(ContainerError, match="truncated"):
            load_container(path)

    def test_duplicate_names(self, tmp_path):
        header = (
            b'{"meta":{},"tensors":{'
            b'"w":{"dtype":"f32","shape":[1],"offset":0,"nbytes":4},'
            b'"w":{"dtype":"f32","shape":[1],"offset":0,"nbytes":4}}}'
        )
        body = b"DQTC" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
        data_start = (len(body) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        body += b"\x00" * (data_start - len(body)) + b"\x00" * 4
        path = tmp_path / "dup.dqt"
        path.write_bytes(body)
        with pytest.raises(ContainerError, match="duplicate"):
            load_container(path)

    def test_negative_offset_rejected(self, tmp_path):
        header = b'{"meta":{},"tensors":{"w":{"dtype":"f32","shape":[1],"offset":-64,"nbytes":4}}}'
        body = b"DQTC" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
        path = tmp_path / "neg.dqt"
        path.write_bytes(body + b"\x00" * 128)
        with pytest.raises(ContainerError, match="overlap"):
            load_container(path)

    def test_nbytes_shape_mismatch(self, tmp_path):
        header = b'{"meta":{},"tensors":{"w":{"dtype":"f32","shape":[2],"offset":0,"nbytes":4}}}'
        body = b"DQTC" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
        path = tmp_path / "mis.dqt"
        path.write_bytes(body + b"\x00" * 128)
        with pytest.raises(ContainerError, match="does not match shape"):
            load_container(path)


    @pytest.mark.parametrize(
        "tensors, message",
        [
            # the byte count overflows int64 when computed by numpy
            ({"w": {"dtype": "f32", "shape": [2**32, 2**32], "offset": 0, "nbytes": 0}},
             "does not match shape"),
            ({"w": {"dtype": "f32", "shape": [0, 2**62], "offset": 0, "nbytes": 0}},
             "invalid shape"),
            ({"w": {"dtype": "f32", "shape": [True, 4], "offset": 0, "nbytes": 16}},
             "invalid shape"),
            ({"w": {"dtype": "f32", "shape": [4], "offset": False, "nbytes": 16}},
             "invalid offset"),
            ({"w": {"dtype": "u8", "shape": [4], "offset": 0, "nbytes": 4, "elements": True}},
             "element count"),
            ({"a": {"dtype": "f32", "shape": [16], "offset": 0, "nbytes": 64},
              "b": {"dtype": "f32", "shape": [4], "offset": 0, "nbytes": 16}},
             "data overlaps"),
            ({"a": {"dtype": "f32", "shape": [32], "offset": 0, "nbytes": 128},
              "b": {"dtype": "f32", "shape": [4], "offset": 64, "nbytes": 16}},
             "data overlaps"),
        ],
        ids=["int64-overflow", "huge-empty-dim", "bool-dim", "bool-offset", "bool-elements",
             "same-offset", "inside-region"],
    )
    def test_crafted_header_rejected(self, tmp_path, tensors, message):
        path = tmp_path / "crafted.dqt"
        _crafted(path, json.dumps({"meta": {}, "tensors": tensors}).encode())
        with pytest.raises(ContainerError, match=message):
            load_container(path)

    @pytest.mark.parametrize(
        "header",
        [b"[" * 100_000 + b"]" * 100_000, b'{"meta":{},"tensors":{"w":' + b"1" * 5000 + b"}}"],
        ids=["too-deep", "too-long-int"],
    )
    def test_unparsable_header_rejected(self, tmp_path, header):
        path = tmp_path / "crafted.dqt"
        _crafted(path, header)
        with pytest.raises(ContainerError, match="malformed header JSON"):
            load_container(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_truncation_raises_container_error(self, tmp_path, data):
        path = tmp_path / "trunc.dqt"
        raw = _valid_container(path)
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(ContainerError):
            load_container(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_bit_flip_loads_or_raises_container_error(self, tmp_path, data):
        path = tmp_path / "flip.dqt"
        raw = bytearray(_valid_container(path))
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            load_container(path)
        except ContainerError:
            pass


class TestSaveValidation:
    def test_rank_3_rejected(self, tmp_path):
        tmap = TensorMap()
        tmap["w"] = np.zeros((2, 2, 2), dtype=np.float32)
        with pytest.raises(ContainerError, match="rank"):
            save_container(tmap, tmp_path / "r3.dqt")

    def test_non_ascii_name_rejected(self, tmp_path):
        tmap = TensorMap()
        tmap["wéight"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(ContainerError, match="ASCII"):
            save_container(tmap, tmp_path / "na.dqt")

    def test_empty_name_rejected(self, tmp_path):
        tmap = TensorMap()
        tmap[""] = np.zeros(2, dtype=np.float32)
        with pytest.raises(ContainerError, match="non-empty"):
            save_container(tmap, tmp_path / "en.dqt")

    def test_unsupported_dtype_rejected(self, tmp_path):
        tmap = TensorMap()
        tmap["w"] = np.zeros(2, dtype=np.float64)
        with pytest.raises(ContainerError, match="dtype"):
            save_container(tmap, tmp_path / "f64.dqt")

    def test_packed_without_elements_rejected(self, tmp_path):
        tmap = TensorMap()
        tmap["codes"] = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ContainerError, match="element count"):
            save_container(tmap, tmp_path / "pe.dqt")


class TestCompatibility:
    def test_identical_maps_pass(self):
        check_compatible(_map_ab(), _map_ab())

    def test_missing_tensor_named(self):
        a = TensorMap({"layer0.w": np.zeros((4, 4), np.float32)})
        b = TensorMap()
        with pytest.raises(CompatibilityError, match="layer0.w"):
            check_compatible(a, b)

    def test_shape_mismatch(self):
        a = TensorMap({"w": np.zeros((4, 4), np.float32)})
        b = TensorMap({"w": np.zeros((4, 5), np.float32)})
        with pytest.raises(CompatibilityError, match="shape mismatch"):
            check_compatible(a, b)

    def test_dtype_mismatch(self):
        a = TensorMap({"w": np.zeros(4, np.float32)})
        b = TensorMap({"w": np.zeros(4, np.uint8)}, elements={"w": 4})
        with pytest.raises(CompatibilityError, match="dtype mismatch"):
            check_compatible(a, b)

    def test_first_mismatch_in_sorted_order(self):
        a = TensorMap({"a": np.zeros(2, np.float32), "b": np.zeros(2, np.float32)})
        b = TensorMap({"b": np.zeros(3, np.float32)})
        with pytest.raises(CompatibilityError, match="'a'"):
            check_compatible(a, b)


class TestConfigText:
    def test_round_trip_of_every_field(self):
        cfg = MappingConfig(
            signal="mid", y_min=0.5, y_max=7.25, zero_epsilon=1e-4, slices=3,
            multiply_activation=True,
        )
        assert config_to_text(cfg) == {
            "signal": "mid", "y_min": "0.5", "y_max": "7.25", "zero_epsilon": "0.0001",
            "slices": "3", "multiply_activation": "true",
        }
        assert config_from_text(MappingConfig, config_to_text(cfg)) == cfg

    def test_missing_fields_keep_defaults_and_other_keys_are_ignored(self):
        cfg = config_from_text(QuantConfig, {"bits": " 4 ", "rows": "7"})
        assert cfg == QuantConfig(bits=4)

    @pytest.mark.parametrize(
        "word,value", [("YES", True), ("on", True), ("0", False), ("Off", False)]
    )
    def test_boolean_words(self, word, value):
        cfg = config_from_text(MappingConfig, {"multiply_activation": word})
        assert cfg.multiply_activation is value

    @pytest.mark.parametrize(
        "text,match",
        [
            ({"slices": "2.5"}, "slices must be int"),
            ({"multiply_activation": "maybe"}, "multiply_activation must be bool"),
            ({"slices": "0"}, "slices must be >= 1"),  # parsed, then rejected by the config
        ],
    )
    def test_bad_text_raises_value_error_naming_the_field(self, text, match):
        with pytest.raises(ValueError, match=match):
            config_from_text(MappingConfig, text)
